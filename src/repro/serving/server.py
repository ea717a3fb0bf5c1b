"""The multi-tenant private-inference server (offline trace driver).

Composes the serving subsystem end to end::

    trace -> ShardRouter (pin tenant -> enclave shard)
          -> ShardedSessionManager (attest once / tenant on its shard)
          -> per-shard RequestQueue (bounded, shed-load globally)
          -> ShardedBatchScheduler (coalesce per shard, size-or-deadline)
          -> InferenceWorkerPool (per-shard staged pipelines on parallel
             enclave timelines; mesh-verified session failover when a
             shard dies)
          -> ServerMetrics / ServingReport

The deployment runs ``darknight.num_shards`` :class:`EnclaveShard` s —
each its own enclave + GPU cluster + serialized timeline — behind one
scheduler; an :class:`AttestationMesh` pairwise-verifies every shard at
startup so sessions can migrate on failure.  Serving always uses
per-sample normalization, so a request's logits are bit-identical at
every shard count, pipeline depth, and coalescing mix.

There is no network dependency: :meth:`PrivateInferenceServer.serve_trace`
replays a time-stamped request trace against a simulated clock, firing
deadline flushes exactly when a live server's timer would have.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.audit import AuditConfig, AuditTrail
from repro.comm import LinkModel
from repro.enclave import EPC_USABLE_BYTES, Enclave
from repro.errors import (
    AttestationError,
    BackpressureError,
    ConfigurationError,
    QuotaExceededError,
    ShardError,
)
from repro.gpu import GpuCluster
from repro.nn import Sequential
from repro.pipeline.timing import StageCostModel
from repro.precompute import active_scratch
from repro.runtime.client import DEFAULT_CODE_IDENTITY
from repro.runtime.config import DarKnightConfig
from repro.serving.adaptive import (
    AdaptiveBatchingConfig,
    build_policies,
    epc_fitting_batch_size,
    estimate_slot_bytes,
)
from repro.serving.autoscale import (
    ACTION_SCALE_IN,
    ACTION_SCALE_OUT,
    AutoscaleConfig,
    ShardAutoscaler,
)
from repro.serving.metrics import (
    SHED_ADMISSION,
    SHED_EVICTED,
    SHED_QUOTA,
    ServerMetrics,
)
from repro.serving.queue import RequestQueue
from repro.serving.requests import (
    STATUS_SHARD_FAILED,
    STATUS_SHED,
    PendingRequest,
    RequestOutcome,
)
from repro.serving.scheduler import ShardedBatchScheduler
from repro.serving.session import ShardedSessionManager
from repro.serving.slo import SloClass, SloPolicy
from repro.serving.trace import TraceRequest
from repro.serving.worker import InferenceWorkerPool
from repro.sharding import (
    AttestationMesh,
    EnclaveShard,
    LayerPartitionPlanner,
    PartitionSpec,
    PipelineGroup,
    ShardRouter,
)

#: Sentinel meaning "run until every queued request has drained".
_DRAIN = float("inf")


@dataclass(frozen=True)
class ServingConfig:
    """Everything that parameterises a serving deployment.

    Parameters
    ----------
    darknight:
        The masking/session parameters shared by all tenants (the
        virtual-batch size ``K`` doubles as the coalescing target, and
        ``num_shards`` sets how many enclave shards the deployment runs).
    max_batch_wait:
        Deadline (simulated seconds) before a partial batch is forced out.
    queue_capacity:
        Bound on *admitted-but-incomplete* requests — queued plus in
        flight behind busy workers, summed over every shard; beyond it
        the server sheds load, so sustained overload surfaces as shed
        requests instead of unbounded latency.
    coalesce:
        ``False`` dispatches every request alone (the naive baseline the
        serving benchmark measures against); the enclave still pads each
        lone sample to ``K`` slots, which is exactly the waste coalescing
        recovers.
    reuse_coefficients:
        Serve from the backend's coefficient cache (inference never needs
        the training escape hatch of fresh per-step coefficients).
    encrypt_requests:
        Run every sample and response through the tenant's AEAD channel.
    stage_costs:
        Simulated-time pricing for the pipeline stages.  Batch service
        times come from each shard's staged executor's real per-stage
        timings (bytes masked, MACs run) on that shard's persistent
        enclave/GPU timeline.
    adaptive:
        When set, each shard's flush deadline is *learned* (EWMA of
        inter-arrival gaps, steered by fill-ratio feedback, floored by
        the measured per-batch enclave occupancy) and the virtual-batch
        size is clamped to what fits the enclave's EPC budget
        (:mod:`repro.serving.adaptive`).  ``None`` — the default — keeps
        the static ``max_batch_wait``/``virtual_batch_size`` knobs and a
        flush path bit-identical to previous releases.
    slo:
        Optional :class:`~repro.serving.slo.SloPolicy` threading
        per-tenant service classes through the whole request path:
        class-aware eviction at admission, minimum-remaining-budget
        flush deadlines, deadline-carrying dispatch windows (the
        pipeline executor runs the tightest deadline first among
        equally-early stages),
        SLO-aware shard placement, and per-class latency metrics.
        ``None`` — or a policy whose every class is the default — keeps
        the server bit-identical to previous releases.
    shard_weights:
        Optional per-shard capacity weights for heterogeneous
        deployments (forwarded to the
        :class:`~repro.sharding.ShardRouter`'s hash ring); ``None``
        weighs every shard equally.
    audit:
        Optional :class:`~repro.audit.AuditConfig` enabling the
        verifiable serving audit trail: every flush window's requests,
        integrity posture, and decoded-output digests are committed to a
        per-shard hash-chained Merkle log
        (:attr:`PrivateInferenceServer.audit`), from which tenants can
        extract offline-verifiable inclusion proofs and auditors can
        deterministically replay disputed windows.  ``None`` — the
        default — commits nothing and leaves dispatch bit-identical.
    autoscale:
        Optional :class:`~repro.serving.autoscale.AutoscaleConfig`
        enabling elastic shard membership: the server provisions and
        decommissions enclave shards at runtime from queue-depth,
        utilization, and SLO-attainment pressure, between
        ``min_shards`` and ``max_shards``.  ``darknight.num_shards``
        becomes the *initial* count (clamped into the bounds).  ``None``
        — the default — keeps the static deployment.
    precompute:
        Enable the offline/online split on every shard's backend:
        pregenerated mask streams (drawn from counter-based per-shard
        RNG streams, so pooled and inline generation are bit-identical),
        a static per-``(shard, layer)`` weight-encoding cache reused
        across flush windows, and recycled hot-path scratch buffers.
        Refills run only in enclave-timeline idle gaps.  ``True``
        changes *when* work happens, never the bits of any response.
        Opt-in (``False`` by default): pool refills and cache lookups
        cost wall time, which the verified ``serve-integrity`` workload
        pays without gaining anything back.
    partition:
        How the model maps onto the deployment's shards.
        ``"replicated"`` (the default) gives every shard the full model;
        ``"layered:N"`` cuts the execution plan into ``N`` balanced
        stage ranges and chains every ``N`` consecutive shards into one
        :class:`~repro.sharding.partition.PipelineGroup`
        (``num_shards`` must be a multiple of ``N``), with activations
        handed between members as sealed, mesh-verified envelopes.
        Logits are bit-identical in every mode — per-sample
        normalization and exact masking make them independent of cut
        placement.  Layered partitioning composes with everything except
        ``autoscale`` (elastic membership is replicated-only).
    """

    darknight: DarKnightConfig = field(default_factory=DarKnightConfig)
    max_batch_wait: float = 0.01
    queue_capacity: int = 256
    coalesce: bool = True
    reuse_coefficients: bool = True
    encrypt_requests: bool = True
    stage_costs: StageCostModel | None = None
    code_identity: str = DEFAULT_CODE_IDENTITY
    adaptive: AdaptiveBatchingConfig | None = None
    slo: SloPolicy | None = None
    shard_weights: tuple[float, ...] | None = None
    audit: AuditConfig | None = None
    autoscale: AutoscaleConfig | None = None
    precompute: bool = False
    partition: str = "replicated"

    # ------------------------------------------------------------------
    # the unified config surface: dict round-trip + named presets
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Strict-JSON-safe dict covering every sub-config.

        Round-trips through :meth:`from_dict`; infinite SLO budgets are
        encoded as ``null`` so ``json.dumps(cfg.to_dict(),
        allow_nan=False)`` always succeeds.
        """

        def _slo_dict(slo: SloPolicy | None) -> dict | None:
            if slo is None:
                return None
            return {
                "classes": {
                    name: {
                        "name": cls.name,
                        "latency_budget": (
                            cls.latency_budget
                            if math.isfinite(cls.latency_budget)
                            else None
                        ),
                        "priority": cls.priority,
                        "shed_weight": cls.shed_weight,
                        "drain_weight": cls.drain_weight,
                        "admission_share": cls.admission_share,
                    }
                    for name, cls in sorted(slo.classes.items())
                },
                "assignments": dict(slo.assignments),
            }

        def _opt_asdict(value) -> dict | None:
            return None if value is None else dataclasses.asdict(value)

        return {
            "darknight": dataclasses.asdict(self.darknight),
            "max_batch_wait": self.max_batch_wait,
            "queue_capacity": self.queue_capacity,
            "coalesce": self.coalesce,
            "reuse_coefficients": self.reuse_coefficients,
            "encrypt_requests": self.encrypt_requests,
            "stage_costs": _opt_asdict(self.stage_costs),
            "code_identity": self.code_identity,
            "adaptive": _opt_asdict(self.adaptive),
            "slo": _slo_dict(self.slo),
            "shard_weights": (
                None if self.shard_weights is None else list(self.shard_weights)
            ),
            "audit": _opt_asdict(self.audit),
            "autoscale": _opt_asdict(self.autoscale),
            "precompute": self.precompute,
            "partition": self.partition,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServingConfig":
        """Rebuild a config (all five sub-configs) from :meth:`to_dict`.

        Unknown keys raise :class:`~repro.errors.ConfigurationError`
        rather than being silently dropped — a typo in a ``--config``
        file must not quietly serve with defaults.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"serving config must be a dict, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown serving config keys {unknown} (known: {sorted(known)})"
            )
        kwargs = dict(data)

        def _build(key, factory):
            value = kwargs.get(key)
            if isinstance(value, dict):
                try:
                    kwargs[key] = factory(value)
                except TypeError as exc:
                    raise ConfigurationError(
                        f"bad serving config: {key}: {exc}"
                    ) from exc

        _build("darknight", lambda d: DarKnightConfig(**d))
        _build("stage_costs", lambda d: StageCostModel(**d))
        _build("adaptive", lambda d: AdaptiveBatchingConfig(**d))
        _build("audit", lambda d: AuditConfig(**d))
        _build("autoscale", lambda d: AutoscaleConfig(**d))

        slo = kwargs.get("slo")
        if isinstance(slo, dict):
            classes = {}
            for name, spec in slo.get("classes", {}).items():
                spec = dict(spec)
                spec.setdefault("name", name)
                if spec.get("latency_budget") is None:
                    spec["latency_budget"] = math.inf
                try:
                    classes[name] = SloClass(**spec)
                except TypeError as exc:
                    raise ConfigurationError(
                        f"bad serving config: slo class {name!r}: {exc}"
                    ) from exc
            kwargs["slo"] = SloPolicy(
                classes=classes, assignments=dict(slo.get("assignments", {}))
            )
        weights = kwargs.get("shard_weights")
        if weights is not None:
            kwargs["shard_weights"] = tuple(float(w) for w in weights)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigurationError(f"bad serving config: {exc}") from exc

    @classmethod
    def preset(cls, name: str, **overrides) -> "ServingConfig":
        """A named starting point: ``latency``, ``throughput``, ``audited``.

        ``latency`` learns per-shard flush deadlines with a tight static
        ceiling and a 2-deep pipeline; ``throughput`` doubles ``K`` and
        relaxes the deadline so size triggers dominate; ``audited`` turns
        on integrity shares plus the verifiable audit trail.  Keyword
        ``overrides`` replace any top-level field after the preset.
        """
        if name == "latency":
            base = cls(
                darknight=DarKnightConfig(pipeline_depth=2),
                max_batch_wait=2e-3,
                adaptive=AdaptiveBatchingConfig(),
            )
        elif name == "throughput":
            base = cls(
                darknight=DarKnightConfig(virtual_batch_size=8, pipeline_depth=2),
                max_batch_wait=2e-2,
            )
        elif name == "audited":
            base = cls(
                darknight=DarKnightConfig(integrity=True),
                audit=AuditConfig(),
            )
        else:
            raise ConfigurationError(
                f"unknown serving preset {name!r} (available: {list(PRESETS)})"
            )
        return dataclasses.replace(base, **overrides) if overrides else base


#: Names :meth:`ServingConfig.preset` accepts.
PRESETS = ("latency", "throughput", "audited")


@dataclass
class ServingReport:
    """What a serving run produced: outcomes plus aggregate statistics."""

    outcomes: list[RequestOutcome]
    metrics: ServerMetrics
    handshakes: int
    tenants: list[str]
    link_bytes: int
    shards: int = 1
    failovers: int = 0
    migrations: int = 0
    #: Failover retries skipped because the class budget was exhausted.
    retries_skipped_budget: int = 0
    #: Failover retries shed because the remaining budget could not cover
    #: the measured per-batch service-time floor.
    retries_skipped_floor: int = 0
    #: How the model mapped onto the shards (``replicated``/``layered:N``).
    partition: str = "replicated"
    #: Per-shard learned-policy telemetry (None entries = static shards).
    adaptive: list | None = None
    #: Per-shard audit chain heads (``None`` when auditing is disabled).
    audit_roots: dict[int, str] | None = None
    #: Elastic-membership telemetry (``None`` when autoscaling is off).
    autoscale: dict | None = None
    #: Mask-pool / weight-cache telemetry (``None`` when precompute off).
    precompute: dict | None = None

    @property
    def completed(self) -> list[RequestOutcome]:
        """Outcomes that produced a verified prediction."""
        return [o for o in self.outcomes if o.ok]

    def render(self) -> str:
        """The metrics table plus session- and shard-layer facts."""
        lines = [self.metrics.render()]
        lines.append(
            f"sessions: {len(self.tenants)} tenants,"
            f" {self.handshakes} attestation handshakes,"
            f" {self.link_bytes:,} link bytes"
        )
        lines.append(
            f"shards: {self.shards} enclave shard(s),"
            f" partition {self.partition},"
            f" {self.failovers} failovers,"
            f" {self.migrations} session migrations"
            + (
                f", {self.retries_skipped_budget} retries skipped (budget)"
                if self.retries_skipped_budget
                else ""
            )
            + (
                f", {self.retries_skipped_floor} retries shed (service floor)"
                if self.retries_skipped_floor
                else ""
            )
        )
        if self.autoscale is not None:
            lines.append(
                f"autoscale: {self.autoscale['scale_outs']} scale-outs,"
                f" {self.autoscale['scale_ins']} scale-ins,"
                f" peak {self.autoscale['peak_shards']} shards,"
                f" {self.autoscale['shard_seconds']:.3f} shard-seconds"
            )
        if self.precompute is not None:
            hit_rate = self.precompute["hit_rate"]
            lines.append(
                "precompute: pool hit rate "
                + ("n/a" if hit_rate is None else f"{hit_rate:.3f}")
                + f", {self.precompute['refills']} refills,"
                f" {self.precompute['pooled_bytes_peak']:,} bytes pooled (peak),"
                f" {self.precompute['weights_reused']} weight reuses"
            )
        if self.audit_roots is not None:
            heads = ", ".join(
                f"shard {sid}: {root[:12]}…"
                for sid, root in sorted(self.audit_roots.items())
            )
            lines.append(f"audit chain heads: {heads}")
        learned = [snap for snap in (self.adaptive or []) if snap is not None]
        if learned:
            waits = ", ".join(
                "n/a" if s["current_wait"] is None else f"{s['current_wait'] * 1e3:.2f}ms"
                for s in learned
            )
            lines.append(
                f"adaptive: K={learned[0]['batch_size']}"
                f" (base {learned[0]['base_batch_size']}),"
                f" learned deadline(s) {waits}"
            )
        return "\n".join(lines)


class PrivateInferenceServer:
    """Serves masked inference to many tenants over sharded trusted stacks.

    Parameters
    ----------
    network:
        The trained model all tenants query.
    config:
        Serving parameters; :attr:`ServingConfig.darknight` sizes each
        enclave/GPU shard and sets the shard count.
    cluster:
        Optionally inject a cluster (e.g. with fault injectors) — the
        integrity tests serve through a byzantine GPU this way.  Only
        valid with ``num_shards=1`` (a multi-shard deployment provisions
        one cluster per shard).
    enclave:
        Optionally inject a pre-provisioned enclave (``num_shards=1``
        only, for the same reason).
    """

    def __init__(
        self,
        network: Sequential,
        config: ServingConfig | None = None,
        cluster: GpuCluster | None = None,
        enclave: Enclave | None = None,
    ) -> None:
        self.config = config or ServingConfig()
        dk = self.config.darknight
        if self.config.reuse_coefficients and dk.fresh_coefficients:
            dk = dataclasses.replace(dk, fresh_coefficients=False)
        if not dk.per_sample_normalization and dk.dynamic_normalization:
            # Served logits must not depend on batch composition (and so
            # not on coalescing, pipelining, or shard routing choices).
            dk = dataclasses.replace(dk, per_sample_normalization=True)
        autoscale = self.config.autoscale
        if autoscale is not None:
            # num_shards becomes the *initial* count, clamped into the
            # autoscaler's bounds.
            initial = min(
                max(dk.num_shards, autoscale.min_shards), autoscale.max_shards
            )
            if initial != dk.num_shards:
                dk = dataclasses.replace(dk, num_shards=initial)
        # Every configuration error must fire *before* the provisioning
        # loop below: a failed construction may never leak attested
        # enclaves (or their GPU clusters) it cannot hand back.
        partition = PartitionSpec.parse(self.config.partition)
        if partition.layered:
            if autoscale is not None:
                raise ConfigurationError(
                    "layered partitioning does not compose with autoscale;"
                    " elastic shard membership is replicated-only"
                )
            if dk.num_shards % partition.n_stages != 0:
                raise ConfigurationError(
                    f"partition layered:{partition.n_stages} needs num_shards"
                    f" divisible by {partition.n_stages},"
                    f" got {dk.num_shards}"
                )
        #: Routing units: pipeline groups under layered partitioning,
        #: individual shards otherwise.
        n_units = dk.num_shards // partition.n_stages
        stage_ranges = None
        if partition.layered:
            # Planning needs only the network, so an impossible cut count
            # (more stages than plan steps) fails before provisioning.
            planner = LayerPartitionPlanner(network, self.config.stage_costs)
            stage_ranges = planner.plan(partition.n_stages)
        elastic_max = autoscale.max_shards if autoscale is not None else dk.num_shards
        if max(dk.num_shards, elastic_max) > 1 and (
            cluster is not None or enclave is not None
        ):
            raise ConfigurationError(
                "injected clusters/enclaves only compose with a single static"
                f" shard; got num_shards={dk.num_shards},"
                f" elastic max {elastic_max} — provision per-shard hardware"
                " through DarKnightConfig instead"
            )
        if (
            self.config.shard_weights is not None
            and len(self.config.shard_weights) != n_units
        ):
            raise ConfigurationError(
                f"need one shard weight per routing unit:"
                f" {len(self.config.shard_weights)} weights for"
                f" {n_units} units"
            )
        if self.config.adaptive is not None:
            # Size K against the EPC budget *before* provisioning: the
            # enclave encodes (and pads) at the provisioned K, so only a
            # construction-time clamp actually shrinks the working set.
            budget = int(
                (dk.epc_budget_bytes or EPC_USABLE_BYTES)
                * self.config.adaptive.epc_headroom
            )
            fit = epc_fitting_batch_size(
                dk.virtual_batch_size,
                estimate_slot_bytes(network),
                budget,
                dk.collusion_tolerance,
                dk.extra_shares,
                dk.pipeline_depth,
            )
            if fit < dk.virtual_batch_size:
                dk = dataclasses.replace(dk, virtual_batch_size=fit)
        self.link = LinkModel()
        #: The effective (possibly EPC-clamped) DarKnight parameters.
        self.darknight = dk
        #: Kept for elastic scale-out: new shards provision the same model.
        self.network = network
        self.autoscale_config = autoscale
        self.autoscaler = ShardAutoscaler(autoscale)
        self.shards = [
            EnclaveShard.provision(
                shard_id,
                network,
                dk,
                code_identity=self.config.code_identity,
                stage_costs=self.config.stage_costs,
                cluster=cluster if shard_id == 0 else None,
                enclave=enclave if shard_id == 0 else None,
                link=self.link,
                precompute=self.config.precompute,
            )
            for shard_id in range(dk.num_shards)
        ]
        # Single-shard compatibility handles (shard 0 is the whole stack
        # when num_shards=1).
        self.enclave = self.shards[0].enclave
        self.engine = self.shards[0].engine
        self.mesh = AttestationMesh(
            self.shards, expected_code_identity=self.config.code_identity
        ).establish()
        #: The parsed partition mode and its plan cuts (layered only).
        self.partition = partition
        self.stage_ranges = stage_ranges
        if partition.layered:
            n = partition.n_stages
            # Hop channels key against the *shard-level* mesh: every
            # consecutive member pair was pairwise-attested above.
            self.groups: list[PipelineGroup] | None = [
                PipelineGroup(
                    g,
                    self.shards[g * n : (g + 1) * n],
                    stage_ranges,
                    self.mesh,
                    link=self.link,
                    seed=dk.seed if dk.seed is not None else 0,
                )
                for g in range(n_units)
            ]
            self.units: list = list(self.groups)
            # Sessions route on *units*, so they need a unit-level mesh:
            # each group's entry enclave re-attests under its group id.
            self.unit_mesh = AttestationMesh(
                self.units, expected_code_identity=self.config.code_identity
            ).establish()
        else:
            self.groups = None
            self.units = list(self.shards)
            self.unit_mesh = self.mesh
        self.router = ShardRouter(
            n_units,
            weights=(
                list(self.config.shard_weights)
                if self.config.shard_weights is not None
                else None
            ),
            slo=self.config.slo,
            group_members=(
                {
                    group.shard_id: tuple(m.shard_id for m in group.members)
                    for group in self.groups
                }
                if self.groups is not None
                else None
            ),
        )
        self.sessions = ShardedSessionManager(
            self.units,
            router=self.router,
            mesh=self.unit_mesh,
            link=self.link,
            expected_code_identity=self.config.code_identity,
            seed=dk.seed,
        )
        self.queues = [
            RequestQueue(self.config.queue_capacity, slo=self.config.slo)
            for _ in self.units
        ]
        self.queue = self.queues[0]
        batch_size = dk.virtual_batch_size if self.config.coalesce else 1
        policies = None
        if self.config.adaptive is not None:
            policies = build_policies(
                n_units,
                batch_size,
                self.config.max_batch_wait,
                self.config.adaptive,
                network=network,
                epc_budget_bytes=dk.epc_budget_bytes or EPC_USABLE_BYTES,
                collusion_tolerance=dk.collusion_tolerance,
                extra_shares=dk.extra_shares,
                pipeline_depth=dk.pipeline_depth,
                slo=self.config.slo,
            )
        self.scheduler = ShardedBatchScheduler(
            self.queues,
            batch_size,
            self.config.max_batch_wait,
            slots=dk.virtual_batch_size,
            policies=policies,
        )
        self.metrics = ServerMetrics(slo=self.config.slo)
        #: The verifiable audit trail (``None`` unless ``config.audit``).
        self.audit: AuditTrail | None = None
        if self.config.audit is not None:
            self.audit = AuditTrail(
                self.config.audit,
                darknight=dk,
                num_shards=dk.num_shards,
                on_commit=self.metrics.record_commit,
            )
        self.pool = InferenceWorkerPool(
            shards=self.units,
            router=self.router,
            sessions=self.sessions,
            on_feedback=(
                self.scheduler.observe_feedback if policies is not None else None
            ),
            slo=self.config.slo,
            audit=self.audit,
        )
        self._outcomes: list[RequestOutcome] = []
        self._next_request_id = 0
        # Completion times of dispatched requests, for in-flight accounting.
        self._inflight: list[float] = []
        #: The trace replay's simulated clock (drives autoscale timing).
        self._clock = 0.0
        self._slot_bytes = estimate_slot_bytes(network)
        for shard in self.shards:
            self.autoscaler.note_provisioned(shard.shard_id, 0.0)
        self._apply_epc_pool()

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def serve_trace(self, trace: Iterable[TraceRequest]) -> ServingReport:
        """Replay a request trace to completion and report.

        Arrivals are processed in time order; between consecutive
        arrivals any pending deadline flush fires at its exact deadline.
        After the last arrival the queues drain deadline-by-deadline, so
        every admitted request completes.
        """
        events = sorted(trace, key=lambda r: r.time)
        now = 0.0
        for event in events:
            now = max(now, event.time)
            self._clock = max(self._clock, now)
            self._run_batches(self.scheduler.collect_expired(now))
            self._autoscale_tick(now)
            self._admit(event, now)
            self._run_batches(self.scheduler.collect_ready(now))
        self._run_batches(self.scheduler.collect_expired(_DRAIN))
        return self.report()

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def _live_shards(self) -> list[EnclaveShard]:
        """Shards currently serving traffic (draining included)."""
        return [s for s in self.shards if s.healthy and not s.retired]

    def _new_policy(self):
        """One adaptive flush policy for a freshly provisioned shard."""
        if self.config.adaptive is None:
            return None
        dk = self.darknight
        return build_policies(
            1,
            dk.virtual_batch_size if self.config.coalesce else 1,
            self.config.max_batch_wait,
            self.config.adaptive,
            network=self.network,
            epc_budget_bytes=dk.epc_budget_bytes or EPC_USABLE_BYTES,
            collusion_tolerance=dk.collusion_tolerance,
            extra_shares=dk.extra_shares,
            pipeline_depth=dk.pipeline_depth,
            slo=self.config.slo,
        )[0]

    def provision_shard(self, now: float = 0.0) -> int:
        """Scale out: bring one new enclave shard into the live deployment.

        The join is end to end: provision the trusted stack, attest it
        incrementally against the live mesh members, insert its virtual
        nodes into the consistent-hash ring (bounded tenant re-pinning),
        migrate the re-pinned tenants' attested sessions over the mesh,
        re-home their already-queued requests, and open its audit log
        when the trail is on.  Logits are unaffected by construction:
        per-sample normalization makes every response independent of
        which shard (and which co-batch) served it.
        """
        if self.partition.layered:
            raise ConfigurationError(
                "dynamic shard membership requires partition='replicated';"
                " a layered deployment's stage pipelines are fixed at"
                " construction"
            )
        shard_id = len(self.shards)
        shard = EnclaveShard.provision(
            shard_id,
            self.network,
            self.darknight,
            code_identity=self.config.code_identity,
            stage_costs=self.config.stage_costs,
            link=self.link,
            precompute=self.config.precompute,
        )
        shard.provisioned_at = now
        self.shards.append(shard)
        self.mesh.extend(shard)
        ring_id, remap = self.router.add_shard()
        if ring_id != shard_id:
            raise ShardError(
                f"router shard id {ring_id} out of sync with deployment"
                f" shard id {shard_id}"
            )
        queue = RequestQueue(self.config.queue_capacity, slo=self.config.slo)
        self.queues.append(queue)
        self.scheduler.add_shard(queue, policy=self._new_policy())
        self.sessions.extend(shard)
        self.sessions.migrate(remap, now)
        # Already-admitted requests follow their tenant's new pin so the
        # new shard takes load immediately (and the old shard's queue
        # stops aging work it no longer owns).
        for tenant in remap:
            for source in self.queues[:-1]:
                moved = source.extract_tenant(tenant)
                if moved:
                    queue.absorb(moved)
        self.pool.join(shard)
        if self.audit is not None:
            self.audit.add_shard(shard_id)
            # The join is chain-visible: the new shard's service life
            # opens with a first-class membership entry on its own log.
            self.audit.record_membership(
                "provision",
                shard_id,
                now,
                details={"num_shards": len(self.shards)},
            )
        self.autoscaler.note_provisioned(shard_id, now)
        self.metrics.record_scale(ACTION_SCALE_OUT)
        self._apply_epc_pool()
        self._invalidate_precompute()
        return shard_id

    def decommission_shard(
        self, shard_id: int | None = None, now: float = 0.0
    ) -> int:
        """Scale in, drain-before-kill: flush, migrate, then retire.

        The victim (the least-loaded live shard unless ``shard_id`` names
        one) first stops receiving new tenants (router drain), then its
        queued windows flush through its own pipeline — audit-committed
        when the trail is on — then its tenants re-place through the ring
        and their attested sessions migrate over the still-verified mesh
        links, and only then is the shard decommissioned.  A refused
        migration (unverified link) degrades safely: the victim's
        sessions are dropped and each tenant re-attests on its new shard
        at next contact.  Raises :class:`~repro.errors.ShardError` when
        removal would leave no serving shard.
        """
        live = self._live_shards()
        if shard_id is None:
            victim = min(
                live,
                key=lambda s: (
                    self.queues[s.shard_id].depth,
                    self.router.loads()[s.shard_id],
                    -s.shard_id,
                ),
            )
        else:
            matches = [s for s in live if s.shard_id == shard_id]
            if not matches:
                raise ShardError(f"shard {shard_id} is not live; cannot drain")
            victim = matches[0]
        if self.partition.layered:
            raise ConfigurationError(
                "dynamic shard membership requires partition='replicated';"
                " a layered deployment's stage pipelines are fixed at"
                " construction"
            )
        vid = victim.shard_id
        self.router.begin_drain(vid)
        victim.begin_drain()
        if self.audit is not None:
            # Chain the wind-down *before* the final flush: every window
            # after this entry is the drain itself.
            self.audit.record_membership("drain", vid, now)
        # Flush the victim's pending windows through its own pipeline
        # (these commit to its audit chain like any other window).
        self._run_batches(self.scheduler.shards[vid].drain(now))
        if not victim.healthy:
            # Died mid-flush: the failover path already migrated its
            # sessions and re-pinned its tenants; nothing left to drain.
            return vid
        remap = self.router.remove_shard(vid)
        try:
            self.sessions.migrate(remap, now)
        except AttestationError:
            # Refused migration: sessions stay put until retire() drops
            # them below; tenants re-attest lazily on their new shard.
            pass
        self.sessions.retire(vid)
        self.pool.retire(vid)
        self.mesh.retire(vid)
        self.scheduler.retire_shard(vid)
        victim.decommission(now)
        if self.audit is not None:
            # The chain's final word on the shard: retired, with its
            # lifetime dispatch count frozen into the event leaf.
            self.audit.record_membership(
                "retire",
                vid,
                now,
                details={"batches_run": int(victim.batches_run)},
            )
        self.autoscaler.note_retired(vid, now)
        self.metrics.record_scale(ACTION_SCALE_IN)
        self._apply_epc_pool()
        self._invalidate_precompute()
        return vid

    def _invalidate_precompute(self) -> None:
        """Drop every live shard's cached weight encodings.

        Called after each membership change: a provision or retire
        re-shapes routing and (under a shared EPC pool) the coalescing
        target, so cached per-layer encodings must be re-validated by
        the next window rather than trusted across the topology change.
        Mask pools are deliberately untouched — their counters must keep
        advancing for pooled/inline bit-identity.
        """
        for shard in self._live_shards():
            backend = getattr(shard, "backend", None)
            invalidate = getattr(backend, "invalidate_precompute", None)
            if callable(invalidate):
                invalidate()

    def _precompute_report(self) -> dict | None:
        """Aggregate pool/weight-cache telemetry across live shards.

        Counts sum; the hit rate is recomputed from the summed draws
        (``None`` before any draw — strict-JSON, never ``NaN``); the
        occupancy averages over shards that have registered streams.
        ``None`` when no live backend runs in precompute mode.
        """
        snaps = []
        for shard in self._live_shards():
            backend = getattr(shard, "backend", None)
            snap_fn = getattr(backend, "precompute_snapshot", None)
            snap = snap_fn() if callable(snap_fn) else None
            if snap is not None:
                snaps.append(snap)
        if not snaps:
            return None
        agg = {
            key: sum(s[key] for s in snaps)
            for key in (
                "streams",
                "hits",
                "misses",
                "refills",
                "pooled_bytes",
                "pooled_bytes_peak",
                "weights_staged",
                "weights_reused",
                "cached_layers",
            )
        }
        draws = agg["hits"] + agg["misses"]
        agg["hit_rate"] = None if draws == 0 else agg["hits"] / draws
        occupancies = [s["occupancy"] for s in snaps if s["occupancy"] is not None]
        agg["occupancy"] = (
            None if not occupancies else sum(occupancies) / len(occupancies)
        )
        scratch = active_scratch()
        agg["scratch"] = None if scratch is None else scratch.snapshot()
        return agg

    def _apply_epc_pool(self) -> None:
        """Re-size ``K`` between windows against the shared EPC pool.

        With ``autoscale.epc_pool_bytes`` set, the deployment's EPC is a
        shared budget: fewer live shards each get a larger slice (larger
        coalescing target), more shards a smaller one.  The cap only ever
        *shrinks* batches below the provisioned ``K`` — the enclaves
        encode at the provisioned size, so per-sample normalization keeps
        logits bit-identical at every cap.
        """
        asc = self.autoscale_config
        if asc is None or asc.epc_pool_bytes is None:
            return
        headroom = (
            self.config.adaptive.epc_headroom
            if self.config.adaptive is not None
            else 0.9
        )
        per_shard = int(
            asc.epc_pool_bytes / max(1, len(self._live_shards())) * headroom
        )
        dk = self.darknight
        fit = epc_fitting_batch_size(
            dk.virtual_batch_size,
            self._slot_bytes,
            per_shard,
            dk.collusion_tolerance,
            dk.extra_shares,
            dk.pipeline_depth,
        )
        self.scheduler.set_batch_cap(
            fit if fit < dk.virtual_batch_size else None
        )

    def _autoscale_tick(self, now: float) -> None:
        """Run one control-loop evaluation and execute its decision."""
        if self.autoscale_config is None:
            return
        live = self._live_shards()
        if not live:
            return
        depths = {s.shard_id: self.queues[s.shard_id].depth for s in live}
        busy = {s.shard_id: s.busy_time for s in live}
        attainment = self.metrics.slo_attainment()
        action, reason = self.autoscaler.evaluate(
            now,
            depths,
            busy,
            attainment=attainment if math.isfinite(attainment) else None,
        )
        if action == ACTION_SCALE_OUT:
            shard_id = self.provision_shard(now)
        elif action == ACTION_SCALE_IN:
            try:
                shard_id = self.decommission_shard(now=now)
            except ShardError:
                return
        else:
            return
        self.autoscaler.record(
            action, shard_id, len(self._live_shards()), now, reason
        )

    def _inflight_at(self, now: float) -> int:
        """Dispatched requests whose (simulated) completion is still ahead."""
        while self._inflight and self._inflight[0] <= now:
            heapq.heappop(self._inflight)
        return len(self._inflight)

    def _admit(self, event: TraceRequest, now: float) -> None:
        """Route, attest/decrypt one arrival and queue it (or shed it).

        A total outage (every shard failed) turns the arrival into a
        ``shard_failed`` outcome instead of crashing the trace replay.
        """
        try:
            shard_id = self.router.shard_for(event.tenant)
        except ShardError as exc:
            self._outcomes.append(
                RequestOutcome(
                    request_id=self._next_request_id,
                    tenant=event.tenant,
                    status=STATUS_SHARD_FAILED,
                    arrival_time=now,
                    error=str(exc),
                )
            )
            self._next_request_id += 1
            self.metrics.record_outcome(self._outcomes[-1])
            return
        session = self.sessions.connect(event.tenant, now)
        x = np.asarray(event.x, dtype=np.float64)
        if self.config.encrypt_requests:
            x = session.decrypt_request(session.encrypt_request(x))
        request = PendingRequest(
            request_id=self._next_request_id,
            tenant=event.tenant,
            x=x,
            arrival_time=now,
            enqueue_time=now,
        )
        self._next_request_id += 1
        try:
            # Admitted-but-incomplete = queued (all shards) + in flight
            # behind busy workers; bounding their sum is what keeps
            # worst-case latency finite when the offered load exceeds
            # pipeline capacity.  Under an SLO policy a full deployment
            # first tries to evict the newest lowest-priority pending
            # request (across every shard queue) instead of shedding a
            # higher-priority arrival.
            if (
                self._inflight_at(now) + self.scheduler.queued
                >= self.config.queue_capacity
            ):
                victim = self._evict_for(request)
                if victim is None:
                    raise BackpressureError(
                        f"{len(self._inflight)} requests in flight and"
                        f" {self.scheduler.queued} queued >= capacity"
                        f" {self.config.queue_capacity}; shedding request"
                        f" {request.request_id} from {request.tenant!r}"
                    )
                self._record_eviction(victim, request)
            evicted = self.queues[shard_id].push(request)
            if evicted is not None:
                # Unreachable today: per-queue capacity equals the
                # deployment bound, so a full shard queue implies the
                # deployment check above already evicted from that very
                # queue.  Kept (not asserted away) so the accounting
                # stays correct if per-shard bounds ever shrink below
                # the deployment capacity.
                self._record_eviction(evicted, request)
            self.scheduler.observe_arrival(shard_id, now)
        except BackpressureError as exc:
            kind = SHED_QUOTA if isinstance(exc, QuotaExceededError) else SHED_ADMISSION
            self.metrics.record_shed(event.tenant, kind=kind)
            self._outcomes.append(
                RequestOutcome(
                    request_id=request.request_id,
                    tenant=event.tenant,
                    status=STATUS_SHED,
                    arrival_time=now,
                    error=str(exc),
                )
            )

    def _evict_for(self, request: PendingRequest) -> PendingRequest | None:
        """Evict the best lower-priority victim across every shard queue.

        Candidates are compared with the queue's own ordering (lowest
        class priority, highest shed weight, newest), so the deployment
        sheds the globally least-defensible pending request.  ``None``
        when no pending request ranks strictly below the arrival.
        """
        if self.config.slo is None:
            return None
        priority = self.config.slo.priority_for(request.tenant)
        best_queue = None
        best_key = None
        for queue in self.queues:
            candidate = queue.peek_eviction_candidate(priority)
            if candidate is None:
                continue
            if best_key is None or candidate[0] < best_key:
                best_key, best_queue = candidate[0], queue
        if best_queue is None:
            return None
        return best_queue.evict_newest_below(priority)

    def _record_eviction(
        self, victim: PendingRequest, arrival: PendingRequest
    ) -> None:
        """Account one pending request evicted for a premium arrival."""
        self.metrics.record_shed(victim.tenant, kind=SHED_EVICTED)
        self._outcomes.append(
            RequestOutcome(
                request_id=victim.request_id,
                tenant=victim.tenant,
                status=STATUS_SHED,
                arrival_time=victim.arrival_time,
                error=(
                    f"evicted for higher-priority request"
                    f" {arrival.request_id} from {arrival.tenant!r}"
                ),
            )
        )

    def _run_batches(self, batches) -> None:
        """Dispatch a window of flushed batches and account their outcomes.

        The whole window goes to the pool in one call so each shard's
        batches overlap inside that shard's staged pipeline (encode
        ``n+1`` while ``n`` computes), with different shards progressing
        on parallel timelines.
        """
        if not batches:
            return
        for batch in batches:
            self.metrics.record_batch(batch)
        outcomes = self.pool.dispatch_window(list(batches))
        for outcome in outcomes:
            heapq.heappush(self._inflight, outcome.completion_time)
            self.metrics.record_outcome(outcome)
            if outcome.ok and self.config.encrypt_requests:
                session = self.sessions.connect(outcome.tenant)
                envelope = session.encrypt_response(outcome.logits)
                session.decrypt_response(envelope)
        self._outcomes.extend(outcomes)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> ServingReport:
        """Snapshot the run so far."""
        end = self._clock
        for outcome in self._outcomes:
            if outcome.completion_time is not None:
                end = max(end, outcome.completion_time)
        precompute = self._precompute_report()
        self.metrics.record_precompute(precompute)
        return ServingReport(
            outcomes=list(self._outcomes),
            metrics=self.metrics,
            handshakes=self.sessions.handshakes_performed,
            tenants=self.sessions.active_tenants,
            link_bytes=self.link.total_bytes,
            shards=len(self.shards),
            failovers=self.pool.failovers,
            migrations=self.sessions.migrations,
            retries_skipped_budget=self.pool.retries_skipped_budget,
            retries_skipped_floor=self.pool.retries_skipped_floor,
            partition=str(self.partition),
            adaptive=self.scheduler.policy_snapshots(),
            audit_roots=self.audit.chain_roots() if self.audit is not None else None,
            autoscale=(
                self.autoscaler.snapshot(end)
                if self.autoscale_config is not None
                else None
            ),
            precompute=precompute,
        )
