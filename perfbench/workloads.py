"""The benchmark's four workloads, driven through the program's public API.

Every workload builds its inputs from the seed, sets the program up,
replays the inputs once per :meth:`replay` call and checks every output.
Serving workloads replay an open-loop arrival schedule through
``PrivateInferenceServer.serve_trace``: arrivals sit on the simulated
clock, and the replay runs as fast as the CPU allows, so wall time gives
throughput and per-window service time while per-request latency exists
only on the simulated clock (reported under ``sim_`` names).  The training
workload calls ``Trainer.train_step`` in a closed loop.

Each replay returns a :class:`Replay`: wall-clock samples, a digest of the
outputs, and the simulated metrics and program counters read from public
telemetry.  Simulated metrics, counters and digests are deterministic for
a seed; only the wall-clock fields vary between replays.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.audit import AuditConfig
from repro.cli import build_serving_model
from repro.data.synthetic import make_image_dataset
from repro.errors import AuditError
from repro.fieldmath import PrimeField
from repro.gpu import GpuCluster, RandomTamper
from repro.models import build_mini_vgg
from repro.nn import PlainBackend
from repro.runtime import DarKnightBackend, DarKnightConfig, Trainer
from repro.serving import (
    STATUS_INTEGRITY_FAILED,
    AutoscaleConfig,
    PrivateInferenceServer,
    ServingConfig,
    build_slo_policy,
    bursty_trace,
    phased_trace,
    synthetic_trace,
)
from repro.serving.slo import DEFAULT_CLASS_NAME

#: Simulated stages the pipeline executor accounts (``stage_totals`` keys).
SIM_STAGES = ("encode", "gpu", "decode", "tee", "transfer", "precompute", "stage_weights")

#: Served logits must match the float ``PlainBackend`` forward within this
#: absolute bound.  Fixed-point arithmetic (8 fractional bits, per-sample
#: normalisation, compounding over the layers) keeps honest errors below
#: 0.1 on these models, whose logits reach about 6; a tampered share that
#: escaped verification decodes to a uniformly random field element and
#: lands far outside the bound.
LOGIT_TOLERANCE = 0.25

#: Per-step bounds for train-private against a plaintext shadow trainer
#: that starts each step from the private run's weights and sees the same
#: batch: |loss gap| and max |weight gap| after the update.  Free-running
#: float and fixed-point trajectories diverge (SGD with momentum amplifies
#: rounding), so the shadow is re-anchored to the private weights every
#: step and the bound covers one step's rounding only.
LOSS_TOLERANCE = 0.05
WEIGHT_TOLERANCE = 0.05


@dataclass
class Replay:
    """One pass over a workload's inputs."""

    items: int  #: completed requests, or trained samples
    wall_s: float  #: wall seconds of the measured calls
    steps_ms: list[float]  #: wall ms per dispatch window / training step
    attempted: int
    failed: int
    problems: list[str]  #: failed correctness checks, empty when correct
    digest: str  #: sha256 of the outputs, for bit-for-bit comparison
    sim: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    sim_stages: dict[str, float] = field(default_factory=dict)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; ``0.0`` for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


class ReferenceClock:
    """A fixed piece of CPU work, timed between the measured calls.

    On a shared machine the speed of a core drifts by tens of percent over
    seconds, and the program's calls slow down with it.  The reference
    kernel mixes interpreter work with small float GEMMs and ufuncs, as
    the program does, and never changes, so its median time over a run
    says how fast the machine was during that run; :meth:`scale` turns
    that into a factor that rescales the run's times to the nominal speed.
    :meth:`tick` runs between measured calls, never inside one, and takes
    one sample per ``interval_s`` elapsed since the last (at most
    :attr:`MAX_BURST`), so the samples spread over the run as the measured
    work does.
    """

    MAX_BURST = 5

    def __init__(self, interval_s: float = 0.02) -> None:
        self.interval_ns = int(interval_s * 1e9)
        self.samples_ns: list[int] = []
        self._last = 0
        self._a = np.random.default_rng(0).normal(size=(96, 96))

    def sample(self) -> int:
        """Run the kernel once; returns (and records) its wall nanoseconds."""
        start = time.perf_counter_ns()
        counts: dict[int, int] = {}
        for i in range(3000):
            counts[i & 63] = counts.get(i & 63, 0) + i
        x = self._a
        for _ in range(4):
            x = np.tanh(x @ self._a * 0.01)
        elapsed = time.perf_counter_ns() - start
        self.samples_ns.append(elapsed)
        self._last = start + elapsed
        return elapsed

    def tick(self) -> int:
        """Take the samples that fell due; returns nanoseconds spent."""
        due = (time.perf_counter_ns() - self._last) // self.interval_ns
        return sum(self.sample() for _ in range(min(due, self.MAX_BURST)))

    def median_ms(self) -> float:
        """Median kernel time over the run so far."""
        return float(np.median(self.samples_ns)) / 1e6


def no_tick() -> int:
    """Stand-in for :meth:`ReferenceClock.tick` in traced replays."""
    return 0


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
class ServingWorkload:
    """Shared replay and checks for the three ``serve_trace`` workloads."""

    name = ""
    why = ""
    model = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.network, self.input_shape = build_serving_model(self.model, seed=0)
        self.trace = self.make_trace()
        events = sorted(self.trace, key=lambda r: r.time)
        self.reference = self.network.forward(
            np.stack([e.x for e in events]), PlainBackend(), training=False
        )

    def make_trace(self):
        raise NotImplementedError

    def serving_config(self) -> ServingConfig:
        raise NotImplementedError

    def setup(self) -> PrivateInferenceServer:
        """Build the model and the server (shards, attestation mesh)."""
        network, _ = build_serving_model(self.model, seed=0)
        return PrivateInferenceServer(network, self.serving_config())

    def teardown(self) -> None:
        """Remove what the setups wrote to disk."""

    def replay(self, server: PrivateInferenceServer, tick=no_tick) -> Replay:
        """Serve the trace once; ``tick`` runs between dispatch windows."""
        windows_ms: list[float] = []
        window_ok: list[bool] = []
        ticks_ns = 0
        dispatch_window = server.pool.dispatch_window

        def timed_window(batches):
            nonlocal ticks_ns
            start = time.perf_counter_ns()
            outcomes = dispatch_window(batches)
            windows_ms.append((time.perf_counter_ns() - start) / 1e6)
            window_ok.append(all(o.ok for o in outcomes))
            ticks_ns += tick()
            return outcomes

        server.pool.dispatch_window = timed_window
        start = time.perf_counter_ns()
        report = server.serve_trace(self.trace)
        wall = (time.perf_counter_ns() - start - ticks_ns) / 1e9
        del server.pool.dispatch_window

        n = len(self.trace)
        problems: list[str] = []
        outcomes = sorted(report.outcomes, key=lambda o: o.request_id)
        ids = [o.request_id for o in outcomes]
        if ids != list(range(n)):
            problems.append(
                f"{len(ids)} outcomes for {n} requests: not exactly one terminal"
                " outcome per request"
            )
        completed = rejected = failed = 0
        digest = hashlib.sha256()
        for o in outcomes:
            if o.ok:
                ref = self.reference[o.request_id] if o.request_id < n else None
                err = math.inf if ref is None else float(np.max(np.abs(o.logits - ref)))
                if not err <= LOGIT_TOLERANCE:
                    failed += 1
                    problems.append(
                        f"request {o.request_id}: logits off the plaintext forward"
                        f" by {err:.3g} (> {LOGIT_TOLERANCE})"
                    )
                    continue
                completed += 1
                digest.update(np.int64(o.request_id).tobytes())
                digest.update(np.ascontiguousarray(o.logits, dtype=np.float64).tobytes())
            elif o.status == STATUS_INTEGRITY_FAILED:
                rejected += 1
            else:
                failed += 1
        if completed + rejected + failed != n:
            problems.append(
                f"completed {completed} + tamper-rejected {rejected} + failed"
                f" {failed} != attempted {n}"
            )
        problems.extend(self.extra_checks(server, report, rejected))

        latencies = [o.latency for o in report.completed]
        waits = [
            o.dispatch_time - o.arrival_time
            for o in report.completed
            if o.dispatch_time is not None
        ]
        sim = {
            "sim_latency_p50_ms": percentile(latencies, 50) * 1e3,
            "sim_latency_p99_ms": percentile(latencies, 99) * 1e3,
            "sim_shard_seconds": self.shard_seconds(server, report),
            "sim_slo_attainment": self.slo_attainment(server, report, n),
            "sim_queue_wait_p99_ms": percentile(waits, 99) * 1e3,
        }
        snap = report.metrics.snapshot()
        pre = report.precompute or {}
        counters = {
            "masking.tamper_rejected": rejected,
            "gpu.mac_ops": sum(s.cluster.total_mac_ops() for s in server.shards),
            "gpu.bytes_moved": sum(s.cluster.total_bytes_moved() for s in server.shards),
            "audit.leaves": snap["audit_leaves"],
            "audit.bytes": snap["audit_bytes"],
            "precompute.hit_rate": pre.get("hit_rate") or 0.0,
            "precompute.weights_reused": pre.get("weights_reused", 0),
            "serving.batch_fill_ratio": snap["batch_fill_ratio"] or 0.0,
            "serving.window_useful_ratio": (
                sum(window_ok) / len(window_ok) if window_ok else 0.0
            ),
            "serving.scale_events": snap["scale_outs"] + snap["scale_ins"],
            "serving.session_handshakes": report.handshakes,
            "comm.link_bytes": report.link_bytes,
        }
        totals = server.pool.stage_totals()
        return Replay(
            items=completed,
            wall_s=wall,
            steps_ms=windows_ms,
            attempted=n,
            failed=failed,
            problems=problems,
            digest=digest.hexdigest(),
            sim=sim,
            counters=counters,
            sim_stages={stage: totals.get(stage, 0.0) for stage in SIM_STAGES},
        )

    def extra_checks(self, server, report, rejected: int) -> list[str]:
        return []

    def shard_seconds(self, server, report) -> float:
        """Provisioned shards integrated over simulated time (the bill)."""
        if report.autoscale is not None:
            return float(report.autoscale["shard_seconds"])
        finish = max(
            (o.completion_time for o in report.outcomes if o.completion_time is not None),
            default=0.0,
        )
        return len(server.shards) * finish

    def slo_attainment(self, server, report, attempted: int) -> float:
        """Share of attempted requests that completed within their budget."""
        slo = server.config.slo
        met = sum(
            1
            for o in report.completed
            if slo is None or o.latency <= slo.budget_for(o.tenant)
        )
        return met / attempted


class ServeIntegrity(ServingWorkload):
    name = "serve-integrity"
    why = (
        "private+verified inference on mini-vgg with a GPU tampering ~1% of its"
        " outputs: verification, field kernels, encode/decode and the detect path"
    )
    model = "mini-vgg"
    n_requests = 1000

    def make_trace(self):
        return synthetic_trace(
            self.n_requests,
            self.input_shape,
            n_tenants=4,
            mean_interarrival=1e-3,
            seed=self.seed,
        )

    def serving_config(self) -> ServingConfig:
        return ServingConfig(
            darknight=DarKnightConfig(
                virtual_batch_size=4, integrity=True, pipeline_depth=2, seed=0
            ),
            queue_capacity=2 * self.n_requests,
        )

    def setup(self) -> PrivateInferenceServer:
        network, _ = build_serving_model(self.model, seed=0)
        config = self.serving_config()
        dk = config.darknight
        cluster = GpuCluster(
            PrimeField(dk.prime),
            dk.n_gpus_required,
            fault_injectors={
                0: RandomTamper(PrimeField(dk.prime), probability=0.01, seed=self.seed)
            },
        )
        return PrivateInferenceServer(network, config, cluster=cluster)

    def extra_checks(self, server, report, rejected: int) -> list[str]:
        if rejected < 1:
            return ["no tampered request was rejected: the detect path never ran"]
        return []


class ServeLayeredAudited(ServingWorkload):
    name = "serve-layered-audited"
    why = (
        "mini-resnet over layered:3 shards with precompute and an on-disk audit"
        " trail: sealed hops, audit commits, mask pools; verification off"
    )
    model = "mini-resnet"
    n_requests = 1000
    _setups = 0  # numbers each set-up's audit directory

    def make_trace(self):
        return bursty_trace(self.n_requests, self.input_shape, n_tenants=4, seed=self.seed)

    def serving_config(self) -> ServingConfig:
        self._setups += 1
        log_dir = self.workdir / f"audit-{self._setups}"
        return ServingConfig(
            darknight=DarKnightConfig(virtual_batch_size=4, num_shards=3, seed=0),
            partition="layered:3",
            precompute=True,
            audit=AuditConfig(log_dir=str(log_dir), model=self.model),
            queue_capacity=2 * self.n_requests,
        )

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def extra_checks(self, server, report, rejected: int) -> list[str]:
        try:
            windows = server.audit.verify()
        except AuditError as exc:
            return [f"audit chain failed to verify: {exc}"]
        if windows < 1:
            return ["audit trail committed no windows"]
        return []


class ServeElastic(ServingWorkload):
    """The control-plane workload, run by hand rather than gated.

    It is left out of ``BENCHMARK.json``: its wall times come from the
    interpreter's object-heavy event loop, which neighbours on a shared
    2-core host slow by up to 30% within seconds while the reference
    kernel moves a third as much, so ten seeded runs spread 12-21% (IQR
    over median) even after scaling.  Its traced per-layer view, which
    has no bound, still measures admission, scaling and scheduling.
    """

    name = "serve-elastic"
    why = (
        "tiny model, autoscale 1-4 shards, heavy/lull/heavy phases over 8 tenants"
        " in two SLO classes: the server loop, admission, scaling and scheduling"
    )
    model = "tiny"
    n_requests = 4000

    def make_trace(self):
        heavy = (2 * self.n_requests) // 5
        lull = self.n_requests - 2 * heavy
        return phased_trace(
            [(heavy, 2e-5), (lull, 2e-2), (heavy, 2e-5)],
            self.input_shape,
            n_tenants=8,
            seed=self.seed,
        )

    def serving_config(self) -> ServingConfig:
        return ServingConfig(
            darknight=DarKnightConfig(virtual_batch_size=4, seed=0),
            autoscale=AutoscaleConfig(
                min_shards=1,
                max_shards=4,
                eval_interval=2e-4,
                scale_out_cooldown=3e-4,
                scale_in_cooldown=5e-3,
                queue_high=2.0,
                queue_low=0.5,
                breaches_to_scale_out=1,
                breaches_to_scale_in=6,
            ),
            slo=build_slo_policy(
                {"tight": 0.02, DEFAULT_CLASS_NAME: 0.2},
                {"tenant0": "tight", "tenant1": "tight"},
            ),
            queue_capacity=2 * self.n_requests,
        )


# ----------------------------------------------------------------------
# training workload
# ----------------------------------------------------------------------
class TrainPrivate:
    """DarKnight training of mini-vgg, checked against a plaintext run."""

    name = "train-private"
    why = (
        "DarKnight training of mini-vgg, K=4, integrity on, fresh coefficients"
        " per step: backward masking, coefficient generation, verify_backward"
    )
    batch = 16
    steps = 50
    input_shape = (3, 8, 8)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        data = make_image_dataset(
            self.batch * self.steps, 1, shape=self.input_shape, seed=seed
        )
        self.x, self.y = data.x_train, data.y_train

    def _network(self):
        return build_mini_vgg(
            input_shape=self.input_shape,
            n_classes=10,
            rng=np.random.default_rng(0),
            width=8,
        )

    def _batch(self, i: int):
        sl = slice(i * self.batch, (i + 1) * self.batch)
        return self.x[sl], self.y[sl]

    def setup(self) -> Trainer:
        """Build the model, the DarKnight backend and the trainer."""
        backend = DarKnightBackend(
            DarKnightConfig(
                virtual_batch_size=4, integrity=True, fresh_coefficients=True, seed=0
            )
        )
        return Trainer(self._network(), backend)

    def teardown(self) -> None:
        pass

    def replay(self, trainer: Trainer, tick=no_tick) -> Replay:
        """Train one pass over the data; ``tick`` runs between steps."""
        shadow = Trainer(self._network(), PlainBackend())
        steps_ms: list[float] = []
        losses: list[float] = []
        problems: list[str] = []
        failed = 0
        for i in range(self.steps):
            x, y = self._batch(i)
            for (_, _, mine), (_, _, theirs) in zip(
                shadow.network.parameters(), trainer.network.parameters()
            ):
                mine[...] = theirs
            start = time.perf_counter_ns()
            try:
                loss = trainer.train_step(x, y)
            except Exception as exc:  # a step that raises is a failed operation
                trainer.backend.end_batch()
                failed += 1
                problems.append(f"step {i} raised {type(exc).__name__}: {exc}")
                continue
            steps_ms.append((time.perf_counter_ns() - start) / 1e6)
            tick()
            losses.append(loss)
            plain_loss = shadow.train_step(x, y)
            loss_gap = abs(loss - plain_loss)
            weight_gap = max(
                float(np.max(np.abs(mine - theirs)))
                for (_, _, mine), (_, _, theirs) in zip(
                    shadow.network.parameters(), trainer.network.parameters()
                )
            )
            if not (loss_gap <= LOSS_TOLERANCE and weight_gap <= WEIGHT_TOLERANCE):
                failed += 1
                problems.append(
                    f"step {i}: private vs plaintext loss gap {loss_gap:.3g}"
                    f" (bound {LOSS_TOLERANCE}), weight gap {weight_gap:.3g}"
                    f" (bound {WEIGHT_TOLERANCE})"
                )
        digest = hashlib.sha256(np.asarray(losses, dtype=np.float64).tobytes())
        for _, _, param in trainer.network.parameters():
            digest.update(np.ascontiguousarray(param, dtype=np.float64).tobytes())
        cluster = trainer.backend.cluster
        return Replay(
            items=self.batch * len(steps_ms),
            wall_s=sum(steps_ms) / 1e3,
            steps_ms=steps_ms,
            attempted=self.steps,
            failed=failed,
            problems=problems,
            digest=digest.hexdigest(),
            counters={
                "masking.tamper_rejected": 0,
                "gpu.mac_ops": cluster.total_mac_ops(),
                "gpu.bytes_moved": cluster.total_bytes_moved(),
                "comm.link_bytes": trainer.backend.link.total_bytes,
            },
        )


WORKLOADS = {
    cls.name: cls for cls in (ServeIntegrity, ServeLayeredAudited, ServeElastic, TrainPrivate)
}
