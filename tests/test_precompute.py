"""The offline/online split: mask streams, weight cache, scratch buffers.

The load-bearing property everywhere is **bit-identity**: precompute mode
may change *when* work happens (pregenerated masks, cached weight
encodings, recycled scratch buffers) but never the bits of any response.
These tests pin that across the pool's hit/miss/exhaustion paths, across
``pipeline_depth x num_shards x partition`` deployments, and across the
cache-invalidation edges (elastic membership change, pipeline-group
rebuild) — plus the steady-state acceptance bar: a warmed-up flush
window generates no inline masks and re-stages no weights.
"""

import json

import numpy as np
import pytest

from repro.fieldmath import PrimeField
from repro.nn import Dense, ReLU, Sequential
from repro.precompute import MaskStreamPool, ScratchPool, enable_scratch
from repro.runtime import DarKnightConfig
from repro.serving import PrivateInferenceServer, ServingConfig, synthetic_trace
from repro.serving.requests import PendingRequest, ScheduledBatch
from repro.serving.slo import build_slo_policy

FIELD = PrimeField()
SHAPE = (3, 8, 8)


def _tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


def _serve(precompute, trace, *, num_shards=1, partition="replicated",
           pipeline_depth=1, seed=7):
    dk = DarKnightConfig(
        virtual_batch_size=4,
        seed=seed,
        num_shards=num_shards,
        pipeline_depth=pipeline_depth,
    )
    config = ServingConfig(
        darknight=dk, partition=partition, queue_capacity=512, precompute=precompute
    )
    server = PrivateInferenceServer(_tiny_net(), config)
    return server, server.serve_trace(trace)


def _logits(report):
    return np.stack(
        [o.logits for o in sorted(report.completed, key=lambda o: o.request_id)]
    )


# ----------------------------------------------------------------------
# MaskStreamPool: counter-based bit-identity
# ----------------------------------------------------------------------
def test_pooled_and_inline_draws_are_bit_identical():
    """A pooled sequence equals an all-inline one, draw for draw."""
    pooled = MaskStreamPool(FIELD, base_key=123)
    inline = MaskStreamPool(FIELD, base_key=123)
    # Streams register on first draw; refills before that are no-ops.
    assert pooled.refill_one() == 0
    first, registered = pooled.draw(SHAPE, 4, 1)
    assert not registered
    assert np.array_equal(first, inline.draw(SHAPE, 4, 1)[0])
    for _ in range(6):
        assert pooled.refill_one() > 0
    for i in range(6):
        a, was_pooled = pooled.draw(SHAPE, 4, 1)
        b, was_inline = inline.draw(SHAPE, 4, 1)
        assert was_pooled and not was_inline
        assert np.array_equal(a, b), f"draw {i} diverged"
    assert pooled.hits == 6 and inline.misses == 7


def test_interleaved_refills_never_reorder_or_double_draw():
    """Refills landing between draws hand out exactly the counters an
    all-inline pool would have generated — no skip, no repeat."""
    mixed = MaskStreamPool(FIELD, base_key=9)
    reference = MaskStreamPool(FIELD, base_key=9)
    drawn = []
    for i in range(10):
        if i % 3 == 0:
            mixed.refill_one()
        drawn.append(mixed.draw(SHAPE, 4, 2)[0])
    for i, tensor in enumerate(drawn):
        assert np.array_equal(tensor, reference.draw(SHAPE, 4, 2)[0]), i
    assert mixed.hits + mixed.misses == 10


def test_pool_exhaustion_falls_back_inline_without_deadlock():
    """Draining the pool past its refills degrades to inline misses that
    still carry the right counters (and never blocks)."""
    pool = MaskStreamPool(FIELD, base_key=5, stream_capacity=2)
    reference = MaskStreamPool(FIELD, base_key=5)
    pool.draw(SHAPE, 4, 1)  # register the stream (inline miss)
    reference.draw(SHAPE, 4, 1)
    assert pool.refill_one() > 0 and pool.refill_one() > 0
    assert pool.refill_one() == 0  # capacity cap: refills stop, no deadlock
    flags = []
    for _ in range(5):
        tensor, was_pooled = pool.draw(SHAPE, 4, 1)
        flags.append(was_pooled)
        assert np.array_equal(tensor, reference.draw(SHAPE, 4, 1)[0])
    assert flags == [True, True, False, False, False]
    assert pool.hits == 2 and pool.misses == 4


def test_max_bytes_bounds_refill_but_never_draws():
    """A pool too small for even one tensor refuses refills (pending 0)
    yet serves every draw inline."""
    pool = MaskStreamPool(FIELD, base_key=5, max_bytes=1)
    reference = MaskStreamPool(FIELD, base_key=5)
    first, was_pooled = pool.draw(SHAPE, 4, 1)  # registers the stream
    assert not was_pooled
    assert np.array_equal(first, reference.draw(SHAPE, 4, 1)[0])
    assert pool.pending_bytes() == 0 and pool.refill_one() == 0
    assert np.array_equal(
        pool.draw(SHAPE, 4, 1)[0], reference.draw(SHAPE, 4, 1)[0]
    )


def test_distinct_keys_use_independent_streams():
    pool = MaskStreamPool(FIELD, base_key=1)
    a = pool.draw(SHAPE, 4, 1)[0]
    b = pool.draw(SHAPE, 4, 2)[0]
    assert a.shape == (1,) + SHAPE and b.shape == (2,) + SHAPE
    assert pool.snapshot()["streams"] == 2


def test_pool_snapshot_is_strict_json_before_first_draw():
    pool = MaskStreamPool(FIELD, base_key=0)
    snap = pool.snapshot()
    assert snap["hit_rate"] is None and snap["occupancy"] is None
    json.dumps(snap, allow_nan=False)


# ----------------------------------------------------------------------
# ScratchPool: value transparency
# ----------------------------------------------------------------------
def test_scratch_pool_reuses_one_buffer_per_site():
    pool = ScratchPool()
    a = pool.get("t", (4, 4), np.float64)
    b = pool.get("t", (4, 4), np.float64)
    assert a is b
    assert pool.get("other", (4, 4), np.float64) is not a
    assert pool.snapshot() == {
        "entries": 2, "bytes": 256, "reuses": 1, "allocations": 2,
    }


def test_scratch_pool_resets_on_shape_churn():
    pool = ScratchPool(max_entries=2)
    pool.get("t", (1,), np.int64)
    pool.get("t", (2,), np.int64)
    pool.get("t", (3,), np.int64)  # churn past capacity: pool resets
    assert pool.snapshot()["entries"] == 1


def test_scratch_path_is_value_transparent_for_encode_decode():
    from repro.fieldmath import FieldRng, use_backend
    from repro.masking import CoefficientSet, ForwardDecoder

    rng = FieldRng(FIELD, seed=3)
    coeffs = CoefficientSet.generate(rng, k=4, m=1, extra_shares=1)
    decoder = ForwardDecoder(coeffs)
    outputs = rng.uniform((6, 3, 16, 16))
    with use_backend("limb"):
        plain = decoder.decode(outputs)
        previous = enable_scratch(True)
        try:
            pooled = decoder.decode(outputs)
            again = decoder.decode(outputs)  # second pass hits warm buffers
        finally:
            enable_scratch(previous)
    assert np.array_equal(plain, pooled)
    assert np.array_equal(plain, again)


# ----------------------------------------------------------------------
# end-to-end bit-identity across deployments
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "pipeline_depth,num_shards,partition",
    [
        (1, 1, "replicated"),
        (2, 1, "replicated"),
        (1, 2, "replicated"),
        (2, 2, "replicated"),
        (1, 2, "layered:2"),
        (2, 2, "layered:2"),
    ],
)
def test_precompute_serves_bit_identical_logits(
    pipeline_depth, num_shards, partition
):
    trace = synthetic_trace(24, (16,), n_tenants=3, seed=2)
    _, off = _serve(False, trace, num_shards=num_shards,
                    partition=partition, pipeline_depth=pipeline_depth)
    _, on = _serve(True, trace, num_shards=num_shards,
                   partition=partition, pipeline_depth=pipeline_depth)
    assert len(off.completed) == len(on.completed) == 24
    assert np.array_equal(_logits(off), _logits(on))
    assert on.precompute is not None and off.precompute is None


# ----------------------------------------------------------------------
# weight-cache invalidation edges
# ----------------------------------------------------------------------
def _membership_churn(server):
    """Serve / provision / serve / decommission / serve; returns logits."""
    out = []
    for phase, trace_seed in enumerate((11, 12, 13)):
        trace = synthetic_trace(16, (16,), n_tenants=3, seed=trace_seed)
        out.append(_logits(server.serve_trace(trace)))
        if phase == 0:
            server.provision_shard(now=0.0)
        elif phase == 1:
            server.decommission_shard(shard_id=0, now=0.0)
    return out


def test_weight_cache_invalidates_on_membership_change():
    """Provision/retire clears every live backend's weight cache, and the
    post-churn deployment serves the same bits as one that never cached."""
    dk = DarKnightConfig(virtual_batch_size=4, seed=7, num_shards=2)
    on = PrivateInferenceServer(
        _tiny_net(),
        ServingConfig(darknight=dk, queue_capacity=512, precompute=True),
    )
    trace = synthetic_trace(16, (16,), n_tenants=3, seed=11)
    on.serve_trace(trace)
    warmed = [s.backend.precompute_snapshot()["cached_layers"]
              for s in on._live_shards()]
    assert any(layers > 0 for layers in warmed)
    on.provision_shard(now=0.0)
    assert all(
        s.backend.precompute_snapshot()["cached_layers"] == 0
        for s in on._live_shards()
    )

    # Full churn sequence, both modes, phase-for-phase identical bits.
    fresh = {
        precompute: PrivateInferenceServer(
            _tiny_net(),
            ServingConfig(
                darknight=dk, queue_capacity=512, precompute=precompute
            ),
        )
        for precompute in (False, True)
    }
    phases_off = _membership_churn(fresh[False])
    phases_on = _membership_churn(fresh[True])
    for a, b in zip(phases_off, phases_on):
        assert np.array_equal(a, b)


def test_weight_cache_invalidates_on_group_rebuild():
    """Rebuilding a ``layered:N`` pipeline group clears member caches and
    the rebuilt deployment keeps serving bit-identical logits."""
    from repro.sharding.partition import PipelineGroup

    trace = synthetic_trace(16, (16,), n_tenants=3, seed=4)
    on, first_on = _serve(True, trace, num_shards=2, partition="layered:2")
    off, first_off = _serve(False, trace, num_shards=2, partition="layered:2")
    assert np.array_equal(_logits(first_on), _logits(first_off))
    assert any(
        s.backend.precompute_snapshot()["cached_layers"] > 0
        for s in on.shards
    )
    rebuilt = PipelineGroup(
        0, on.shards, on.stage_ranges, on.mesh, link=on.link, seed=7
    )
    assert rebuilt.healthy
    assert all(
        s.backend.precompute_snapshot()["cached_layers"] == 0
        for s in on.shards
    )
    # The rebuild changed *where* encodings live, not what gets served:
    # both servers (same history, rebuild a no-op without a cache) keep
    # serving the same bits afterwards.
    second_trace = synthetic_trace(16, (16,), n_tenants=3, seed=5)
    second_on = on.serve_trace(second_trace)
    second_off = off.serve_trace(second_trace)
    assert np.array_equal(_logits(second_on), _logits(second_off))


# ----------------------------------------------------------------------
# steady-state acceptance: zero inline masks, zero re-staging
# ----------------------------------------------------------------------
def test_steady_state_windows_do_no_offline_work():
    """After warmup every mask comes from the pool and every weight
    encoding from the cache — counted via backend ``record_compute``
    events, which fire once per mask draw / weight stage."""
    trace = synthetic_trace(40, (16,), n_tenants=3, seed=3)
    server, report = _serve(True, trace)
    assert len(report.completed) == 40
    counts = dict(server.shards[0].enclave.ledger.op_counts)
    n_linear_layers = 2  # the tiny net's two Dense layers
    assert counts.get("stage_weights") == n_linear_layers
    assert counts.get("reuse_weights", 0) > 0
    # Inline generation only ever happens before the refill engine has
    # seen a stream (the cold start); one miss per stream at most.
    streams = server.shards[0].backend.precompute_snapshot()["streams"]
    assert counts.get("mask_inline", 0) <= streams
    assert counts.get("mask_pool_hit", 0) > 0

    # A second trace on the warmed server does *zero* offline work inline.
    before_inline = counts.get("mask_inline", 0)
    before_staged = counts["stage_weights"]
    server.serve_trace(synthetic_trace(24, (16,), n_tenants=3, seed=6))
    counts = server.shards[0].enclave.ledger.op_counts
    assert counts.get("mask_inline", 0) == before_inline
    assert counts["stage_weights"] == before_staged


# ----------------------------------------------------------------------
# failover retries inherit the remaining SLO budget (not the flush window)
# ----------------------------------------------------------------------
def _pending(request_id, tenant, arrival):
    return PendingRequest(
        request_id=request_id,
        tenant=tenant,
        x=np.zeros((16,)),
        arrival_time=arrival,
        enqueue_time=arrival,
    )


def test_failover_retry_inherits_remaining_slo_budget():
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=2)
    slo = build_slo_policy(
        {"premium": 0.050, "standard": 0.200},
        {"t0": "premium", "t1": "standard"},
    )
    config = ServingConfig(darknight=dk, queue_capacity=64, slo=slo)
    server = PrivateInferenceServer(_tiny_net(), config)
    batch = ScheduledBatch(
        batch_id=7,
        requests=[_pending(0, "t0", arrival=0.010), _pending(1, "t1", 0.012)],
        flush_time=0.020,
        slots=4,
        shard_id=0,
    )
    retries = server.pool._reroute(batch, failed_shard=0, not_before=0.030)
    assert retries  # at least one survivor batch
    for retry in retries:
        expected = min(
            req.arrival_time + slo.budget_for(req.tenant)
            for req in retry.requests
        )
        assert retry.deadline == pytest.approx(expected)
        # The worker honours the stamp instead of re-deriving anything
        # from the (stale) flush window.
        assert server.pool._batch_deadline(retry) == pytest.approx(expected)
    tightest = min(r.deadline for r in retries)
    assert tightest == pytest.approx(0.010 + 0.050)


def test_batch_deadline_prefers_the_explicit_stamp():
    dk = DarKnightConfig(virtual_batch_size=4, seed=0)
    config = ServingConfig(darknight=dk, queue_capacity=64)
    server = PrivateInferenceServer(_tiny_net(), config)
    stamped = ScheduledBatch(
        batch_id=1, requests=[_pending(0, "t0", 0.0)], deadline=0.123
    )
    assert server.pool._batch_deadline(stamped) == pytest.approx(0.123)


def test_reroute_without_slo_leaves_deadline_unset():
    dk = DarKnightConfig(virtual_batch_size=4, seed=0, num_shards=2)
    server = PrivateInferenceServer(
        _tiny_net(), ServingConfig(darknight=dk, queue_capacity=64)
    )
    batch = ScheduledBatch(
        batch_id=1, requests=[_pending(0, "t0", 0.0)], shard_id=0
    )
    (retry,) = server.pool._reroute(batch, failed_shard=0, not_before=0.01)
    assert retry.deadline is None


# ----------------------------------------------------------------------
# telemetry: strict JSON, config surface
# ----------------------------------------------------------------------
def test_metrics_snapshot_is_strict_json_when_pool_never_drawn():
    """A precompute server that served nothing must still snapshot to
    strict JSON — no ``inf``/``NaN`` from empty pool or cache stats."""
    dk = DarKnightConfig(virtual_batch_size=4, seed=0)
    server = PrivateInferenceServer(
        _tiny_net(), ServingConfig(darknight=dk, queue_capacity=16, precompute=True)
    )
    report = server.serve_trace([])
    snap = report.metrics.snapshot()
    text = json.dumps(snap, allow_nan=False)
    parsed = json.loads(text)
    assert parsed["precompute"]["hit_rate"] is None
    assert parsed["precompute"]["weights_staged"] == 0


def test_precompute_report_line_renders_after_serving():
    trace = synthetic_trace(16, (16,), n_tenants=2, seed=1)
    _, report = _serve(True, trace)
    assert report.precompute is not None
    assert report.precompute["hit_rate"] is not None
    assert "precompute: pool hit rate" in report.render()
    json.dumps(report.metrics.snapshot(), allow_nan=False)


def test_serving_config_round_trips_precompute():
    config = ServingConfig(precompute=True)
    data = config.to_dict()
    assert data["precompute"] is True
    assert ServingConfig.from_dict(data).precompute is True
    assert ServingConfig.from_dict(ServingConfig().to_dict()).precompute is False
