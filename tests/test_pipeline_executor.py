"""Tests for the staged pipeline engine: encode/dispatch/decode scheduling.

Covers the load-bearing claims of the staged executor:

1. pipelined execution is *bit-identical* to the synchronous path at every
   depth (masking decodes exactly, so schedule order cannot change logits);
2. with a compute-heavy model, overlapping enclave encode/decode with GPU
   kernels shortens the simulated makespan;
3. encodings are released on every exit path — including aborts mid-network
   — and ``end_batch`` is idempotent;
4. the schedule keeps its bounds: depth 1 is the sum of enclave and GPU
   busy time, a full pipeline never beats the busier of the two, and the
   built-in rank puts feasibility first, then the tightest deadline.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, IntegrityError
from repro.fieldmath import PrimeField
from repro.gpu import GpuCluster, RandomTamper, TargetedTamper
from repro.masking import iter_virtual_batches
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.pipeline import EnclaveTimeline, PipelineExecutor, StageCostModel
from repro.runtime import DarKnightBackend, DarKnightConfig
from repro.runtime.inference import PrivateInferenceEngine


def _mixed_net(seed=0):
    """Conv + dense stack exercising offloaded and TEE-resident steps."""
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(2, 4, 3, 1, 1, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(4 * 4 * 4, 10, rng=rng),
            ReLU(),
            Dense(10, 4, rng=rng),
        ],
        (2, 8, 8),
    )


def _conv_heavy_net(seed=0, width=12, n_convs=4):
    """A conv stack big enough that GPU kernel time rivals encode/decode."""
    rng = np.random.default_rng(seed)
    layers = [Conv2D(4, width, 3, 1, 1, rng=rng), ReLU()]
    for _ in range(n_convs - 1):
        layers += [Conv2D(width, width, 3, 1, 1, rng=rng), ReLU()]
    layers += [Flatten(), Dense(width * 12 * 12, 4, rng=rng)]
    return Sequential(layers, (4, 12, 12))


def _backend(seed=11, **kwargs):
    return DarKnightBackend(
        DarKnightConfig(virtual_batch_size=4, seed=seed, **kwargs)
    )


# ----------------------------------------------------------------------
# bit-identity across depths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("depth", [1, 2, 4])
def test_pipelined_logits_bit_identical_to_sync(depth, nprng):
    net = _mixed_net()
    x = nprng.normal(size=(11, 2, 8, 8))  # padded tail at K=4

    sync = _backend()
    reference = net.forward(x, sync, training=False)
    sync.end_batch()

    backend = _backend()
    result = PipelineExecutor(net, backend, pipeline_depth=depth).run(x)
    backend.end_batch()
    assert np.array_equal(result.output, reference)
    assert result.stats.n_jobs == 3


def test_engine_run_batch_bit_identical_across_depths(nprng):
    net = _mixed_net()
    x = nprng.normal(size=(9, 2, 8, 8))
    sync = DarKnightBackend(DarKnightConfig(virtual_batch_size=4, seed=3))
    logits = [net.forward(x, sync, training=False)]
    sync.end_batch()
    for depth in (1, 2, 3):
        engine = PrivateInferenceEngine(
            net, DarKnightConfig(virtual_batch_size=4, seed=3, pipeline_depth=depth)
        )
        logits.append(engine.run_batch(x))
        engine.backend.assert_encodings_released()
    for other in logits[1:]:
        assert np.array_equal(logits[0], other)


def test_execution_plan_marks_offloaded_steps():
    net = _mixed_net()
    plan = net.execution_plan()
    assert [s.offloaded for s in plan] == [True, False, False, False, True, False, True]
    assert [s.index for s in plan] == list(range(7))
    assert plan[0].name == net.layers[0].name


# ----------------------------------------------------------------------
# overlap shortens the simulated makespan
# ----------------------------------------------------------------------
def test_pipeline_overlap_beats_synchronous_schedule(nprng):
    net = _conv_heavy_net()
    x = nprng.normal(size=(24, 4, 12, 12))  # 6 virtual batches at K=4
    # Price stages so one conv share's kernel rivals its encode+decode —
    # the balanced regime the paper's Fig. 7 overlap argument targets.
    costs = StageCostModel(stage_overhead=5e-5, gpu_mac_throughput=5e8)

    def makespan(depth):
        backend = _backend()
        result = PipelineExecutor(
            net, backend, pipeline_depth=depth, costs=costs
        ).run(x)
        backend.end_batch()
        return result.output, result.stats

    out_sync, sync_stats = makespan(1)
    out_pipe, pipe_stats = makespan(4)
    assert np.array_equal(out_sync, out_pipe)
    speedup = sync_stats.makespan / pipe_stats.makespan
    assert speedup > 1.5, f"pipelining speedup only {speedup:.2f}x"
    # Overlap shows up as higher utilization of both resources.
    assert pipe_stats.enclave_utilization > sync_stats.enclave_utilization
    assert pipe_stats.gpu_utilization > sync_stats.gpu_utilization


def test_depth_one_schedule_is_fully_serialized(nprng):
    """At depth 1 no two stage spans may overlap — the synchronous order."""
    net = _mixed_net()
    backend = _backend()
    result = PipelineExecutor(net, backend, pipeline_depth=1).run(
        nprng.normal(size=(8, 2, 8, 8))
    )
    backend.end_batch()
    spans = sorted(result.stats.spans, key=lambda s: s.start)
    for earlier, later in zip(spans, spans[1:]):
        assert later.start >= earlier.end - 1e-12


def test_batch_window_overlaps_consecutive_batches(nprng):
    """Batch n+1's encode starts before batch n's last decode lands."""
    net = _conv_heavy_net()
    costs = StageCostModel(gpu_mac_throughput=7e8)
    engine = PrivateInferenceEngine(
        net,
        DarKnightConfig(virtual_batch_size=4, seed=2, pipeline_depth=4),
        stage_costs=costs,
    )
    x1 = nprng.normal(size=(4, 4, 12, 12))
    x2 = nprng.normal(size=(4, 4, 12, 12))
    groups, stats = engine.run_batch_window([(x1, 0.0), (x2, 0.0)])
    first, second = groups
    assert second.start < first.finish  # cross-batch overlap
    assert second.finish > first.finish
    assert stats.n_jobs == 2
    # The window's logits match per-batch synchronous runs bit-exactly.
    reference_engine = PrivateInferenceEngine(
        net, DarKnightConfig(virtual_batch_size=4, seed=2)
    )
    assert np.array_equal(first.output, reference_engine.run_batch(x1))
    assert np.array_equal(second.output, reference_engine.run_batch(x2))


def test_executor_rejects_bad_depth_and_plain_backend(nprng):
    net = _mixed_net()
    with pytest.raises(ConfigurationError, match="pipeline depth"):
        PipelineExecutor(net, _backend(), pipeline_depth=0)
    from repro.nn import PlainBackend

    with pytest.raises(ConfigurationError, match="staged op"):
        PipelineExecutor(net, PlainBackend(), pipeline_depth=2)
    with pytest.raises(ConfigurationError, match="pipeline depth"):
        DarKnightConfig(pipeline_depth=0)


# ----------------------------------------------------------------------
# staged ops on partial (padded) virtual batches, forward and backward
# ----------------------------------------------------------------------
def test_staged_dense_forward_backward_bit_identical_on_padded_batch(nprng):
    x = nprng.normal(size=(6, 8))  # K=4 -> one full vb + a padded pair
    w = nprng.normal(size=(8, 3))
    delta = nprng.normal(size=(6, 3)) * 0.1

    sync = _backend(seed=21)
    out_sync = sync.dense_forward(x, w, None, key="d")
    grad_sync = sync.dense_grad_w(x, delta, key="d")
    sync.end_batch()

    staged = _backend(seed=21)
    op = staged.stage_linear("dense", w, None, "d")
    vbs = list(iter_virtual_batches(x, 4))
    # Encode everything up front, then dispatch and decode out of order —
    # the freedoms a pipeline scheduler actually exercises.
    tickets = [staged.encode(op, vb, i) for i, vb in enumerate(vbs)]
    futures = [staged.dispatch(t) for t in reversed(tickets)]
    decoded = {f.ticket.vb_index: staged.decode(f) for f in futures}
    out_staged = np.concatenate([decoded[i] for i in range(len(vbs))], axis=0)
    assert np.array_equal(out_staged, out_sync)

    grad_staged = staged.dense_grad_w(x, delta, key="d")
    staged.end_batch()
    assert np.array_equal(grad_staged, grad_sync)
    staged.assert_encodings_released()


def test_staged_conv_forward_backward_bit_identical_on_padded_batch(nprng):
    x = nprng.normal(size=(5, 2, 6, 6))
    w = nprng.normal(size=(3, 2, 3, 3)) * 0.5
    delta = nprng.normal(size=(5, 3, 6, 6)) * 0.1

    sync = _backend(seed=31)
    out_sync = sync.conv2d_forward(x, w, None, 1, 1, key="c")
    grad_sync = sync.conv2d_grad_w(x, delta, 3, 3, 1, 1, key="c")
    sync.end_batch()

    staged = _backend(seed=31)
    op = staged.stage_linear("conv2d", w, None, "c", stride=1, pad=1)
    vbs = list(iter_virtual_batches(x, 4))
    tickets = [staged.encode(op, vb, i) for i, vb in enumerate(vbs)]
    futures = [staged.dispatch(t) for t in tickets]
    decoded = [staged.decode(f) for f in reversed(futures)]
    out_staged = np.concatenate(list(reversed(decoded)), axis=0)
    assert np.array_equal(out_staged, out_sync)

    grad_staged = staged.conv2d_grad_w(x, delta, 3, 3, 1, 1, key="c")
    staged.end_batch()
    assert np.array_equal(grad_staged, grad_sync)


def test_padded_rows_never_leak_into_outputs(nprng):
    """Decoded outputs contain exactly the real rows, whatever the order."""
    backend = _backend(seed=41)
    x = nprng.normal(size=(3, 8))  # single partial vb (3 of 4 slots real)
    w = nprng.normal(size=(8, 5))
    op = backend.stage_linear("dense", w, None, "p")
    (vb,) = iter_virtual_batches(x, 4)
    assert vb.is_padded
    y = backend.decode(backend.dispatch(backend.encode(op, vb, 0)))
    backend.end_batch()
    assert y.shape == (3, 5)
    assert np.max(np.abs(y - x @ w)) < 0.05


def test_reforward_with_fewer_virtual_batches_resets_records(nprng):
    """Re-staging a layer drops the previous forward's records wholesale,
    so a smaller re-forward before end_batch keeps backward well-defined."""
    backend = _backend(seed=71)
    w = nprng.normal(size=(8, 3))
    x8 = nprng.normal(size=(8, 8))
    x4 = nprng.normal(size=(4, 8))
    backend.dense_forward(x8, w, None, key="d")  # 2 virtual batches
    backend.dense_forward(x4, w, None, key="d")  # re-forward with just 1
    assert backend.open_encodings() == 1
    delta = nprng.normal(size=(4, 3)) * 0.1
    grad = backend.dense_grad_w(x4, delta, key="d")
    backend.end_batch()
    backend.assert_encodings_released()  # the stale vb1 share was dropped too
    assert np.max(np.abs(grad - x4.T @ delta)) < 0.05


def test_residual_block_flattens_into_dag_plan(nprng):
    """ResidualBlock flattens into body/shortcut/join DAG steps: the inner
    conv becomes a first-class offloaded stage (it pipelines below block
    granularity) and outputs stay bit-identical to the synchronous path."""
    from repro.nn import BranchJoin, ResidualBlock

    rng = np.random.default_rng(9)
    net = Sequential(
        [
            Conv2D(2, 4, 3, 1, 1, rng=rng),
            ReLU(),
            ResidualBlock([Conv2D(4, 4, 3, 1, 1, rng=rng)]),
            Flatten(),
            Dense(4 * 8 * 8, 3, rng=rng),
        ],
        (2, 8, 8),
    )
    plan = net.execution_plan()
    # conv, relu, inner conv (offloaded!), join, flatten, dense
    assert [s.offloaded for s in plan] == [True, False, True, False, False, True]
    join = plan[3]
    assert isinstance(join.layer, BranchJoin)
    # The skip connection is an explicit DAG edge: the join consumes the
    # body output and the block entry (the ReLU at step 1).
    assert join.deps == (2, 1)
    x = nprng.normal(size=(8, 2, 8, 8))
    sync = _backend(seed=81)
    reference = net.forward(x, sync, training=False)
    sync.end_batch()

    backend = _backend(seed=81)
    result = PipelineExecutor(net, backend, pipeline_depth=2).run(x)
    backend.end_batch()
    backend.assert_encodings_released()
    assert np.array_equal(result.output, reference)
    # Every inner kernel is span-accounted now — no hidden blocking offload.
    assert result.stats.stage_totals["gpu"] > 0


# ----------------------------------------------------------------------
# end_batch idempotency + release on abort
# ----------------------------------------------------------------------
def test_end_batch_is_idempotent(nprng):
    backend = _backend(seed=51)
    x = nprng.normal(size=(4, 8))
    backend.dense_forward(x, nprng.normal(size=(8, 3)), None, key="d")
    assert backend.open_encodings() == 1
    step_before = backend._step
    backend.end_batch()
    assert backend._step == step_before + 1
    backend.end_batch()  # no-op: nothing stored, step must not advance
    backend.end_batch()
    assert backend._step == step_before + 1
    backend.assert_encodings_released()


def test_pipeline_abort_mid_network_releases_all_encodings(nprng):
    """A byzantine GPU killing layer 2 must not leak layer 1's shares."""
    field = PrimeField()
    cfg = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=6)
    # Honest on conv, tampering on the dense kernel: the pipeline aborts
    # after the first layer's encodings are already resident on devices.
    cluster = GpuCluster(
        field,
        cfg.n_gpus_required,
        fault_injectors={
            0: TargetedTamper(
                RandomTamper(field, probability=1.0, seed=7),
                target_op="dense_forward",
            )
        },
    )
    rng = np.random.default_rng(8)
    net = Sequential(
        [
            Conv2D(1, 2, 3, 1, 1, rng=rng),
            ReLU(),
            Flatten(),
            Dense(2 * 6 * 6, 3, rng=rng),
        ],
        (1, 6, 6),
    )
    for depth in (1, 3):
        backend = DarKnightBackend(
            dataclasses.replace(cfg, pipeline_depth=depth), cluster=cluster
        )
        engine = PrivateInferenceEngine(net, backend=backend)
        with pytest.raises(IntegrityError):
            engine.run_batch(nprng.normal(size=(4, 1, 6, 6)))
        # run_batch's finally already ran end_batch + the release assert;
        # re-check from the outside and confirm idempotency after abort.
        assert backend.open_encodings() == 0
        assert all(not dev.stored_shares for dev in cluster.devices)
        backend.end_batch()
        backend.assert_encodings_released()


def test_assert_encodings_released_detects_leaks(nprng):
    backend = _backend(seed=61)
    op = backend.stage_linear("dense", nprng.normal(size=(8, 3)), None, "d")
    (vb,) = iter_virtual_batches(nprng.normal(size=(4, 8)), 4)
    backend.encode(op, vb, 0)  # never dispatched or decoded
    assert backend.open_encodings() == 1
    with pytest.raises(Exception, match="not released"):
        backend.assert_encodings_released()
    backend.end_batch()  # must release the undispatched ticket's shares
    backend.assert_encodings_released()


def test_enclave_timeline_is_serialized():
    tl = EnclaveTimeline()
    s1, e1 = tl.reserve(0.0, 1.0)
    s2, e2 = tl.reserve(0.5, 1.0)  # wants 0.5, must wait for the lane
    assert (s1, e1) == (0.0, 1.0)
    assert (s2, e2) == (1.0, 2.0)
    assert tl.busy_time == 2.0


# ----------------------------------------------------------------------
# the built-in ranking key
# ----------------------------------------------------------------------
class _DeadlineBlindExecutor(PipelineExecutor):
    """The pre-SLO order: earliest start, decode-first, oldest job."""

    def _task_rank(self, job):
        start, _, kind, index = super()._task_rank(job)
        return (start, kind, index)


def test_deadline_ranker_bit_identical_and_reorders_the_schedule(nprng):
    """The tightest-deadline group's stages run first, yet decode the
    exact same values as the same window without deadlines."""
    net = _conv_heavy_net()
    costs = StageCostModel(gpu_mac_throughput=7e8)
    x1 = nprng.normal(size=(4, 4, 12, 12))
    x2 = nprng.normal(size=(4, 4, 12, 12))

    def run(deadline):
        backend = _backend(seed=7)
        executor = PipelineExecutor(net, backend, pipeline_depth=4, costs=costs)
        # Group 0 released first but budget-less; group 1 may carry a
        # tight deadline.
        groups, _ = executor.run_grouped([(x1, 0.0), (x2, 0.0, deadline)])
        backend.end_batch()
        return groups

    plain = run(math.inf)
    ranked = run(0.001)
    # Bit-identical decoded outputs, whatever the schedule did.
    for a, b in zip(plain, ranked):
        assert np.array_equal(a.output, b.output)
    # The deadline-carrying group finishes no later than without its
    # deadline (here strictly earlier: it runs first).
    assert ranked[1].finish <= plain[1].finish
    assert ranked[1].finish < ranked[0].finish
    assert plain[1].finish > plain[0].finish


def test_default_ranker_without_deadlines_matches_legacy_schedule(nprng):
    """2-tuple items and 3-tuple items with inf deadlines schedule the
    same spans as the deadline-blind pre-SLO order, at every depth."""
    net = _conv_heavy_net()
    costs = StageCostModel(gpu_mac_throughput=7e8)
    x1 = nprng.normal(size=(8, 4, 12, 12))
    x2 = nprng.normal(size=(4, 4, 12, 12))

    def spans(executor_cls, items, depth):
        backend = _backend(seed=5)
        executor = executor_cls(net, backend, pipeline_depth=depth, costs=costs)
        _, stats = executor.run_grouped(items)
        backend.end_batch()
        return [(s.job, s.layer, s.stage, s.start, s.end) for s in stats.spans]

    for depth in (1, 2, 4):
        legacy = spans(_DeadlineBlindExecutor, [(x1, 0.0), (x2, 1e-4)], depth)
        assert spans(PipelineExecutor, [(x1, 0.0), (x2, 1e-4)], depth) == legacy
        inf_items = [(x1, 0.0, math.inf), (x2, 1e-4, math.inf)]
        assert spans(PipelineExecutor, inf_items, depth) == legacy


def test_deadline_ranker_keeps_feasibility_primary():
    """A blocked tight-deadline job must not outrank runnable work — the
    serialized enclave never idles waiting for a premium GPU future."""
    executor = PipelineExecutor(_mixed_net(), _backend())  # free_at = 0
    blocked_premium = SimpleNamespace(
        future=SimpleNamespace(ready_at=5.0), ready_at=0.0, index=0, deadline=0.001
    )
    runnable_bulk = SimpleNamespace(
        future=None, ready_at=0.0, index=1, deadline=math.inf
    )
    runnable_premium = SimpleNamespace(
        future=None, ready_at=0.0, index=2, deadline=0.001
    )
    rank = executor._task_rank
    # Runnable work beats the blocked premium job...
    assert rank(runnable_bulk) < rank(blocked_premium)
    # ...and among equally-runnable tasks the tightest deadline wins.
    assert rank(runnable_premium) < rank(runnable_bulk)
    # Without deadlines, a ready decode goes before an encode.
    ready_decode = SimpleNamespace(
        future=SimpleNamespace(ready_at=0.0), ready_at=0.0, index=3, deadline=math.inf
    )
    assert rank(ready_decode) < rank(runnable_bulk)


# ----------------------------------------------------------------------
# schedule bounds: depth-1 sum, pipelined bottleneck, overlap-free lanes
# ----------------------------------------------------------------------
#: Balanced SGX-vs-GPU operating point: a conv share's kernel rivals its
#: encode+decode (the regime the paper's Fig. 7 overlap targets).
OVERLAP_COSTS = StageCostModel(stage_overhead=5e-5, gpu_mac_throughput=1e9)


def _vgg_style_net(seed=0, width=16):
    """Eight 3x3 conv layers in two VGG blocks plus a dense head."""
    rng = np.random.default_rng(seed)
    layers = [Conv2D(3, width, 3, 1, 1, rng=rng), ReLU()]
    for _ in range(3):
        layers += [Conv2D(width, width, 3, 1, 1, rng=rng), ReLU()]
    layers += [MaxPool2D(2)]
    for _ in range(4):
        layers += [Conv2D(width, width, 3, 1, 1, rng=rng), ReLU()]
    layers += [Flatten(), Dense(width * 8 * 8, 10, rng=rng)]
    return Sequential(layers, (3, 16, 16))


def _run_stats(net, n_batches, depth, costs, input_shape, seed=7):
    """Schedule ``n_batches`` virtual batches at ``depth``; output + stats."""
    x = np.random.default_rng(1).normal(size=(4 * n_batches,) + input_shape)
    backend = _backend(seed=seed)
    result = PipelineExecutor(net, backend, pipeline_depth=depth, costs=costs).run(x)
    backend.end_batch()
    backend.assert_encodings_released()
    return result.output, result.stats


def _assert_lanes_serialized(stats):
    """No two spans on the enclave lane (or on the GPU lane) overlap."""
    for resource in ("enclave", "gpu"):
        intervals = sorted(
            (s.start, s.end) for s in stats.spans if s.resource == resource
        )
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert start >= end - 1e-12, f"{resource} double-booked"


def _assert_stage_order(stats):
    """Each job's layer runs encode -> gpu -> decode, layers in order."""
    by_job: dict[int, list] = {}
    for span in stats.spans:
        by_job.setdefault(span.job, []).append(span)
    for job, spans in by_job.items():
        if job < 0:
            continue  # weight staging / pool refills belong to no job
        for before, after in zip(spans, spans[1:]):
            assert after.start >= before.end - 1e-12, (job, before, after)


def test_depth_one_makespan_is_enclave_plus_gpu_busy():
    """Depth 1 serializes everything: the makespan is the enclave's busy
    time plus the busiest GPU's (about 2.58 + 2.66 ms per virtual batch)."""
    net = _vgg_style_net()
    for n in (1, 3):
        _, stats = _run_stats(net, n, 1, OVERLAP_COSTS, (3, 16, 16))
        assert stats.makespan == pytest.approx(stats.enclave_busy + stats.gpu_busy)
        _assert_lanes_serialized(stats)


def test_pipelined_makespan_is_within_the_bottleneck_bound():
    """With every virtual batch in flight, the makespan never beats the
    busier resource and, from 6 batches on, stays within 1.3x of it."""
    net = _vgg_style_net()
    for n in (2, 6, 16):
        _, stats = _run_stats(net, n, n, OVERLAP_COSTS, (3, 16, 16))
        bound = max(stats.enclave_busy, stats.gpu_busy)
        assert stats.makespan >= bound - 1e-12
        if n >= 6:
            assert stats.makespan <= 1.3 * bound, (n, stats.makespan / bound)


def test_bottleneck_utilisation_approaches_one():
    """Adding virtual batches amortises the pipeline fill: per-batch
    makespan never grows, and by 16 batches the busier lane (the GPU at
    this operating point) is busy over 90% of the makespan."""
    net = _vgg_style_net()
    _, serial = _run_stats(net, 1, 1, OVERLAP_COSTS, (3, 16, 16))
    per_batch = [serial.makespan]
    for n in (2, 6, 16):
        _, stats = _run_stats(net, n, n, OVERLAP_COSTS, (3, 16, 16))
        assert stats.makespan / n <= per_batch[-1] + 1e-12
        per_batch.append(stats.makespan / n)
    assert stats.gpu_busy / stats.makespan > 0.9
    assert stats.enclave_busy / stats.makespan < stats.gpu_busy / stats.makespan


def test_pipelined_never_slower_than_depth_one():
    """A full-depth pipeline never takes longer than the serialized
    depth-1 schedule; with one virtual batch the two coincide."""
    net = _vgg_style_net()
    for n in (1, 2, 6, 16):
        _, serial = _run_stats(net, n, 1, OVERLAP_COSTS, (3, 16, 16))
        _, piped = _run_stats(net, n, n, OVERLAP_COSTS, (3, 16, 16))
        assert piped.makespan <= serial.makespan + 1e-12
        if n == 1:
            assert piped.makespan == pytest.approx(serial.makespan)


def test_enclave_and_gpu_spans_never_overlap():
    _, stats = _run_stats(_vgg_style_net(), 6, 6, OVERLAP_COSTS, (3, 16, 16))
    _assert_lanes_serialized(stats)


def test_stage_spans_respect_encode_gpu_decode_order():
    _, stats = _run_stats(_vgg_style_net(), 6, 6, OVERLAP_COSTS, (3, 16, 16))
    _assert_stage_order(stats)
    stages = [s.stage for s in stats.spans if s.job == 0]
    assert stages[:4] == ["encode", "gpu", "decode", "tee"]


@settings(max_examples=20, deadline=None)
@given(
    bandwidth=st.floats(1e8, 1e10),
    gpu_mac_throughput=st.floats(1e8, 1e10),
    stage_overhead=st.floats(0.0, 1e-3),
    gpu_launch_overhead=st.floats(0.0, 1e-3),
    maskgen_bandwidth=st.none() | st.floats(1e8, 1e10),
    n=st.integers(1, 4),
)
def test_schedule_invariants_hold_for_any_stage_costs(
    bandwidth, gpu_mac_throughput, stage_overhead, gpu_launch_overhead,
    maskgen_bandwidth, n,
):
    """For any stage pricing: depth 1 sums the two lanes, a full-depth
    pipeline never beats the busier lane, no lane is double-booked,
    stages keep their order, and the values never change."""
    costs = StageCostModel(
        encode_bandwidth=bandwidth,
        decode_bandwidth=bandwidth,
        tee_bandwidth=bandwidth,
        gpu_mac_throughput=gpu_mac_throughput,
        stage_overhead=stage_overhead,
        gpu_launch_overhead=gpu_launch_overhead,
        maskgen_bandwidth=maskgen_bandwidth,
    )
    net = _mixed_net()
    out_serial, serial = _run_stats(net, n, 1, costs, (2, 8, 8))
    out_piped, piped = _run_stats(net, n, n, costs, (2, 8, 8))
    assert np.array_equal(out_serial, out_piped)
    assert serial.makespan == pytest.approx(serial.enclave_busy + serial.gpu_busy)
    assert piped.makespan >= max(piped.enclave_busy, piped.gpu_busy) - 1e-12
    assert piped.makespan <= serial.makespan + 1e-12
    for stats in (serial, piped):
        _assert_lanes_serialized(stats)
        _assert_stage_order(stats)
