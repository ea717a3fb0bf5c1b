"""Self-tests for the benchmark's statistics and span recorder.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer  # noqa: E402


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


# ----------------------------------------------------------------------
# self time with nested spans
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def perf_counter_ns(self):
        return next(self._ticks)


def test_self_time_subtracts_direct_children(monkeypatch):
    # A [0, 100] holds B [10, 30] and C [40, 60]; C holds D [45, 50].
    monkeypatch.setattr(tracer, "time", _FakeClock([0, 10, 30, 40, 45, 50, 60, 100]))
    rec = tracer.SpanRecorder(active=True)
    a = rec.open("serving.serve_trace")
    b = rec.open("serving.scheduler.collect")
    rec.close(b)
    c = rec.open("serving.dispatch_window")
    d = rec.open("runtime.encode")
    rec.close(d)
    rec.close(c)
    rec.close(a)
    totals = rec.totals()
    assert totals["serving.serve_trace"].self_ns == 60
    assert totals["serving.serve_trace"].total_ns == 100
    assert totals["serving.scheduler.collect"].self_ns == 20
    assert totals["serving.dispatch_window"].self_ns == 15
    assert totals["runtime.encode"].self_ns == 5
    spans = rec.spans
    assert [s.parent for s in spans] == [-1, 0, 0, 2]
    # Only spans inside a dispatch window carry its id.
    assert [s.context for s in spans] == [-1, -1, 0, 0]
    events = rec.chrome_trace()["traceEvents"]
    assert [e["dur"] for e in events] == [0.1, 0.02, 0.02, 0.005]


def test_same_name_recursion_counts_each_call():
    rec = tracer.SpanRecorder(active=True)
    outer = rec.open("serving.dispatch_window")
    inner = rec.open("serving.dispatch_window")
    rec.close(inner)
    rec.close(outer)
    row = rec.totals()["serving.dispatch_window"]
    assert row.calls == 2
    assert row.self_ns <= row.total_ns
    assert {s.context for s in rec.spans} == {0}


def test_closing_out_of_order_is_an_error():
    rec = tracer.SpanRecorder(active=True)
    first = rec.open("runtime.encode")
    rec.open("runtime.decode")
    with pytest.raises(RuntimeError):
        rec.close(first)


# ----------------------------------------------------------------------
# installing and removing the wrappers
# ----------------------------------------------------------------------
def _snapshot():
    """Every attribute the tracer may replace, as stored on its owner."""
    snap = {}
    for targets in tracer.LAYERS.values():
        for module_name, qualname in targets:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                cls = getattr(module, cls_name)
                snap[(cls, attr)] = cls.__dict__[attr]
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "repro" or mod_name.startswith("repro.")):
            for key, value in vars(mod).items():
                if callable(value):
                    snap[(mod, key)] = value
    return snap


def test_install_then_uninstall_restores_every_attribute():
    for targets in tracer.LAYERS.values():
        for module_name, _ in targets:
            importlib.import_module(module_name)
    before = _snapshot()
    installation = tracer.install(tracer.SpanRecorder())
    during = _snapshot()
    changed = [key for key in before if during[key] is not before[key]]
    n_targets = sum(len(t) for t in tracer.LAYERS.values())
    assert len(changed) >= n_targets
    tracer.uninstall(installation)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_serve_records_nested_spans_and_same_outputs():
    from repro.cli import build_serving_model
    from repro.runtime import DarKnightConfig
    from repro.serving import PrivateInferenceServer, ServingConfig, synthetic_trace

    def serve():
        network, shape = build_serving_model("tiny", seed=0)
        server = PrivateInferenceServer(
            network, ServingConfig(darknight=DarKnightConfig(virtual_batch_size=4, seed=0))
        )
        report = server.serve_trace(synthetic_trace(12, shape, n_tenants=2, seed=3))
        return [o.logits for o in sorted(report.completed, key=lambda o: o.request_id)]

    plain = serve()
    recorder = tracer.SpanRecorder()
    installation = tracer.install(recorder)
    try:
        recorder.active = True
        traced = serve()
        recorder.active = False
    finally:
        tracer.uninstall(installation)
    assert len(plain) == len(traced) == 12
    assert all(np.array_equal(a, b) for a, b in zip(plain, traced))
    totals = recorder.totals()
    assert totals["serving.serve_trace"].calls == 1
    assert totals["serving.dispatch_window"].calls >= 1
    assert totals["runtime.encode"].calls >= 1
    for span in recorder.spans:
        if span.parent >= 0:
            parent = recorder.spans[span.parent]
            assert parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns
        if span.name.startswith("runtime."):
            assert span.context >= 0


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the runner reports
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    assert {w["name"]: w["why"] for w in spec["workloads"]}.items() <= {
        name: cls.why for name, cls in WORKLOADS.items()
    }.items()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == run.per_layer_metrics()
