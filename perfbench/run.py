"""Wall-clock end-to-end benchmark for the DarKnight reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload serve-integrity --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the unmodified program and reports the end-to-end
metrics; ``--trace 1`` additionally wraps every layer function listed in
``perfbench/tracer.py`` and reports per-layer call counts, self times and
program counters, plus the tracing overhead.  Either way the run checks
every output, prints human-readable tables, and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

It exits 1 if any correctness check fails and 2 if the program's sources
(``src/repro``) are not found under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

#: Timed set-ups per round (each replay adds one more).  Rounds spread
#: them over the run, so their median sees the run's average machine.
SETUPS_PER_ROUND = 25
#: Fewest replays per run: two, so the run can compare them bit for bit.
MIN_REPLAYS = 2
#: Fewest wall-clock window/step samples per run, so that p90 has at
#: least ten samples beyond it.
MIN_STEP_SAMPLES = 100
#: Percentiles the tail rule picks from.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: The reference kernel's median wall time on the machine the benchmark
#: was tuned on (2-core Xeon, OpenBLAS).  ``norm_`` metrics and
#: ``setup_s`` are scaled to that speed: value x nominal / measured.
REF_NOMINAL_MS = 0.7

#: ``name -> (unit, better)`` for the end-to-end metrics, in report order.
#: Times are wall-clock, scaled to the nominal reference speed; the human
#: table also prints them unscaled.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "norm_throughput_per_s": ("1/s", "higher"),
    "norm_step_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Program counters read from public telemetry after each replay, and
#: the simulated-clock metrics, reported in traced runs:
#: ``name -> (unit, better)``.  ``gpu.mac_ops`` and ``gpu.bytes_moved``
#: come from the simulated devices, which compute them from tensor sizes.
COUNTERS = {
    "masking.tamper_rejected": ("count", "higher"),
    "gpu.mac_ops": ("count", "lower"),
    "gpu.bytes_moved": ("bytes", "lower"),
    "audit.leaves": ("count", "lower"),
    "audit.bytes": ("bytes", "lower"),
    "precompute.hit_rate": ("ratio", "higher"),
    "precompute.weights_reused": ("count", "higher"),
    "serving.batch_fill_ratio": ("ratio", "higher"),
    "serving.window_useful_ratio": ("ratio", "higher"),
    "serving.scale_events": ("count", "lower"),
    "serving.session_handshakes": ("count", "lower"),
    "comm.link_bytes": ("bytes", "lower"),
}
SIM_METRICS = {
    "sim_latency_p50_ms": ("ms", "lower"),
    "sim_latency_p99_ms": ("ms", "lower"),
    "sim_shard_seconds": ("shard-s", "lower"),
    "sim_slo_attainment": ("ratio", "higher"),
    "sim_queue_wait_p99_ms": ("ms", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric a traced run reports: ``name -> (unit, better)``."""
    from tracer import LAYERS
    from workloads import SIM_STAGES

    out: dict[str, tuple[str, str]] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_ms"] = ("ms", "lower")
    out["sharding.hop_bytes"] = ("bytes", "lower")
    out.update(COUNTERS)
    for name, spec in SIM_METRICS.items():
        out[f"serving.{name}"] = spec
    for stage in SIM_STAGES:
        out[f"pipeline.sim_stage.{stage}_s"] = ("s", "lower")
    out["bench.trace_overhead_ratio"] = ("ratio", "lower")
    return out


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail_percentile(n: int) -> float | None:
    """The highest of :data:`PERCENTILES` with at least ten samples beyond it."""
    best = None
    for q in PERCENTILES:
        if round(n * (100.0 - q) / 100.0, 6) >= 10:
            best = q
    return best


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _cap_blas_threads() -> None:
    """Cap every BLAS pool at ``nproc``; must run before NumPy loads."""
    cap = os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cap:
            os.environ[var] = str(cap)


def _timed_setup(workload, setups: list[float]):
    start = time.perf_counter()
    handle = workload.setup()
    setups.append(time.perf_counter() - start)
    return handle


def _traced_replay(workload, setups, recorder, tracer):
    installation = tracer.install(recorder)
    try:
        handle = _timed_setup(workload, setups)
        recorder.reset()
        recorder.active = True
        try:
            replay = workload.replay(handle)
        finally:
            recorder.active = False
    finally:
        tracer.uninstall(installation)
    return replay, recorder.totals()


def run(args, out_dir: Path) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and report lines."""
    import tracer
    from workloads import WORKLOADS, ReferenceClock, percentile

    workload = WORKLOADS[args.workload](args.seed, out_dir / f"work-{os.getpid()}")
    ref = ReferenceClock()
    recorder = tracer.SpanRecorder()
    setups: list[float] = []
    plain, traced, layer_rows = [], [], []
    trace_doc = None
    start = time.perf_counter()
    try:
        while True:
            for _ in range(SETUPS_PER_ROUND):
                ref.tick()
                _timed_setup(workload, setups)
            plain.append(workload.replay(_timed_setup(workload, setups), ref.tick))
            if args.trace:
                replay, totals = _traced_replay(workload, setups, recorder, tracer)
                traced.append(replay)
                layer_rows.append(totals)
                if trace_doc is None:
                    trace_doc = recorder.chrome_trace()
                recorder.reset()
            # Stop when another round would end further past the deadline
            # than this one ends before it.
            elapsed = time.perf_counter() - start
            rounds = len(plain)
            samples = sum(len(r.steps_ms) for r in plain)
            if (
                elapsed + 0.5 * elapsed / rounds >= args.seconds
                and rounds >= MIN_REPLAYS
                and samples >= MIN_STEP_SAMPLES
            ):
                break
    finally:
        workload.teardown()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    replays = plain + traced
    first = replays[0]
    problems = [p for r in replays for p in r.problems]
    for r in replays[1:]:
        if r.digest != first.digest:
            problems.append(f"output digest changed between replays: {r.digest} != {first.digest}")
        if r.sim != first.sim:
            problems.append("simulated metrics changed between replays of one input")
    attempted = sum(r.attempted for r in replays)
    failed = sum(r.failed for r in replays)

    ref_ms = ref.median_ms()
    scale = REF_NOMINAL_MS / ref_ms
    steps = [ms for r in plain for ms in r.steps_ms]
    raw = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": sum(r.items for r in plain) / sum(r.wall_s for r in plain),
        "step_p50_ms": percentile(steps, 50),
    }
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "norm_throughput_per_s": raw["throughput_per_s"] / scale,
        "norm_step_p50_ms": raw["step_p50_ms"] * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
        f"  trace {args.trace}  replays {len(plain)} untraced, {len(traced)} traced"
        f"  blas threads {os.environ.get('OPENBLAS_NUM_THREADS')}  processes 1",
        f"why: {workload.why}",
        f"output sha256 (completed outputs by request id, or losses + weights): {first.digest}",
        f"reference kernel: median {ref_ms:.4f} ms over {len(ref.samples_ns)} samples,"
        f" nominal {REF_NOMINAL_MS} ms, scale {scale:.4f}",
    ]
    lines += _summary_lines(metrics, raw, steps, setups, first, failed, attempted)
    if args.trace:
        metrics, layer_lines = _per_layer(plain, traced, layer_rows, first, scale)
        lines += layer_lines
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(trace_doc, allow_nan=False))
        lines.append(f"chrome trace of the first traced replay: {path}")
    if problems:
        lines.append(f"CORRECTNESS FAILED ({len(problems)} problems):")
        lines += [f"  {p}" for p in problems[:20]]
    specs = per_layer_metrics() if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": specs[name][0]} for name, value in metrics.items()
        },
    }
    return result, lines


def _summary_lines(metrics, raw, steps, setups, first, failed, attempted):
    """Every end-to-end metric by name, with ``n/a`` where one does not
    apply to the workload, then the scaled metrics the JSON line carries."""
    from workloads import percentile
    serving = bool(first.sim)
    tail = tail_percentile(len(steps))
    unit = "windows" if serving else "steps"

    def only(flag, value):
        return value if flag else None

    rows = [
        ("setup_s (wall)", "s", raw["setup_s"], f"median of {len(setups)} set-ups"),
        ("serve_wall_rps", "1/s", only(serving, raw["throughput_per_s"]), ""),
        ("window_wall_p50_ms", "ms", only(serving, raw["step_p50_ms"]), f"{len(steps)} {unit}"),
        ("window_wall_p95_ms", "ms", only(serving, percentile(steps, 95)), f"{len(steps)} {unit}"),
        ("sim_latency_p50_ms", "ms", first.sim.get("sim_latency_p50_ms"), "simulated clock"),
        ("sim_latency_p99_ms", "ms", first.sim.get("sim_latency_p99_ms"), "simulated clock"),
        ("sim_shard_seconds", "shard-s", first.sim.get("sim_shard_seconds"), "simulated clock"),
        ("sim_slo_attainment", "ratio", first.sim.get("sim_slo_attainment"),
         "met budget / attempted"),
        ("train_samples_per_s", "1/s", only(not serving, raw["throughput_per_s"]), ""),
        ("train_step_p50_ms", "ms", only(not serving, raw["step_p50_ms"]), f"{len(steps)} {unit}"),
        ("error_rate", "ratio", failed / attempted, f"{failed} failed / {attempted} attempted"),
        ("peak_rss_mb", "MB", metrics["peak_rss_mb"], "ru_maxrss of this process"),
        (f"step_wall_p{tail:g}_ms" if tail else "step_wall_tail_ms", "ms",
         percentile(steps, tail) if tail else None,
         f"highest percentile with >= 10 of {len(steps)} {unit} beyond it"),
    ]
    rows += [(name, END_TO_END[name][0], value, "JSON metric, scaled to nominal speed")
             for name, value in metrics.items() if name != "peak_rss_mb"]
    lines = ["", f"{'metric':<24}{'value':>16}  {'unit':<8} note"]
    for name, unit_name, value, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{name:<24}{shown:>16}  {unit_name:<8} {note if value is not None else ''}")
    return lines


def _per_layer(plain, traced, layer_rows, first, scale):
    """Per-layer metrics from the traced replays, per replay of the input.

    Calls and counters come from one replay (they repeat exactly); self
    times are the median over traced replays, scaled like the end-to-end
    times.
    """
    from tracer import LAYERS
    from workloads import SIM_STAGES

    out: dict[str, float] = {}
    for name in LAYERS:
        rows = [t.get(name) for t in layer_rows]
        out[f"{name}.calls"] = rows[0].calls if rows[0] else 0
        out[f"{name}.self_ms"] = scale * statistics.median(
            (r.self_ns if r else 0) / 1e6 for r in rows
        )
    seal = layer_rows[0].get("sharding.seal")
    out["sharding.hop_bytes"] = seal.nbytes if seal else 0
    for name in COUNTERS:
        out[name] = first.counters.get(name, 0)
    for name in SIM_METRICS:
        out[f"serving.{name}"] = first.sim.get(name, 0.0)
    for stage in SIM_STAGES:
        out[f"pipeline.sim_stage.{stage}_s"] = first.sim_stages.get(stage, 0.0)
    rate_plain = sum(r.items for r in plain) / sum(r.wall_s for r in plain)
    rate_traced = sum(r.items for r in traced) / sum(r.wall_s for r in traced)
    out["bench.trace_overhead_ratio"] = rate_plain / rate_traced

    lines = ["", f"{'layer function':<36}{'calls':>10}{'self ms':>12}"]
    for name in LAYERS:
        lines.append(f"{name:<36}{out[name + '.calls']:>10}{out[name + '.self_ms']:>12.2f}")
    lines += ["", f"{'counter':<36}{'value':>16}"]
    for name in ["sharding.hop_bytes", *COUNTERS]:
        lines.append(f"{name:<36}{out[name]:>16.6g}")
    lines.append(
        f"tracing overhead: untraced {rate_plain:.4g}/s vs traced {rate_traced:.4g}/s"
        f" (ratio {out['bench.trace_overhead_ratio']:.3f})"
    )
    if first.sim_stages:
        lines += _sim_vs_wall(first, layer_rows)
    return out, lines


#: Wall spans matching each simulated stage: ``stage -> [(span, part)]``
#: where part is ``total`` (inclusive) or ``self``.  The enclave's
#: nonlinear work (``tee``) runs inline in the executor, so it is the
#: executor's own time outside its child spans.
STAGE_SPANS = {
    "encode": [("runtime.encode", "total")],
    "gpu": [("runtime.dispatch", "total")],
    "decode": [("runtime.decode", "total")],
    "tee": [("pipeline.run_grouped", "self")],
    "transfer": [("sharding.seal", "total"), ("sharding.open", "total")],
    "precompute": [("precompute.refill", "total")],
    "stage_weights": [("runtime.stage_linear", "total")],
}


def _sim_vs_wall(first, layer_rows) -> list[str]:
    lines = [
        "",
        "simulated vs wall seconds per stage (one replay; wall = median of traced replays)",
        f"{'stage':<16}{'sim s':>12}{'wall s':>12}{'wall/sim':>10}  wall spans",
    ]
    for stage, spans in STAGE_SPANS.items():
        walls = []
        for totals in layer_rows:
            ns = 0
            for span, part in spans:
                row = totals.get(span)
                if row is not None:
                    ns += row.total_ns if part == "total" else row.self_ns
            walls.append(ns / 1e9)
        sim = first.sim_stages.get(stage, 0.0)
        wall = statistics.median(walls)
        ratio = f"{wall / sim:.2f}" if sim > 0 else "-"
        names = " + ".join(f"{s} ({p})" for s, p in spans)
        lines.append(f"{stage:<16}{sim:>12.4f}{wall:>12.4f}{ratio:>10}  {names}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} ({', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    result, lines = run(args, out_dir)
    text = json.dumps(result, allow_nan=False)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(text + "\n")
    print("\n".join(lines))
    print(text)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
