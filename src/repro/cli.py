"""Command-line entry points for ``python -m repro``.

Three subcommands:

* ``report`` (the default) — regenerate the paper's evaluation tables;
* ``serve`` — drive the multi-tenant private-inference server over a
  synthetic offline request trace (no network dependency) and print the
  serving metrics; ``--audit-log DIR`` additionally commits every flush
  window to the verifiable audit trail, ``--config FILE_OR_PRESET``
  loads a whole :class:`~repro.serving.ServingConfig` (JSON file or
  named preset) in one flag, and ``--autoscale`` serves elastically
  (live shard provision/decommission with drain-before-kill);
* ``audit`` — query a recorded trail: ``prove`` a request's inclusion,
  ``verify`` a proof offline against a published chain head, ``replay``
  a disputed window deterministically, ``check-chain`` walk the logs.

Unknown leading arguments fall through to ``report`` so the module also
runs cleanly under harnesses that own ``sys.argv`` (e.g. pytest's smoke
test imports and runs it with pytest's own flags still in ``argv``).
"""

from __future__ import annotations

import argparse
import runpy
import sys
from pathlib import Path

import numpy as np


def parse_seed_flag(argv: list[str] | None = None, default: int = 0) -> int:
    """Extract a ``--seed N`` / ``--seed=N`` flag from an argv-style list.

    Shared by the examples so every script in ``examples/`` is
    deterministic and re-seedable, while tolerating foreign flags (the
    example smoke tests run them under pytest's argv).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    for i, arg in enumerate(argv):
        value = None
        if arg == "--seed" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--seed="):
            value = arg.split("=", 1)[1]
        if value is not None:
            try:
                return int(value)
            except ValueError:
                return default
    return default


# ----------------------------------------------------------------------
# models the serve subcommand can load
# ----------------------------------------------------------------------
def build_serving_model(name: str, seed: int = 0):
    """Build a named model for serving; returns ``(network, input_shape)``.

    ``tiny`` is a dense head small enough for smoke tests and CI;
    ``mini-vgg`` exercises the full conv path; ``mini-resnet`` adds
    residual blocks — the deep plan layered partitioning wants.
    """
    from repro.errors import ConfigurationError
    from repro.models import build_mini_resnet, build_mini_vgg
    from repro.nn import Sequential
    from repro.nn.layers import Dense, ReLU

    rng = np.random.default_rng(seed)
    if name == "tiny":
        input_shape = (16,)
        network = Sequential(
            [Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], input_shape
        )
        return network, input_shape
    if name == "mini-vgg":
        input_shape = (3, 8, 8)
        network = build_mini_vgg(
            input_shape=input_shape, n_classes=10, rng=rng, width=8
        )
        return network, input_shape
    if name == "mini-resnet":
        input_shape = (3, 8, 8)
        network = build_mini_resnet(
            input_shape=input_shape, n_classes=10, rng=rng, width=8
        )
        return network, input_shape
    raise ConfigurationError(
        f"unknown serving model {name!r} (tiny | mini-vgg | mini-resnet)"
    )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def run_report() -> int:
    """Regenerate the paper's evaluation as a text report."""
    report = Path(__file__).resolve().parent.parent.parent / "examples" / "paper_report.py"
    if report.exists():
        runpy.run_path(str(report), run_name="__main__")
        return 0
    # Installed without the examples tree: fall back to the harnesses.
    from repro.perf import headline_speedups, table1_rows
    from repro.reporting import render_table

    rows = table1_rows()
    print(
        render_table(
            ["Operations", "Linear", "Maxpool", "Relu", "Total"],
            [
                [r["operation"]] + [f"{r[k]:.2f}x" for k in ("linear", "maxpool", "relu", "total")]
                for r in rows
            ],
            title="Table 1 — GPU speedup over SGX (VGG16, ImageNet)",
        )
    )
    headline = headline_speedups()
    print(
        f"\nheadline: training {headline['training_speedup_avg']:.1f}x,"
        f" inference {headline['inference_speedup_avg']:.1f}x"
    )
    return 0


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve a synthetic multi-tenant inference trace privately.",
    )
    parser.add_argument(
        "--model", default="tiny", help="tiny | mini-vgg | mini-resnet"
    )
    parser.add_argument("--requests", type=int, default=64, help="trace length")
    parser.add_argument("--tenants", type=int, default=4, help="distinct tenants")
    parser.add_argument(
        "--rate", type=float, default=1000.0, help="offered load, requests/second"
    )
    parser.add_argument(
        "--config", default=None, metavar="FILE_OR_PRESET",
        help="load a full ServingConfig from a JSON file"
             " (ServingConfig.to_dict layout) or a named preset"
             " (latency | throughput | audited); the per-field flags below"
             " cannot be combined with it (--seed and the autoscale knobs"
             " can)",
    )
    parser.add_argument(
        "--virtual-batch", type=int, default=None,
        help="K — coalescing target (default 4)",
    )
    parser.add_argument(
        "--batch-wait", type=float, default=None,
        help="max seconds a request waits before a partial batch flushes"
             " (default 0.01)",
    )
    parser.add_argument(
        "--adaptive-batching", action="store_true",
        help="learn each shard's flush deadline from observed arrivals and"
             " pipeline timings, and cap K against the enclave's EPC budget"
             " (--batch-wait becomes the deadline ceiling)",
    )
    parser.add_argument(
        "--target-fill", type=float, default=None,
        help="fill ratio adaptive deadline flushes aim for, default 0.85"
             " (requires --adaptive-batching)",
    )
    parser.add_argument(
        "--epc-budget", type=int, default=None,
        help="usable EPC bytes each enclave models (default: the paper"
             " generation's ~93 MB); adaptive batching sizes K against it"
             " (requires --adaptive-batching)",
    )
    parser.add_argument(
        "--pipeline-depth", type=int, default=None,
        help="virtual batches kept in flight by the staged executor"
             " (1 = synchronous, the default; >= 2 overlaps enclave encode"
             " with GPU compute)",
    )
    parser.add_argument(
        "--slo-budget", action="append", default=None, metavar="CLASS=MS",
        help="define an SLO class with an end-to-end latency budget in"
             " milliseconds (repeatable, e.g. --slo-budget premium=5);"
             " tighter budgets get higher admission priority and the"
             " pipeline executor runs their windows first",
    )
    parser.add_argument(
        "--slo-class", action="append", default=None, metavar="TENANT=CLASS",
        help="assign a tenant to an SLO class defined with --slo-budget"
             " (repeatable, e.g. --slo-class tenant0=premium); unassigned"
             " tenants keep the budget-less default class",
    )
    parser.add_argument(
        "--num-shards", type=int, default=None,
        help="enclave shards tenants are partitioned across (each shard is"
             " its own enclave + GPU cluster on a parallel timeline;"
             " default 1 — with --autoscale this is only the initial count)",
    )
    parser.add_argument(
        "--partition", default=None, metavar="MODE",
        help="shard topology: 'replicated' (every shard runs the whole"
             " model, the default) or 'layered:N' (cut the execution plan"
             " into N contiguous stages; shards chain into pipeline groups"
             " of N, handing sealed activations over attested channels;"
             " logits stay bit-identical to replicated)",
    )
    parser.add_argument(
        "--autoscale", action="store_true",
        help="elastically provision/decommission shards at runtime from"
             " queue-depth and utilization signals (drain-before-kill;"
             " logits stay bit-identical at any membership history)",
    )
    parser.add_argument(
        "--min-shards", type=int, default=None,
        help="autoscaler floor on live shards (requires --autoscale;"
             " default 1)",
    )
    parser.add_argument(
        "--max-shards", type=int, default=None,
        help="autoscaler ceiling on live shards (requires --autoscale;"
             " default 4)",
    )
    parser.add_argument(
        "--target-utilization", type=float, default=None,
        help="utilization above which the autoscaler scales out"
             " (requires --autoscale; default 0.85)",
    )
    parser.add_argument(
        "--gpus", type=int, default=None,
        help="total simulated-GPU budget across all shards (default: exactly"
             " what the configuration needs); serving refuses to start when"
             " the shards would not fit",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=None,
        help="bounded queue size (default 256)",
    )
    parser.add_argument(
        "--integrity", action="store_true",
        help="add the redundant share and verify every GPU result",
    )
    parser.add_argument(
        "--per-request", action="store_true",
        help="disable coalescing (dispatch each request alone; baseline)",
    )
    parser.add_argument(
        "--audit-log", default=None, metavar="DIR",
        help="enable the verifiable audit trail: commit every flush window"
             " to per-shard hash-chained Merkle logs under DIR (plus a"
             " manifest for deterministic replay); query them afterwards"
             " with 'python -m repro audit'",
    )
    parser.add_argument(
        "--precompute", action="store_true",
        help="offline/online split: pregenerate mask streams in enclave"
             " idle gaps, cache weight encodings across flush windows, and"
             " recycle hot-path buffers; responses stay bit-identical to a"
             " run without the flag",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="determinism seed (default 0)"
    )
    return parser


def run_serve(argv: list[str]) -> int:
    """``python -m repro serve ...`` — offline trace driver."""
    from repro.errors import ReproError

    args = _serve_parser().parse_args(argv)
    try:
        return _serve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_kv_flags(pairs: list[str] | None, flag: str) -> dict[str, str]:
    """Parse repeated ``key=value`` flag occurrences into a dict."""
    from repro.errors import ConfigurationError

    out: dict[str, str] = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise ConfigurationError(
                f"{flag} expects key=value, got {pair!r}"
            )
        out[key] = value
    return out


def _build_slo(args):
    """Build the SLO policy from --slo-budget / --slo-class flags."""
    from repro.errors import ConfigurationError
    from repro.serving import build_slo_policy

    if args.slo_budget is None and args.slo_class is None:
        return None
    budgets = {}
    for name, ms in _parse_kv_flags(args.slo_budget, "--slo-budget").items():
        try:
            budgets[name] = float(ms) / 1e3
        except ValueError:
            raise ConfigurationError(
                f"--slo-budget {name}={ms!r}: budget must be a number of"
                " milliseconds"
            ) from None
    assignments = _parse_kv_flags(args.slo_class, "--slo-class")
    return build_slo_policy(budgets, assignments)


def _load_serving_config(spec: str):
    """Resolve ``--config``: a preset name or a ServingConfig JSON file."""
    import json

    from repro.errors import ConfigurationError
    from repro.serving import PRESETS, ServingConfig

    if spec in PRESETS:
        return ServingConfig.preset(spec)
    path = Path(spec)
    if not path.exists():
        raise ConfigurationError(
            f"--config {spec!r} is neither a preset"
            f" ({', '.join(PRESETS)}) nor an existing JSON file"
        )
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"--config {spec}: not valid JSON ({exc})"
        ) from exc
    return ServingConfig.from_dict(data)


# Per-field serve flags.  A --config file already fixes every one of
# them, so combining the two is an error rather than a silent merge.
_SUPERSEDED_FLAGS = (
    ("--virtual-batch", "virtual_batch"),
    ("--batch-wait", "batch_wait"),
    ("--pipeline-depth", "pipeline_depth"),
    ("--num-shards", "num_shards"),
    ("--partition", "partition"),
    ("--queue-capacity", "queue_capacity"),
    ("--epc-budget", "epc_budget"),
    ("--target-fill", "target_fill"),
    ("--integrity", "integrity"),
    ("--per-request", "per_request"),
    ("--adaptive-batching", "adaptive_batching"),
    ("--audit-log", "audit_log"),
    ("--precompute", "precompute"),
    ("--slo-budget", "slo_budget"),
    ("--slo-class", "slo_class"),
)


def _given(values: dict) -> dict:
    """Drop the flags left at ``None`` so the config defaults apply."""
    return {key: value for key, value in values.items() if value is not None}


def _config_from_flags(args):
    """Build the ServingConfig the per-field serve flags describe."""
    from repro.errors import ConfigurationError
    from repro.runtime.config import DarKnightConfig
    from repro.serving import AdaptiveBatchingConfig, AuditConfig, ServingConfig

    if args.pipeline_depth is not None and args.pipeline_depth < 1:
        raise ConfigurationError(
            f"--pipeline-depth must be >= 1, got {args.pipeline_depth}"
        )
    if args.num_shards is not None and args.num_shards < 1:
        raise ConfigurationError(
            f"--num-shards must be >= 1, got {args.num_shards}"
        )
    if args.target_fill is not None and not args.adaptive_batching:
        raise ConfigurationError(
            "--target-fill only applies with --adaptive-batching"
        )
    if args.epc_budget is not None and not args.adaptive_batching:
        raise ConfigurationError(
            "--epc-budget only applies with --adaptive-batching"
        )
    adaptive = (
        AdaptiveBatchingConfig(**_given({"target_fill": args.target_fill}))
        if args.adaptive_batching
        else None
    )
    darknight = DarKnightConfig(
        integrity=args.integrity,
        **_given(
            {
                "virtual_batch_size": args.virtual_batch,
                "pipeline_depth": args.pipeline_depth,
                "num_shards": args.num_shards,
                "epc_budget_bytes": args.epc_budget,
            }
        ),
    )
    audit = (
        AuditConfig(log_dir=args.audit_log, model=args.model)
        if args.audit_log is not None
        else None
    )
    return ServingConfig(
        darknight=darknight,
        coalesce=not args.per_request,
        adaptive=adaptive,
        slo=_build_slo(args),
        audit=audit,
        precompute=args.precompute,
        **_given(
            {
                "max_batch_wait": args.batch_wait,
                "queue_capacity": args.queue_capacity,
                "partition": args.partition,
            }
        ),
    )


def _serve(args) -> int:
    import dataclasses

    from repro.errors import ConfigurationError
    from repro.serving import (
        AutoscaleConfig,
        PrivateInferenceServer,
        synthetic_trace,
    )

    if args.rate <= 0:
        raise ConfigurationError(f"--rate must be > 0, got {args.rate}")
    if args.config is not None:
        used = [
            flag
            for flag, dest in _SUPERSEDED_FLAGS
            if getattr(args, dest) not in (None, False)
        ]
        if used:
            raise ConfigurationError(
                f"{', '.join(used)} cannot be combined with --config:"
                " set the field in the config file instead"
            )
        config = _load_serving_config(args.config)
    else:
        config = _config_from_flags(args)

    autoscale = config.autoscale
    tuning = (
        args.min_shards is not None
        or args.max_shards is not None
        or args.target_utilization is not None
    )
    if tuning and not args.autoscale and autoscale is None:
        raise ConfigurationError(
            "--min-shards/--max-shards/--target-utilization only apply with"
            " --autoscale (or a config file with an autoscale section)"
        )
    if args.autoscale or tuning:
        knobs = _given(
            {
                "min_shards": args.min_shards,
                "max_shards": args.max_shards,
                "utilization_high": args.target_utilization,
            }
        )
        autoscale = (
            dataclasses.replace(autoscale, **knobs)
            if autoscale is not None
            else AutoscaleConfig(**knobs)
        )

    seed = args.seed if args.seed is not None else config.darknight.seed
    if seed is None:
        seed = 0
    dk = dataclasses.replace(config.darknight, seed=seed)
    config = dataclasses.replace(config, darknight=dk, autoscale=autoscale)
    num_shards = dk.num_shards
    gpus_needed = num_shards * dk.n_gpus_required
    if args.gpus is not None and args.gpus < gpus_needed:
        raise ConfigurationError(
            f"--gpus {args.gpus} cannot host {num_shards} shard(s): each"
            f" shard needs K + M{' + 1 (integrity)' if dk.integrity else ''}"
            f" = {dk.n_gpus_required} simulated GPUs, {gpus_needed} total;"
            " raise --gpus or lower --num-shards / --virtual-batch"
        )
    network, input_shape = build_serving_model(args.model, seed=seed)
    trace = synthetic_trace(
        n_requests=args.requests,
        input_shape=input_shape,
        n_tenants=args.tenants,
        mean_interarrival=1.0 / args.rate,
        seed=seed,
    )
    server = PrivateInferenceServer(network, config)
    report = server.serve_trace(trace)
    if not config.coalesce:
        mode = "per-request"
    elif config.adaptive is not None:
        mode = (
            f"adaptive K={server.darknight.virtual_batch_size}"
            f" (requested {dk.virtual_batch_size})"
        )
    else:
        mode = f"coalesced K={dk.virtual_batch_size}"
    if autoscale is not None:
        initial = min(max(num_shards, autoscale.min_shards), autoscale.max_shards)
        shard_desc = (
            f"elastic {autoscale.min_shards}-{autoscale.max_shards} shard(s),"
            f" started at {initial}"
        )
    else:
        shard_desc = f"{num_shards} shard(s)"
    print(
        f"served {args.requests} requests from {args.tenants} tenants"
        f" ({mode}, integrity={'on' if dk.integrity else 'off'},"
        f" pipeline depth {dk.pipeline_depth},"
        f" {shard_desc})"
    )
    if config.slo is not None:
        classes = ", ".join(
            f"{row['name']}"
            + (
                f"={row['latency_budget'] * 1e3:.1f}ms"
                if row["latency_budget"] is not None
                else " (no budget)"
            )
            + (f" <- {', '.join(row['tenants'])}" if row["tenants"] else "")
            for row in config.slo.class_table()
        )
        print(f"SLO classes: {classes}")
    print(report.render())
    audit = config.audit
    if audit is not None and audit.log_dir is not None:
        print(
            f"audit: {server.metrics.audit_windows} windows"
            f" ({server.metrics.audit_leaves} leaves,"
            f" {server.metrics.audit_bytes:,} bytes) committed to"
            f" {audit.log_dir}"
        )
    return 0


# ----------------------------------------------------------------------
# the audit subcommand
# ----------------------------------------------------------------------
def _audit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro audit",
        description="Query a serving run's verifiable audit trail.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    prove = sub.add_parser(
        "prove", help="extract a request's offline-verifiable inclusion proof"
    )
    prove.add_argument("--log-dir", required=True, help="audit directory")
    prove.add_argument("--request-id", type=int, required=True)
    prove.add_argument(
        "--out", default=None, help="write the proof JSON here (default: stdout)"
    )
    verify = sub.add_parser(
        "verify", help="verify a proof file against a shard chain head"
    )
    verify.add_argument("--proof", required=True, help="proof JSON from 'prove'")
    verify.add_argument(
        "--root", default=None,
        help="the shard chain head to verify against (hex); defaults to the"
             " head embedded in the proof file — pass the independently"
             " published head to actually distrust the file",
    )
    replay = sub.add_parser(
        "replay", help="deterministically re-execute a committed window"
    )
    replay.add_argument("--log-dir", required=True, help="audit directory")
    replay.add_argument("--shard", type=int, default=None)
    replay.add_argument("--window", type=int, default=None)
    replay.add_argument(
        "--request-id", type=int, default=None,
        help="replay the window holding this request's terminal leaf"
             " (alternative to --shard/--window)",
    )
    chain = sub.add_parser(
        "check-chain", help="walk every shard log's hash chain end to end"
    )
    chain.add_argument("--log-dir", required=True, help="audit directory")
    chain.add_argument(
        "--recover", action="store_true",
        help="tolerate a damaged log: keep each chain's longest valid"
             " prefix and report how many lines were dropped",
    )
    return parser


def _audit_logs(log_dir: str, recover: bool = False):
    """Load every per-shard log in an audit directory."""
    from repro.audit import AuditLog
    from repro.errors import ConfigurationError

    paths = sorted(Path(log_dir).glob("shard*.audit.jsonl"))
    if not paths:
        raise ConfigurationError(f"no shard*.audit.jsonl logs under {log_dir}")
    logs = {}
    for path in paths:
        if recover:
            log, dropped = AuditLog.recover(path)
        else:
            log, dropped = AuditLog.load(path), 0
        logs[log.shard_id] = (log, dropped)
    return logs


def _audit_find(logs, request_id: int):
    """The (log, proof) pair holding a request's best (terminal) leaf."""
    from repro.audit import STATUS_RETRIED, prove
    from repro.errors import AuditError

    best = None
    for log, _ in logs.values():
        try:
            proof = prove(log, request_id)
        except AuditError:
            continue
        terminal = proof.leaf["status"] != STATUS_RETRIED
        if best is None or (terminal and not best[2]):
            best = (log, proof, terminal)
        if terminal:
            break
    if best is None:
        raise AuditError(f"request {request_id} appears in no shard's audit log")
    return best[0], best[1]


def run_audit(argv: list[str]) -> int:
    """``python -m repro audit <prove|verify|replay|check-chain> ...``."""
    import json

    from repro.audit import (
        InclusionProof,
        load_manifest,
        manifest_config,
        replay_window,
        verify_proof,
    )
    from repro.errors import ConfigurationError, ReproError

    args = _audit_parser().parse_args(argv)
    try:
        if args.cmd == "prove":
            logs = _audit_logs(args.log_dir)
            log, proof = _audit_find(logs, args.request_id)
            record = {"proof": proof.to_record(), "shard_root": log.chain_root}
            text = json.dumps(record, sort_keys=True, indent=2)
            if args.out is not None:
                Path(args.out).write_text(text + "\n")
                print(
                    f"request {args.request_id}: proof from shard"
                    f" {log.shard_id} window {proof.window_id}"
                    f" ({len(proof.merkle.path)} siblings) -> {args.out}"
                )
            else:
                print(text)
            return 0
        if args.cmd == "verify":
            record = json.loads(Path(args.proof).read_text())
            proof = InclusionProof.from_record(record["proof"])
            root = args.root if args.root is not None else record["shard_root"]
            ok = verify_proof(proof, root)
            print(
                f"request {proof.leaf['request_id']} (shard {proof.shard_id},"
                f" window {proof.window_id}, status"
                f" {proof.leaf['status']!r}): "
                + ("PROOF OK" if ok else "PROOF FAILED")
            )
            return 0 if ok else 1
        if args.cmd == "replay":
            manifest = load_manifest(args.log_dir)
            logs = _audit_logs(args.log_dir)
            if args.request_id is not None:
                log, proof = _audit_find(logs, args.request_id)
                entry = log.entries[proof.window_id]
            elif args.shard is not None and args.window is not None:
                if args.shard not in logs:
                    raise ConfigurationError(
                        f"no shard {args.shard} log under {args.log_dir}"
                    )
                log = logs[args.shard][0]
                if not 0 <= args.window < log.n_windows:
                    raise ConfigurationError(
                        f"shard {args.shard} has {log.n_windows} windows;"
                        f" --window {args.window} is out of range"
                    )
                entry = log.entries[args.window]
            else:
                raise ConfigurationError(
                    "replay needs --request-id, or both --shard and --window"
                )
            network, _ = build_serving_model(
                manifest["model"], seed=manifest["seed"] or 0
            )
            result = replay_window(entry, network, manifest_config(manifest))
            print(
                f"window {result.window_id} (shard {result.shard_id}):"
                f" replayed {result.n_requests} request(s) in"
                f" {result.n_batches} batch(es); output digests MATCH"
            )
            return 0
        # check-chain
        logs = _audit_logs(args.log_dir, recover=args.recover)
        total = 0
        events = []
        for shard_id in sorted(logs):
            log, dropped = logs[shard_id]
            checked = log.verify_chain()
            total += checked
            line = (
                f"shard {shard_id}: {checked} window(s) verified,"
                f" head {log.chain_root[:16]}…"
            )
            if dropped:
                line += f" ({dropped} damaged line(s) dropped)"
            print(line)
            events.extend(log.membership_events())
        if events:
            events.sort(key=lambda e: (e["time"], e["shard_id"], e["window_id"]))
            print(f"membership history ({len(events)} chained event(s)):")
            for ev in events:
                print(
                    f"  t={ev['time']:.6f} shard {ev['shard_id']}"
                    f" {ev['kind']} (window {ev['window_id']})"
                )
        print(f"chain OK: {total} window(s) across {len(logs)} shard(s)")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """Dispatch ``python -m repro [report|serve|audit] ...``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] == "audit":
        return run_audit(argv[1:])
    # ``report`` explicitly, or anything else (including foreign argv).
    return run_report()
