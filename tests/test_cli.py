"""Smoke tests for the ``python -m repro`` command-line entry points."""

import json
import runpy

import pytest

from repro.cli import main, parse_seed_flag


def test_module_entry_point_prints_report(capsys):
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None)
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "headline" in out


def test_serve_subcommand_smoke(capsys):
    """Tier-1 end-to-end: the serving subsystem behind the CLI."""
    rc = main(
        [
            "serve",
            "--model", "tiny",
            "--requests", "16",
            "--tenants", "2",
            "--virtual-batch", "4",
            "--seed", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "served 16 requests from 2 tenants" in out
    assert "Serving metrics" in out
    assert "completed requests  | 16" in out
    assert "attestation handshakes" in out


def test_serve_subcommand_with_integrity(capsys):
    rc = main(
        ["serve", "--model", "tiny", "--requests", "8", "--integrity", "--seed", "1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "integrity=on" in out
    assert "integrity failures  | 0" in out


def test_serve_subcommand_with_pipeline_depth(capsys):
    """--pipeline-depth threads to the staged executor and serves cleanly."""
    rc = main(
        [
            "serve",
            "--model", "tiny",
            "--requests", "16",
            "--tenants", "2",
            "--pipeline-depth", "3",
            "--seed", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "pipeline depth 3" in out
    assert "completed requests  | 16" in out


def test_serve_rejects_pipeline_depth_below_one(capsys):
    rc = main(["serve", "--model", "tiny", "--pipeline-depth", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--pipeline-depth must be >= 1" in err


def test_pipelined_serve_completes_the_same_trace(capsys):
    """Same trace, same seed: depth 3 completes every request depth 1 does.

    (Bit-identity of the served logits across depths is asserted at the
    server level in test_serving_server.py; the CLI only prints counts.)
    """
    import re

    outputs = []
    for depth in ("1", "3"):
        rc = main(
            [
                "serve",
                "--model", "tiny",
                "--requests", "12",
                "--pipeline-depth", depth,
                "--seed", "4",
            ]
        )
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    counts = [
        re.search(r"completed requests\s+\|\s+(\d+)", out).group(1) for out in outputs
    ]
    assert counts == ["12", "12"]


def test_serve_subcommand_with_shards(capsys):
    """--num-shards provisions parallel enclave shards and serves cleanly."""
    rc = main(
        [
            "serve",
            "--model", "tiny",
            "--requests", "16",
            "--tenants", "4",
            "--num-shards", "2",
            "--seed", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 shard(s)" in out
    assert "completed requests  | 16" in out
    assert "2 enclave shard(s)" in out


def test_serve_rejects_num_shards_below_one(capsys):
    rc = main(["serve", "--model", "tiny", "--num-shards", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--num-shards must be >= 1" in err


def test_serve_rejects_gpu_budget_too_small_for_shards(capsys):
    """K=4, M=1 -> 5 GPUs/shard; 2 shards need 10, a budget of 8 must fail
    with a clear error instead of a deep traceback."""
    rc = main(
        [
            "serve",
            "--model", "tiny",
            "--num-shards", "2",
            "--virtual-batch", "4",
            "--gpus", "8",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "--gpus 8 cannot host 2 shard(s)" in err
    assert "10 total" in err


def test_serve_accepts_sufficient_gpu_budget(capsys):
    rc = main(
        [
            "serve",
            "--model", "tiny",
            "--requests", "8",
            "--num-shards", "2",
            "--virtual-batch", "4",
            "--gpus", "10",
            "--seed", "0",
        ]
    )
    assert rc == 0
    assert "completed requests  | 8" in capsys.readouterr().out


def test_serve_rejects_bad_virtual_batch_cleanly(capsys):
    rc = main(["serve", "--model", "tiny", "--virtual-batch", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "virtual batch size" in err


def test_explicit_report_subcommand(capsys):
    assert main(["report"]) == 0
    assert "Table 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv,expected",
    [
        ([], 0),
        (["--seed", "7"], 7),
        (["--seed=9"], 9),
        (["--other", "--seed", "3", "x"], 3),
        (["--seed", "not-a-number"], 0),
    ],
)
def test_parse_seed_flag(argv, expected):
    assert parse_seed_flag(argv) == expected


def test_serve_subcommand_with_slo_classes(capsys):
    rc = main(
        [
            "serve", "--model", "tiny", "--requests", "24",
            "--slo-budget", "premium=5",
            "--slo-class", "tenant0=premium",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "SLO classes: " in out
    assert "premium=5.0ms <- tenant0" in out
    assert "SLO attainment" in out


def test_serve_rejects_slo_class_without_budget(capsys):
    rc = main(["serve", "--model", "tiny", "--slo-class", "tenant0=premium"])
    assert rc == 2
    assert "class budget" in capsys.readouterr().err


def test_serve_rejects_malformed_slo_flags(capsys):
    rc = main(["serve", "--model", "tiny", "--slo-budget", "premium"])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err
    rc = main(["serve", "--model", "tiny", "--slo-budget", "premium=fast"])
    assert rc == 2
    assert "milliseconds" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the audit trail behind the CLI
# ----------------------------------------------------------------------
def _audited_serve(tmp_path, capsys, n=12):
    rc = main(
        [
            "serve",
            "--model", "tiny",
            "--requests", str(n),
            "--tenants", "3",
            "--virtual-batch", "4",
            "--num-shards", "2",
            "--seed", "0",
            "--audit-log", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "audit chain heads" in out
    assert f"committed to {tmp_path}" in out
    return out


def test_serve_audit_then_check_chain(tmp_path, capsys):
    _audited_serve(tmp_path, capsys)
    rc = main(["audit", "check-chain", "--log-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "chain OK" in out
    assert "shard 0" in out and "shard 1" in out


def test_prove_then_verify_roundtrip_and_tamper(tmp_path, capsys):
    _audited_serve(tmp_path, capsys)
    proof_path = tmp_path / "proof.json"
    rc = main(
        [
            "audit", "prove",
            "--log-dir", str(tmp_path),
            "--request-id", "5",
            "--out", str(proof_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert proof_path.exists()

    rc = main(["audit", "verify", "--proof", str(proof_path)])
    assert rc == 0
    assert "PROOF OK" in capsys.readouterr().out

    # Verifying against the wrong root must fail with a nonzero exit.
    import json as _json

    blob = _json.loads(proof_path.read_text())
    blob["shard_root"] = "0" * 64
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(_json.dumps(blob))
    rc = main(["audit", "verify", "--proof", str(bad_path)])
    assert rc == 1
    assert "PROOF FAILED" in capsys.readouterr().out


def test_audit_replay_matches_committed_digests(tmp_path, capsys):
    _audited_serve(tmp_path, capsys)
    rc = main(
        ["audit", "replay", "--log-dir", str(tmp_path), "--request-id", "3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "MATCH" in out


def test_tampered_log_fails_check_chain_and_recovers(tmp_path, capsys):
    _audited_serve(tmp_path, capsys)
    log_path = next(tmp_path.glob("shard*.audit.jsonl"))
    lines = log_path.read_text().splitlines()
    # Truncate the final line mid-record: strict check fails...
    log_path.write_text("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]) + "\n")
    rc = main(["audit", "check-chain", "--log-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err
    # ...and --recover keeps the longest valid prefix, reporting the drop.
    rc = main(["audit", "check-chain", "--log-dir", str(tmp_path), "--recover"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dropped" in out


def test_audit_unknown_request_errors_cleanly(tmp_path, capsys):
    _audited_serve(tmp_path, capsys)
    rc = main(
        ["audit", "prove", "--log-dir", str(tmp_path), "--request-id", "999"]
    )
    assert rc == 2
    assert "appears in no shard" in capsys.readouterr().err


def test_audit_empty_dir_errors_cleanly(tmp_path, capsys):
    rc = main(["audit", "check-chain", "--log-dir", str(tmp_path)])
    assert rc == 2
    assert "no shard" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the unified config surface (--config) and elastic serving (--autoscale)
# ----------------------------------------------------------------------
def test_serve_with_config_preset(capsys):
    rc = main(["serve", "--config", "throughput", "--requests", "16", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    # The preset's K=8 took effect without any per-field flag.
    assert "coalesced K=8" in out
    assert "completed requests  | 16" in out


def test_serve_with_config_file_round_trips(tmp_path, capsys):
    from repro.serving import ServingConfig

    cfg = ServingConfig.preset("latency")
    path = tmp_path / "serving.json"
    path.write_text(json.dumps(cfg.to_dict()))
    rc = main(["serve", "--config", str(path), "--requests", "16", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "adaptive K=" in out  # the file's adaptive section took effect
    assert "completed requests  | 16" in out


def test_serve_config_rejects_unknown_preset_and_bad_file(tmp_path, capsys):
    rc = main(["serve", "--config", "warp-speed", "--requests", "4"])
    assert rc == 2
    assert "neither a preset" in capsys.readouterr().err
    # The retired worker count is an unknown key like any other.
    for key in ("no_such_key", "n_workers"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({key: 1}))
        rc = main(["serve", "--config", str(bad), "--requests", "4"])
        assert rc == 2
        assert "unknown serving config keys" in capsys.readouterr().err


def test_serve_superseded_flags_are_rejected_with_config(capsys):
    rc = main(
        [
            "serve",
            "--config", "throughput",
            "--virtual-batch", "2",
            "--integrity",
            "--requests", "8",
            "--seed", "0",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "--virtual-batch" in err and "--integrity" in err
    assert "--config" in err


@pytest.mark.parametrize("flag", ["--workers", "--field-backend", "--stage-ranker"])
def test_serve_retired_flags_are_rejected(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--requests", "8", flag, "limb", "--seed", "0"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_serve_autoscale_smoke(capsys):
    rc = main(
        [
            "serve",
            "--requests", "48",
            "--rate", "20000",
            "--autoscale",
            "--max-shards", "3",
            "--seed", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "elastic 1-3 shard(s)" in out
    assert "completed requests  | 48" in out
    assert "autoscale:" in out
    assert "shard-seconds" in out


def test_serve_autoscale_knobs_require_autoscale(capsys):
    rc = main(["serve", "--requests", "4", "--min-shards", "2"])
    assert rc == 2
    assert "--autoscale" in capsys.readouterr().err
