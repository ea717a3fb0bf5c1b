"""Unit tests for the verifiable audit-trail package core.

Covers the Merkle layer (roots, O(log n) proofs, odd-promotion,
domain separation), canonical serialization (platform-stable array and
JSON digests), window commitments, the per-shard hash chain (tamper
detection at every layer, JSONL persistence, damaged-log recovery), the
tenant proof surface, and deterministic window replay — including the
ISSUE's edge cases: empty windows, single-request windows, proofs
checked against the wrong shard root, truncated/corrupted logs, and
replay of a window whose original run used adaptive K.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.audit import (
    EMPTY_ROOT,
    STATUS_RETRIED,
    AuditLog,
    InclusionProof,
    MerkleProof,
    MerkleTree,
    WindowCommitment,
    array_digest,
    array_from_canonical,
    canonical_array,
    genesis_root,
    leaf_digest,
    prove,
    replay_window,
    verify_inclusion,
    verify_proof,
)
from repro.errors import AuditError


def _leaves(n):
    return [leaf_digest(f"leaf-{i}".encode()) for i in range(n)]


def _request(rid, tenant="t0", dim=4):
    rng = np.random.default_rng(rid)
    return SimpleNamespace(
        request_id=rid, tenant=tenant, x=rng.normal(size=dim), arrival_time=0.1 * rid
    )


def _batch(batch_id, rids, tenant="t0", retries=0, dim=4):
    return SimpleNamespace(
        batch_id=batch_id,
        requests=[_request(r, tenant=tenant, dim=dim) for r in rids],
        flush_time=1.0 + batch_id,
        retries=retries,
    )


def _flip_hex(digest):
    """Return the digest with its first nibble flipped."""
    return ("0" if digest[0] != "0" else "1") + digest[1:]


# ----------------------------------------------------------------------
# Merkle trees
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 13])
def test_every_leaf_proves_and_verifies(n):
    tree = MerkleTree(_leaves(n))
    for i in range(n):
        proof = tree.prove(i)
        assert verify_inclusion(proof, tree.root)
        assert len(proof.path) <= math.ceil(math.log2(n)) if n > 1 else not proof.path


def test_single_leaf_root_is_the_leaf():
    leaves = _leaves(1)
    assert MerkleTree(leaves).root == leaves[0]


def test_empty_tree_has_the_distinguished_empty_root():
    tree = MerkleTree([])
    assert tree.root == EMPTY_ROOT
    with pytest.raises(AuditError):
        tree.prove(0)


def test_flipped_root_or_leaf_breaks_verification():
    tree = MerkleTree(_leaves(5))
    proof = tree.prove(2)
    assert not verify_inclusion(proof, _flip_hex(tree.root))
    forged = MerkleProof(
        leaf=_flip_hex(proof.leaf),
        index=proof.index,
        n_leaves=proof.n_leaves,
        path=proof.path,
    )
    assert not verify_inclusion(forged, tree.root)


def test_odd_promotion_is_not_duplicate_hashing():
    """Promoting the odd node must differ from pairing it with itself —
    the duplicate-last-leaf trees of the naive construction collide."""
    a, b, c = _leaves(3)
    assert MerkleTree([a, b, c]).root != MerkleTree([a, b, c, c]).root


def test_sibling_order_is_committed():
    """Swapping two leaves changes the root (position is authenticated)."""
    a, b = _leaves(2)
    assert MerkleTree([a, b]).root != MerkleTree([b, a]).root


def test_proof_round_trips_through_records():
    tree = MerkleTree(_leaves(6))
    proof = tree.prove(4)
    again = MerkleProof.from_record(json.loads(json.dumps(proof.to_record())))
    assert again == proof
    assert verify_inclusion(again, tree.root)


def test_malformed_proof_step_side_fails_closed():
    tree = MerkleTree(_leaves(4))
    record = tree.prove(1).to_record()
    record["path"][0]["side"] = "up"
    assert not verify_inclusion(MerkleProof.from_record(record), tree.root)


def test_out_of_range_proof_index_raises():
    with pytest.raises(AuditError):
        MerkleTree(_leaves(3)).prove(3)


# ----------------------------------------------------------------------
# canonical serialization
# ----------------------------------------------------------------------
def test_canonical_array_round_trips_and_widens():
    for arr in [
        np.arange(6, dtype=np.float32).reshape(2, 3),
        np.arange(4, dtype=np.int32),
        np.array([True, False]),
        np.float64(3.5) * np.ones((1,)),
    ]:
        record = canonical_array(arr)
        assert record["dtype"] in ("<f8", "<i8")
        back = array_from_canonical(record)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr.astype(back.dtype))


def test_canonical_array_rejects_exotic_dtypes():
    with pytest.raises(AuditError):
        canonical_array(np.array(["a", "b"]))


def test_array_digest_separates_shape_and_value():
    flat = np.arange(6, dtype=float)
    assert array_digest(flat) != array_digest(flat.reshape(2, 3))
    assert array_digest(flat) == array_digest(flat.copy())
    bumped = flat.copy()
    bumped[3] = np.nextafter(bumped[3], np.inf)
    assert array_digest(flat) != array_digest(bumped)


def test_integer_and_float_arrays_never_collide():
    assert array_digest(np.arange(4)) != array_digest(np.arange(4, dtype=float))


# ----------------------------------------------------------------------
# window commitments
# ----------------------------------------------------------------------
def test_commitment_commits_inputs_and_outputs_per_leaf():
    batch = _batch(0, [0, 1], tenant="alice")
    out = np.ones((2, 3))
    c = WindowCommitment.build(0, [batch], [out], status="ok")
    assert [leaf["request_id"] for leaf in c.leaves] == [0, 1]
    for i, leaf in enumerate(c.leaves):
        assert leaf["tenant"] == "alice"
        assert leaf["input_digest"] == array_digest(batch.requests[i].x)
        assert leaf["output_digest"] == array_digest(out[i])
        assert np.array_equal(
            array_from_canonical(leaf["input"]), batch.requests[i].x
        )
    meta = c.meta(window_id=7)
    assert meta["window_id"] == 7
    assert meta["n_requests"] == 2
    assert not meta["aborted"]


def test_commitment_without_outputs_marks_leaves_output_free():
    c = WindowCommitment.build(
        1, [_batch(0, [5])], [None], status="retried", aborted=True, error="boom"
    )
    assert c.leaves[0]["output_digest"] is None
    assert c.meta()["aborted"]


def test_commitment_shape_mismatches_raise():
    batch = _batch(0, [0, 1])
    with pytest.raises(AuditError):
        WindowCommitment.build(0, [batch], [], status="ok")
    with pytest.raises(AuditError):
        WindowCommitment.build(0, [batch], [np.ones((3, 2))], status="ok")


def test_empty_window_commits_the_empty_root():
    c = WindowCommitment.build(0, [], [], status="ok")
    assert c.merkle_root == EMPTY_ROOT
    assert c.leaves == []


# ----------------------------------------------------------------------
# the chained log
# ----------------------------------------------------------------------
def _filled_log(shard_id=0, n_windows=3, path=None):
    log = AuditLog(shard_id, path)
    for w in range(n_windows):
        batch = _batch(w, [2 * w, 2 * w + 1])
        out = np.full((2, 3), float(w))
        log.append(WindowCommitment.build(shard_id, [batch], [out], status="ok"))
    return log


def test_chain_head_moves_and_verifies():
    log = _filled_log(n_windows=3)
    assert log.chain_root != genesis_root(0)
    assert log.verify_chain() == 3
    assert [e["meta"]["window_id"] for e in log.entries] == [0, 1, 2]


def test_empty_log_head_is_genesis_and_distinct_per_shard():
    assert AuditLog(0).chain_root == genesis_root(0)
    assert genesis_root(0) != genesis_root(1)


def test_log_rejects_foreign_shard_commitments():
    log = AuditLog(0)
    with pytest.raises(AuditError):
        log.append(WindowCommitment.build(1, [], [], status="ok"))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda e: e["leaves"][0].__setitem__("tenant", "mallory"),
        lambda e: e.__setitem__("merkle_root", _flip_hex(e["merkle_root"])),
        lambda e: e.__setitem__("prev_root", _flip_hex(e["prev_root"])),
        lambda e: e.__setitem__("chain_root", _flip_hex(e["chain_root"])),
        lambda e: e["meta"].__setitem__("status", "forged"),
        lambda e: e["meta"].__setitem__("window_id", 9),
    ],
    ids=["leaf", "merkle_root", "prev_root", "chain_root", "meta", "window_id"],
)
def test_any_tamper_breaks_verify_chain(mutate):
    log = _filled_log(n_windows=3)
    mutate(log.entries[1])
    with pytest.raises(AuditError):
        log.verify_chain()


def test_dropping_a_middle_window_breaks_the_chain():
    log = _filled_log(n_windows=3)
    del log.entries[1]
    with pytest.raises(AuditError):
        log.verify_chain()


def test_persisted_log_loads_back_identically(tmp_path):
    path = tmp_path / "shard0.audit.jsonl"
    log = _filled_log(path=path, n_windows=4)
    loaded = AuditLog.load(path)
    assert loaded.shard_id == 0
    assert loaded.entries == log.entries
    assert loaded.chain_root == log.chain_root
    assert loaded.verify_chain() == 4


def test_load_of_missing_or_corrupt_log_raises(tmp_path):
    with pytest.raises(AuditError):
        AuditLog.load(tmp_path / "nope.jsonl")
    path = tmp_path / "bad.jsonl"
    _filled_log(path=path, n_windows=2)
    text = path.read_text().replace('"tenant":"t0"', '"tenant":"t1"', 1)
    path.write_text(text)
    with pytest.raises(AuditError):
        AuditLog.load(path)


def test_recover_keeps_the_valid_prefix_of_a_truncated_log(tmp_path):
    path = tmp_path / "torn.jsonl"
    full = _filled_log(path=path, n_windows=3)
    lines = path.read_text().splitlines()
    # A crash mid-append: the final line is half-written.
    path.write_text("\n".join(lines[:2] + [lines[2][: len(lines[2]) // 2]]) + "\n")
    log, dropped = AuditLog.recover(path)
    assert dropped == 1
    assert log.n_windows == 2
    assert log.verify_chain() == 2
    assert log.entries == full.entries[:2]


def test_recover_stops_at_corruption_not_just_malformed_json(tmp_path):
    """A syntactically valid but chain-breaking line (tampered leaf) must
    also end recovery — damage cannot resurrect as a different history."""
    path = tmp_path / "evil.jsonl"
    _filled_log(path=path, n_windows=3)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"tenant":"t0"', '"tenant":"mallory"', 1)
    path.write_text("\n".join(lines) + "\n")
    log, dropped = AuditLog.recover(path)
    assert (log.n_windows, dropped) == (1, 2)
    assert log.verify_chain() == 1


def test_recover_of_empty_file_is_an_empty_log(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    log, dropped = AuditLog.recover(path, shard_id=3)
    assert (log.n_windows, dropped) == (0, 0)
    assert log.chain_root == genesis_root(3)


# ----------------------------------------------------------------------
# inclusion proofs against the chained root
# ----------------------------------------------------------------------
def test_every_request_proves_against_the_chain_head():
    log = _filled_log(n_windows=4)
    for rid in range(8):
        proof = prove(log, rid)
        assert verify_proof(proof, log.chain_root)
        assert proof.leaf["request_id"] == rid


def test_proof_fails_against_the_wrong_shard_root():
    log = _filled_log(shard_id=0, n_windows=2)
    other = _filled_log(shard_id=1, n_windows=2)
    proof = prove(log, 1)
    assert verify_proof(proof, log.chain_root)
    assert not verify_proof(proof, other.chain_root)
    assert not verify_proof(proof, genesis_root(0))
    assert not verify_proof(proof, _flip_hex(log.chain_root))


def test_single_request_window_proof_has_an_empty_path():
    log = AuditLog(0)
    log.append(
        WindowCommitment.build(0, [_batch(0, [42])], [np.ones((1, 3))], status="ok")
    )
    proof = prove(log, 42)
    assert proof.merkle.path == ()
    assert verify_proof(proof, log.chain_root)


def test_tampered_leaf_or_suffix_breaks_the_proof():
    log = _filled_log(n_windows=3)
    record = prove(log, 0).to_record()  # window 0 -> non-empty suffix
    assert len(record["chain_suffix"]) == 2
    forged = json.loads(json.dumps(record))
    forged["leaf"]["tenant"] = "mallory"
    assert not verify_proof(InclusionProof.from_record(forged), log.chain_root)
    forged = json.loads(json.dumps(record))
    forged["chain_suffix"][1]["merkle_root"] = _flip_hex(
        forged["chain_suffix"][1]["merkle_root"]
    )
    assert not verify_proof(InclusionProof.from_record(forged), log.chain_root)
    forged = json.loads(json.dumps(record))
    forged["window_meta"]["status"] = "forged"
    assert not verify_proof(InclusionProof.from_record(forged), log.chain_root)


def test_prove_prefers_the_terminal_leaf_over_retry_markers():
    log = AuditLog(0)
    log.append(
        WindowCommitment.build(
            0, [_batch(0, [7])], [None], status=STATUS_RETRIED, aborted=True
        )
    )
    log.append(
        WindowCommitment.build(
            0, [_batch(0, [7], retries=1)], [np.ones((1, 3))], status="ok"
        )
    )
    proof = prove(log, 7)
    assert proof.window_id == 1
    assert proof.leaf["status"] == "ok"
    assert verify_proof(proof, log.chain_root)


def test_prove_falls_back_to_a_retry_marker_when_nothing_terminal():
    log = AuditLog(0)
    log.append(
        WindowCommitment.build(
            0, [_batch(0, [7])], [None], status=STATUS_RETRIED, aborted=True
        )
    )
    proof = prove(log, 7)
    assert proof.leaf["status"] == STATUS_RETRIED
    assert verify_proof(proof, log.chain_root)


def test_prove_unknown_request_raises():
    with pytest.raises(AuditError):
        prove(_filled_log(), 999)


# ----------------------------------------------------------------------
# deterministic replay
# ----------------------------------------------------------------------
def _net(seed=0):
    from repro.nn import Dense, ReLU, Sequential

    rng = np.random.default_rng(seed)
    return Sequential([Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], (16,))


def _served_log(dk, n_requests=8, seed=3):
    """Serve a small trace with auditing on; returns (server, report)."""
    from repro.serving import AuditConfig, PrivateInferenceServer, ServingConfig
    from repro.serving import synthetic_trace

    config = ServingConfig(darknight=dk, audit=AuditConfig())
    server = PrivateInferenceServer(_net(), config)
    trace = synthetic_trace(n_requests, (16,), n_tenants=2, seed=seed)
    return server, server.serve_trace(trace)


def test_replay_reproduces_committed_digests_bit_exactly():
    from repro.runtime import DarKnightConfig

    dk = DarKnightConfig(virtual_batch_size=4, seed=11)
    server, _ = _served_log(dk)
    log = server.audit.logs[0]
    for entry in log.entries:
        result = replay_window(entry, _net(), server.darknight)
        assert result.matched and not result.mismatches


def test_replay_detects_a_forged_output_digest():
    from repro.runtime import DarKnightConfig

    dk = DarKnightConfig(virtual_batch_size=4, seed=11)
    server, _ = _served_log(dk)
    entry = json.loads(json.dumps(server.audit.logs[0].entries[0]))
    entry["leaves"][0]["output_digest"] = _flip_hex(
        entry["leaves"][0]["output_digest"]
    )
    with pytest.raises(AuditError):
        replay_window(entry, _net(), server.darknight)
    result = replay_window(entry, _net(), server.darknight, strict=False)
    assert not result.matched
    assert len(result.mismatches) == 1


def test_replay_of_adaptive_k_window_uses_the_effective_config():
    """A deployment whose adaptive governor clamped K must replay from
    the manifest's *effective* config — per-sample normalization makes
    the digests independent of the K actually used, and the recorded
    config keeps provisioning well-formed."""
    from repro.runtime import DarKnightConfig
    from repro.serving import (
        AdaptiveBatchingConfig,
        AuditConfig,
        PrivateInferenceServer,
        ServingConfig,
        synthetic_trace,
    )

    dk = DarKnightConfig(
        virtual_batch_size=8, seed=11, epc_budget_bytes=2_500
    )
    config = ServingConfig(
        darknight=dk,
        audit=AuditConfig(),
        adaptive=AdaptiveBatchingConfig(),
    )
    server = PrivateInferenceServer(_net(), config)
    assert server.darknight.virtual_batch_size < 8  # the clamp happened
    report = server.serve_trace(synthetic_trace(12, (16,), n_tenants=3, seed=5))
    assert len(report.completed) == 12
    log = server.audit.logs[0]
    replayed = 0
    for entry in log.entries:
        result = replay_window(entry, _net(), server.darknight)
        assert result.matched
        replayed += result.n_requests
    assert replayed == 12


def test_replay_refuses_windows_without_outputs():
    from repro.runtime import DarKnightConfig

    entry = {
        "meta": {"window_id": 0, "shard_id": 0, "status": STATUS_RETRIED},
        "leaves": WindowCommitment.build(
            0, [_batch(0, [1], dim=16)], [None], status=STATUS_RETRIED
        ).leaves,
    }
    with pytest.raises(AuditError):
        replay_window(entry, _net(), DarKnightConfig(seed=0))


def test_replay_refuses_empty_windows():
    from repro.runtime import DarKnightConfig

    entry = {"meta": {"window_id": 0, "shard_id": 0}, "leaves": []}
    with pytest.raises(AuditError):
        replay_window(entry, _net(), DarKnightConfig(seed=0))


def test_hand_spliced_leaf_blob_matches_the_generic_encoder():
    """The hot-path leaf splice must stay byte-identical to
    ``canonical_json_bytes`` for every value shape a leaf can carry —
    exotic tenants, repr-edge floats, missing outputs."""
    from repro.audit.commitment import _leaf_blob, canonical_json_bytes

    record = canonical_array(np.arange(6, dtype=np.float32).reshape(2, 3))
    for tenant, arrival, output in [
        ("t0", 0.0, "ab" * 32),
        ('we"ird\\ten\nant', 0.1 + 0.2, None),
        ("unicode-é中", 1e-300, "00" * 32),
        ("x", 123456789.987654321, None),
        ("y", 5e-324, "ff" * 32),
    ]:
        leaf = {
            "request_id": 7,
            "tenant": tenant,
            "batch_id": 3,
            "arrival_time": arrival,
            "status": "ok",
            "retries": 2,
            "input": record,
            "input_digest": "cd" * 32,
            "output_digest": output,
        }
        assert _leaf_blob(leaf) == canonical_json_bytes(leaf)


def test_hand_spliced_meta_matches_the_generic_encoder():
    """The chained window metadata splice must equal the generic encoder
    for optional fields unset, escaped strings and non-finite times."""
    from repro.audit.commitment import canonical_json_bytes, canonical_meta_bytes

    for window_id, batch_ids, flush_time, error, digest, seed, status in [
        (0, [4, 5], 0.0123, None, "ab" * 32, 0, "ok"),
        (None, [], 1e-300, 'shard "3" died\n', None, None, "aborted"),
        (12, [7], float("inf"), "unicode-é中", "00" * 32, 2**40, "membership:drain"),
        (3, [1, 2, 3], float("nan"), "", "ff" * 32, -1, 'we"ird'),
    ]:
        meta = {
            "window_id": window_id,
            "shard_id": 1,
            "batch_ids": batch_ids,
            "flush_time": flush_time,
            "status": status,
            "aborted": error is not None,
            "retries": 2,
            "n_requests": 5,
            "integrity": seed is not None,
            "error": error,
            "config_digest": digest,
            "seed": seed,
        }
        assert canonical_meta_bytes(meta) == canonical_json_bytes(meta)


def test_entry_lines_on_disk_match_a_generic_json_dump(tmp_path):
    """The spliced JSONL line must parse back to exactly the in-memory
    entry (and re-dump identically), or recovery tooling would diverge."""
    log = _filled_log(0, 3, tmp_path / "log.jsonl")
    lines = (tmp_path / "log.jsonl").read_text().splitlines()
    assert len(lines) == 3
    for line, entry in zip(lines, log.entries):
        assert json.loads(line) == entry
        assert line == json.dumps(entry, sort_keys=True, separators=(",", ":"))
