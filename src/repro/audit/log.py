"""The per-shard audit log: chained window roots with JSONL persistence.

Each appended :class:`~repro.audit.commitment.WindowCommitment` extends a
hash chain::

    chain_i = H(0x02 || chain_{i-1} || merkle_root_i || meta_digest_i)

anchored at a shard-specific genesis value, so the log's *head*
(:attr:`AuditLog.chain_root`) commits to every window ever served in
order: flipping one leaf changes its window's Merkle root, which changes
that window's chain value, which changes every later chain value and the
head.  Publishing (or just remembering) the head is enough for a tenant
to verify any inclusion proof offline.

Persistence is one JSON line per window — append-only, human-greppable,
and recoverable: :meth:`AuditLog.recover` keeps the longest valid prefix
of a truncated or corrupted file (a crash mid-append loses at most the
final window, never the chain before it).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.audit.commitment import (
    MEMBERSHIP_KINDS,
    MEMBERSHIP_STATUS_PREFIX,
    WindowCommitment,
    canonical_json_bytes,
    canonical_meta_bytes,
    digest_json,
)
from repro.audit.merkle import payload_root
from repro.errors import AuditError

_CHAIN_PREFIX = b"\x02"


def genesis_root(shard_id: int) -> str:
    """The chain anchor for one shard's log (distinct per shard)."""
    return hashlib.sha256(
        b"darknight-audit-genesis/" + str(int(shard_id)).encode("ascii")
    ).hexdigest()


def chain_hash(prev_root: str, merkle_root: str, meta_digest: str) -> str:
    """One chain link: ``H(0x02 || prev || merkle_root || meta_digest)``."""
    return hashlib.sha256(
        _CHAIN_PREFIX
        + bytes.fromhex(prev_root)
        + bytes.fromhex(merkle_root)
        + bytes.fromhex(meta_digest)
    ).hexdigest()


def _entry_from_commitment(
    commitment: WindowCommitment, window_id: int, prev_root: str
) -> tuple[dict, bytes]:
    """Build one chained entry plus its serialized JSONL line.

    Each leaf (and the meta block) is canonically serialized exactly
    once: the per-leaf blobs feed the Merkle digests *and* are spliced
    verbatim into the line — ``canonical_json_bytes`` and a sorted-keys
    compact ``json.dumps`` of the whole entry are byte-identical, and
    the commit happens on the serving hot path, so the second full
    serialization pass is pure waste.  Entry keys are spliced in sorted
    order (chain_root < leaves < merkle_root < meta < prev_root).
    """
    leaf_blobs = commitment.canonical_leaf_blobs()
    merkle_root = payload_root(leaf_blobs)
    meta = commitment.meta(window_id)
    meta_blob = canonical_meta_bytes(meta)
    chain_root = chain_hash(
        prev_root, merkle_root, hashlib.sha256(meta_blob).hexdigest()
    )
    entry = {
        "meta": meta,
        "leaves": list(commitment.leaves),
        "merkle_root": merkle_root,
        "prev_root": prev_root,
        "chain_root": chain_root,
    }
    line = b"".join(
        (
            b'{"chain_root":"', chain_root.encode("ascii"),
            b'","leaves":[', b",".join(leaf_blobs),
            b'],"merkle_root":"', merkle_root.encode("ascii"),
            b'","meta":', meta_blob,
            b',"prev_root":"', prev_root.encode("ascii"),
            b'"}\n',
        )
    )
    return entry, line


class AuditLog:
    """One shard's append-only chained window log.

    Parameters
    ----------
    shard_id:
        The enclave shard whose windows this log records (fixes the
        genesis anchor, so shard A's proofs can never verify against
        shard B's head).
    path:
        JSONL file to persist to; ``None`` keeps the log in memory only
        (tests, or deployments that export the chain elsewhere).
    """

    def __init__(self, shard_id: int, path: str | Path | None = None) -> None:
        self.shard_id = int(shard_id)
        self.path = Path(path) if path is not None else None
        self.entries: list[dict] = []
        #: Bytes appended to the JSONL file (or that would have been).
        self.bytes_written = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # A server run starts a fresh chain; use load()/recover() to
            # read an existing log back.
            self.path.write_text("")

    # ------------------------------------------------------------------
    # the chain
    # ------------------------------------------------------------------
    @property
    def chain_root(self) -> str:
        """The chain head (genesis when no window was committed yet)."""
        if not self.entries:
            return genesis_root(self.shard_id)
        return self.entries[-1]["chain_root"]

    @property
    def n_windows(self) -> int:
        return len(self.entries)

    def append(self, commitment: WindowCommitment) -> dict:
        """Chain and persist one window commitment; returns the entry."""
        if commitment.shard_id != self.shard_id:
            raise AuditError(
                f"shard {self.shard_id} log cannot commit shard"
                f" {commitment.shard_id}'s window"
            )
        entry, line = _entry_from_commitment(
            commitment, window_id=len(self.entries), prev_root=self.chain_root
        )
        self.bytes_written += len(line)
        if self.path is not None:
            with self.path.open("ab") as fh:
                fh.write(line)
        self.entries.append(entry)
        return entry

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify_chain(self) -> int:
        """Recompute every Merkle root and chain link; returns windows checked.

        Raises
        ------
        AuditError
            On the first window whose leaves no longer hash to its
            committed Merkle root, or whose chain link does not extend
            its predecessor — i.e. on any tamper or truncation-splice.
        """
        prev = genesis_root(self.shard_id)
        for i, entry in enumerate(self.entries):
            meta = entry["meta"]
            if meta.get("window_id") != i or meta.get("shard_id") != self.shard_id:
                raise AuditError(
                    f"window {i}: metadata claims window"
                    f" {meta.get('window_id')} of shard {meta.get('shard_id')}"
                )
            status = meta.get("status")
            if isinstance(status, str) and status.startswith(
                MEMBERSHIP_STATUS_PREFIX
            ):
                kind = status[len(MEMBERSHIP_STATUS_PREFIX) :]
                leaves = entry["leaves"]
                if kind not in MEMBERSHIP_KINDS:
                    raise AuditError(
                        f"window {i}: unknown membership event kind {kind!r}"
                    )
                if len(leaves) != 1 or leaves[0].get("event") != kind:
                    raise AuditError(
                        f"window {i}: membership window must hold exactly one"
                        f" {kind!r} event leaf"
                    )
                if leaves[0].get("shard_id") != self.shard_id:
                    raise AuditError(
                        f"window {i}: membership event names shard"
                        f" {leaves[0].get('shard_id')}, not {self.shard_id}"
                    )
            recomputed = payload_root(
                [canonical_json_bytes(leaf) for leaf in entry["leaves"]]
            )
            if recomputed != entry["merkle_root"]:
                raise AuditError(
                    f"window {i}: leaves do not hash to the committed Merkle"
                    f" root (committed {entry['merkle_root'][:12]}…,"
                    f" recomputed {recomputed[:12]}…)"
                )
            if entry["prev_root"] != prev:
                raise AuditError(
                    f"window {i}: chain does not extend window {i - 1}"
                )
            expected = chain_hash(prev, recomputed, digest_json(meta))
            if expected != entry["chain_root"]:
                raise AuditError(
                    f"window {i}: chain root mismatch (committed"
                    f" {entry['chain_root'][:12]}…, recomputed {expected[:12]}…)"
                )
            prev = entry["chain_root"]
        return len(self.entries)

    def membership_events(self) -> list[dict]:
        """The chain's membership-change events, oldest first.

        Each record is ``{"window_id", "kind", "shard_id", "time",
        "details"}`` taken from the event leaf of every
        ``membership:<kind>`` window.
        """
        events = []
        for entry in self.entries:
            status = entry["meta"].get("status", "")
            if not (
                isinstance(status, str)
                and status.startswith(MEMBERSHIP_STATUS_PREFIX)
            ):
                continue
            leaf = entry["leaves"][0]
            events.append(
                {
                    "window_id": entry["meta"]["window_id"],
                    "kind": leaf.get("event"),
                    "shard_id": leaf.get("shard_id"),
                    "time": leaf.get("time"),
                    "details": leaf.get("details", {}),
                }
            )
        return events

    # ------------------------------------------------------------------
    # reading logs back
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str | Path, shard_id: int | None = None) -> "AuditLog":
        """Read a persisted log strictly (any malformed line raises)."""
        log, dropped = cls._read(Path(path), shard_id=shard_id, strict=True)
        assert dropped == 0
        return log

    @classmethod
    def recover(
        cls, path: str | Path, shard_id: int | None = None
    ) -> tuple["AuditLog", int]:
        """Read the longest valid prefix of a possibly damaged log.

        Returns ``(log, dropped_lines)``: parsing stops at the first
        malformed or chain-breaking line (a torn tail cannot silently
        resurrect as a *different* history — everything after the first
        damage is dropped, and the surviving prefix still passes
        :meth:`verify_chain`).
        """
        return cls._read(Path(path), shard_id=shard_id, strict=False)

    @classmethod
    def _read(
        cls, path: Path, shard_id: int | None, strict: bool
    ) -> tuple["AuditLog", int]:
        if not path.exists():
            raise AuditError(f"no audit log at {path}")
        lines = path.read_text().splitlines()
        log = cls.__new__(cls)
        log.path = path
        log.entries = []
        log.bytes_written = 0
        log.shard_id = -1 if shard_id is None else int(shard_id)
        for i, line in enumerate(lines):
            try:
                entry = json.loads(line)
                meta = entry["meta"]
                if log.shard_id < 0:
                    log.shard_id = int(meta["shard_id"])
                probe = cls.__new__(cls)
                probe.shard_id = log.shard_id
                probe.entries = log.entries + [entry]
                probe.path = None
                probe.bytes_written = 0
                probe.verify_chain()
            except (AuditError, KeyError, TypeError, ValueError) as exc:
                if strict:
                    raise AuditError(f"{path}:{i + 1}: invalid entry ({exc})") from exc
                return log, len(lines) - i
            log.entries.append(entry)
        if log.shard_id < 0:
            # An empty file: shard unknown, chain at genesis of shard 0
            # unless the caller said otherwise.
            log.shard_id = 0
        return log, 0
