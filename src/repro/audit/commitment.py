"""Per-window commitments: canonical digests of what the server served.

A :class:`WindowCommitment` is built once per dispatched flush window and
freezes three facts per request into one Merkle leaf:

* the request's **input** exactly as admitted (the decrypted sample the
  enclave masked), stored canonically so a disputed window can be
  re-executed from the log alone;
* the window's **integrity posture** (was Freivalds-style redundant-share
  verification on, and did the window pass or abort);
* the **decoded-output digest** — the logits the tenant was sent.

Digests must be platform-stable: the same served trace has to commit to
the same bytes on any host, or an auditor's recomputation would "detect
tampering" that is really an endianness or dtype quirk.  Canonical array
serialization therefore widens every array to a fixed-width little-endian
dtype (``<f8`` for floats, ``<i8`` for integers — both exact for the
fixed-point field values and the float64 logits this stack produces),
prefixes the dtype/shape header, and hashes the C-order bytes.  JSON
payloads are canonicalized with sorted keys and no whitespace.
"""

from __future__ import annotations

import base64
import hashlib
import json
from binascii import b2a_base64
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from repro.audit.merkle import payload_root
from repro.errors import AuditError

#: Leaf status marking requests whose shared window aborted and was
#: re-dispatched — their terminal leaf lives in a later window.
STATUS_RETRIED = "retried"

#: Window-status prefix marking a membership-change event (provision /
#: drain / retire) committed as a first-class chained entry on the
#: affected shard's log.
MEMBERSHIP_STATUS_PREFIX = "membership:"

#: The membership-event kinds the chain accepts.
MEMBERSHIP_KINDS = ("provision", "drain", "retire")


# ----------------------------------------------------------------------
# canonical serialization
# ----------------------------------------------------------------------
#: The canonical dtype per numpy dtype kind.
_CANONICAL_DTYPE = {"f": "<f8", "i": "<i8", "u": "<i8", "b": "<i8"}


def _widen(arr: np.ndarray) -> np.ndarray:
    """Widen to the canonical platform-stable dtype (<f8 or <i8), C order.

    Returns ``arr`` itself, uncopied, when it already is canonical.
    """
    a = np.asarray(arr)
    dtype = _CANONICAL_DTYPE.get(a.dtype.kind)
    if dtype is None:
        raise AuditError(f"cannot canonically serialize dtype {a.dtype}")
    return a.astype(dtype, order="C", copy=False)


#: Digest-prefix cache: every request in a deployment shares one input
#: shape (and outputs one logits width), so the prefix is almost always
#: a dictionary hit on the serving hot path.
_HEADER_CACHE: dict[tuple, bytes] = {}


def _header_bytes(a: np.ndarray) -> bytes:
    """The digest prefix of a widened array: its header, then a NUL byte.

    The header is the canonical JSON of ``{"dtype", "shape"}``, built by
    hand (dtype strings and shapes are plain ASCII) so the per-array
    digest skips a ``json.dumps``; the format is byte-identical to
    ``canonical_json_bytes`` of the dict.
    """
    key = (a.dtype.kind, a.shape)
    header = _HEADER_CACHE.get(key)
    if header is None:
        shape = ",".join(str(int(s)) for s in a.shape)
        header = f'{{"dtype":"{a.dtype.str}","shape":[{shape}]}}\x00'.encode("ascii")
        if len(_HEADER_CACHE) < 1024:
            _HEADER_CACHE[key] = header
    return header


def _record(a: np.ndarray) -> dict:
    """The JSON-safe record of an already widened array."""
    return {
        "dtype": _CANONICAL_DTYPE[a.dtype.kind],
        "shape": list(a.shape),
        "data": b2a_base64(a, newline=False).decode("ascii"),
    }


def _digest(a: np.ndarray) -> str:
    """SHA-256 of an already widened array's header, NUL and bytes."""
    h = hashlib.sha256(_header_bytes(a))
    h.update(a)
    return h.hexdigest()


def canonical_array(arr: np.ndarray) -> dict:
    """Serialize an array as a platform-stable JSON-safe record."""
    return _record(_widen(arr))


def array_from_canonical(record: dict) -> np.ndarray:
    """Reconstruct the exact array a :func:`canonical_array` record froze."""
    raw = base64.b64decode(record["data"])
    return np.frombuffer(raw, dtype=np.dtype(record["dtype"])).reshape(
        tuple(record["shape"])
    )


def canonical_json_bytes(obj) -> bytes:
    """Canonical JSON encoding: sorted keys, no whitespace, ASCII only."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def digest_json(obj) -> str:
    """SHA-256 of an object's canonical JSON encoding, as hex."""
    return hashlib.sha256(canonical_json_bytes(obj)).hexdigest()


def array_digest(arr: np.ndarray) -> str:
    """Platform-stable digest of an array (header + canonical bytes)."""
    return _digest(_widen(arr))


#: JSON-escaped string cache (tenant names and status identifiers recur
#: on every leaf of a serving run).
_STR_CACHE: dict[str, str] = {}


def _json_str(s: str) -> str:
    text = _STR_CACHE.get(s)
    if text is None:
        text = json.dumps(s, ensure_ascii=True)
        if len(_STR_CACHE) < 4096:
            _STR_CACHE[s] = text
    return text


def _json_float(x: float) -> str:
    """json's float format: ``repr`` when finite, else its named constants."""
    return repr(x) if isfinite(x) else json.dumps(x)


def _json_opt(value) -> str:
    """A JSON-encoded optional int or str (``null`` for ``None``)."""
    if value is None:
        return "null"
    return _json_str(value) if isinstance(value, str) else str(int(value))


def _leaf_blob(leaf: dict) -> bytes:
    """Canonical bytes of one leaf, spliced by hand.

    Byte-identical to :func:`canonical_json_bytes` of the dict (keys in
    sorted order, compact separators; ``str`` of a list of ints is its
    JSON once the spaces go) — asserted against the generic encoder in
    the test suite.  The splice exists because the generic encoder is
    the single largest cost of committing a window on the serving path.
    """
    record = leaf["input"]
    output_digest = leaf["output_digest"]
    output = "null" if output_digest is None else f'"{output_digest}"'
    shape = str(record["shape"]).replace(" ", "")
    return (
        f'{{"arrival_time":{_json_float(leaf["arrival_time"])},'
        f'"batch_id":{leaf["batch_id"]},'
        f'"input":{{"data":"{record["data"]}","dtype":"{record["dtype"]}","shape":{shape}}},'
        f'"input_digest":"{leaf["input_digest"]}","output_digest":{output},'
        f'"request_id":{leaf["request_id"]},"retries":{leaf["retries"]},'
        f'"status":{_json_str(leaf["status"])},"tenant":{_json_str(leaf["tenant"])}}}'
    ).encode("ascii")


def canonical_meta_bytes(meta: dict) -> bytes:
    """Canonical bytes of :meth:`WindowCommitment.meta`, spliced by hand.

    Byte-identical to :func:`canonical_json_bytes` of the dict (asserted
    in the test suite); every chained window pays this once.
    """
    return (
        f'{{"aborted":{"true" if meta["aborted"] else "false"},'
        f'"batch_ids":{str(meta["batch_ids"]).replace(" ", "")},'
        f'"config_digest":{_json_opt(meta["config_digest"])},'
        f'"error":{_json_opt(meta["error"])},'
        f'"flush_time":{_json_float(meta["flush_time"])},'
        f'"integrity":{"true" if meta["integrity"] else "false"},'
        f'"n_requests":{meta["n_requests"]},"retries":{meta["retries"]},'
        f'"seed":{_json_opt(meta["seed"])},"shard_id":{meta["shard_id"]},'
        f'"status":{_json_str(meta["status"])},"window_id":{_json_opt(meta["window_id"])}}}'
    ).encode("ascii")


# ----------------------------------------------------------------------
# the per-window commitment
# ----------------------------------------------------------------------
@dataclass
class WindowCommitment:
    """Everything one flush window commits to the audit log.

    ``leaves`` are the per-request records (canonical dicts) in dispatch
    order; ``merkle_root`` is the tree over their canonical digests.  The
    window's *metadata* — ids, timing, integrity posture, abort/retry
    marks, the effective-config digest — is chained separately by the
    log, so tampering with either the leaves or the meta breaks
    verification.  ``window_id`` is assigned by the log at append time
    (it is a position in the shard's chain, not a property of the window
    itself).
    """

    shard_id: int
    batch_ids: list[int]
    flush_time: float
    status: str
    leaves: list[dict] = field(default_factory=list)
    aborted: bool = False
    retries: int = 0
    integrity_enabled: bool = False
    error: str | None = None
    config_digest: str | None = None
    seed: int | None = None
    window_id: int | None = None
    #: Canonical bytes per leaf, precomputed by :meth:`build` so the log
    #: digests and persists each leaf without re-encoding it.  Derived
    #: from ``leaves`` — stale if they are mutated afterwards.  Empty on
    #: hand-constructed commitments; consumers fall back to the generic
    #: encoder.
    leaf_blobs: list[bytes] = field(default_factory=list, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        shard_id: int,
        batches: list,
        outputs_by_batch: list,
        status: str,
        aborted: bool = False,
        error: str | None = None,
        integrity_enabled: bool = False,
        config_digest: str | None = None,
        seed: int | None = None,
    ) -> "WindowCommitment":
        """Commit one dispatched window.

        ``outputs_by_batch`` carries, per scheduled batch, the decoded
        logits array (rows aligned with ``batch.requests``) — or ``None``
        for a window that aborted before decoding, whose leaves then
        commit inputs only.
        """
        if len(batches) != len(outputs_by_batch):
            raise AuditError(
                f"window commit needs one output group per batch:"
                f" {len(batches)} batches, {len(outputs_by_batch)} groups"
            )
        leaves: list[dict] = []
        blobs: list[bytes] = []
        for batch, rows in zip(batches, outputs_by_batch):
            if rows is not None and len(rows) != len(batch.requests):
                raise AuditError(
                    f"batch {batch.batch_id}: {len(rows)} output rows for"
                    f" {len(batch.requests)} requests"
                )
            batch_id = int(batch.batch_id)
            retries = int(batch.retries)
            for i, request in enumerate(batch.requests):
                x = _widen(request.x)
                leaf = {
                    "request_id": int(request.request_id),
                    "tenant": request.tenant,
                    "batch_id": batch_id,
                    "arrival_time": float(request.arrival_time),
                    "status": status,
                    "retries": retries,
                    "input": _record(x),
                    "input_digest": _digest(x),
                    "output_digest": None if rows is None else array_digest(rows[i]),
                }
                leaves.append(leaf)
                blobs.append(_leaf_blob(leaf))
        return cls(
            shard_id=shard_id,
            batch_ids=[int(b.batch_id) for b in batches],
            flush_time=min((float(b.flush_time) for b in batches), default=0.0),
            status=status,
            leaves=leaves,
            aborted=aborted,
            retries=max((int(b.retries) for b in batches), default=0),
            integrity_enabled=integrity_enabled,
            error=error,
            config_digest=config_digest,
            seed=seed,
            leaf_blobs=blobs,
        )

    @classmethod
    def build_membership(
        cls,
        shard_id: int,
        kind: str,
        time: float,
        details: dict | None = None,
        config_digest: str | None = None,
        seed: int | None = None,
    ) -> "WindowCommitment":
        """Commit one membership-change event to a shard's chain.

        Elastic membership is audit-visible: a shard that joins
        (``provision``), winds down (``drain``), or leaves (``retire``)
        the deployment gets a first-class chained entry on its *own* log
        with status ``membership:<kind>`` and a single event leaf, so an
        auditor walking the chain sees exactly when the shard served —
        and an operator cannot silently splice a shard's service life out
        of the record.
        """
        if kind not in MEMBERSHIP_KINDS:
            raise AuditError(
                f"unknown membership event kind {kind!r}"
                f" (expected one of {list(MEMBERSHIP_KINDS)})"
            )
        leaf = {
            "event": kind,
            "shard_id": int(shard_id),
            "time": float(time),
            "status": MEMBERSHIP_STATUS_PREFIX + kind,
            "details": dict(details or {}),
        }
        return cls(
            shard_id=int(shard_id),
            batch_ids=[],
            flush_time=float(time),
            status=MEMBERSHIP_STATUS_PREFIX + kind,
            leaves=[leaf],
            config_digest=config_digest,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # digests
    # ------------------------------------------------------------------
    def canonical_leaf_blobs(self) -> list[bytes]:
        """Canonical bytes per leaf (precomputed by :meth:`build`)."""
        if len(self.leaf_blobs) == len(self.leaves):
            return self.leaf_blobs
        return [canonical_json_bytes(leaf) for leaf in self.leaves]

    @property
    def merkle_root(self) -> str:
        """Root of the Merkle tree over the canonical leaf digests."""
        return payload_root(self.canonical_leaf_blobs())

    def meta(self, window_id: int | None = None) -> dict:
        """The chained window metadata (everything but the leaves)."""
        wid = self.window_id if window_id is None else window_id
        return {
            "window_id": wid,
            "shard_id": int(self.shard_id),
            "batch_ids": list(self.batch_ids),
            "flush_time": float(self.flush_time),
            "status": self.status,
            "aborted": bool(self.aborted),
            "retries": int(self.retries),
            "n_requests": len(self.leaves),
            "integrity": bool(self.integrity_enabled),
            "error": self.error,
            "config_digest": self.config_digest,
            "seed": self.seed,
        }
