"""Toy authenticated encryption and key exchange for the SGX simulator.

**Not cryptographically secure.**  These are deterministic, dependency-free
stand-ins modelling the *interface and cost* of the primitives a real
enclave uses (AES-GCM page encryption, ECDH session keys): a BLAKE2b-keyed
stream cipher with a BLAKE2b MAC, and finite-field Diffie-Hellman over a
fixed 256-bit prime.  They let the simulator exercise the same control flow
— key derivation, nonce handling, tag verification failures — that the real
system depends on, with byte counts the performance model can charge.

Every sealed hop, tenant session and sealed blob goes through
:class:`StreamAead`, so its speed shows up end to end.  The XOR and the
tag are single C calls (one numpy XOR, one copy of a cached keyed BLAKE2b
state).  What dominates now is the keystream loop: one Python-level
``copy/update/digest`` per 64-byte block, about 0.7 µs each on a
2-vCPU Xeon, so encrypting plus decrypting 16 KiB takes ~0.37 ms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import CommunicationError

#: secp256k1's base-field prime — just a convenient public 256-bit prime.
DH_PRIME = 2**256 - 2**32 - 977
DH_GENERATOR = 3

_BLOCK = 64  # BLAKE2b digest size, bytes per keystream block


def derive_key(*parts: bytes, context: bytes = b"repro-kdf") -> bytes:
    """Derive a 32-byte key from the concatenated parts (BLAKE2b KDF)."""
    h = hashlib.blake2b(person=context[:16], digest_size=32)
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.digest()


@dataclass(frozen=True)
class Ciphertext:
    """An encrypted, authenticated blob."""

    nonce: bytes
    data: bytes
    tag: bytes
    aad: bytes = b""

    @property
    def nbytes(self) -> int:
        """Wire size (what the link model charges)."""
        return len(self.nonce) + len(self.data) + len(self.tag) + len(self.aad)


class StreamAead:
    """Encrypt-then-MAC stream cipher with 12-byte random nonces.

    The keystream is counter-mode ``BLAKE2b(key, nonce || counter)`` and
    the tag ``BLAKE2b(key, person="repro-mac")`` over the length-prefixed
    nonce, aad and ciphertext.  Both keyed states are built once here;
    every call ``copy()``s them, which yields the same digests as keying
    afresh.
    """

    NONCE_BYTES = 12

    def __init__(self, key: bytes, rng: np.random.Generator | None = None) -> None:
        if len(key) < 16:
            raise CommunicationError("key must be at least 16 bytes")
        self._stream_state = hashlib.blake2b(key=key, digest_size=_BLOCK)
        self._mac_state = hashlib.blake2b(key=key, digest_size=16, person=b"repro-mac")
        self._rng = rng or np.random.default_rng()

    def _keystream(self, nonce: bytes, length: int) -> np.ndarray:
        """``length`` keystream bytes: one BLAKE2b block per 64-byte counter."""
        seeded = self._stream_state.copy()
        seeded.update(nonce)
        copy = seeded.copy
        blocks = []
        for counter in range((length + _BLOCK - 1) // _BLOCK):
            h = copy()
            h.update(counter.to_bytes(8, "little"))
            blocks.append(h.digest())
        return np.frombuffer(b"".join(blocks), dtype=np.uint8, count=length)

    def _mac(self, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        h = self._mac_state.copy()
        for part in (nonce, aad, ciphertext):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
        return h.digest()

    def encrypt(self, plaintext: bytes, aad: bytes = b"") -> Ciphertext:
        """Encrypt and authenticate ``plaintext`` binding optional ``aad``."""
        nonce = self._rng.bytes(self.NONCE_BYTES)
        stream = self._keystream(nonce, len(plaintext))
        data = np.bitwise_xor(np.frombuffer(plaintext, dtype=np.uint8), stream).tobytes()
        tag = self._mac(nonce, aad, data)
        return Ciphertext(nonce=nonce, data=data, tag=tag, aad=aad)

    def decrypt(self, ct: Ciphertext) -> bytearray:
        """Verify the tag, then decrypt into a fresh writable buffer.

        Raises :class:`CommunicationError` on any tamper, before any
        keystream is generated.
        """
        if self._mac(ct.nonce, ct.aad, ct.data) != ct.tag:
            raise CommunicationError("authentication tag mismatch (tampered blob)")
        plaintext = bytearray(len(ct.data))
        np.bitwise_xor(
            np.frombuffer(ct.data, dtype=np.uint8),
            self._keystream(ct.nonce, len(ct.data)),
            out=np.frombuffer(plaintext, dtype=np.uint8),
        )
        return plaintext


class DiffieHellman:
    """Finite-field DH over a fixed 256-bit prime (session-key agreement).

    Mirrors the paper's "pairwise secure channel between TEE and each GPU
    can be established using a secret key exchange protocol".
    """

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        rng = rng or np.random.default_rng()
        self._private = int.from_bytes(rng.bytes(32), "little") % (DH_PRIME - 2) + 1
        self.public = pow(DH_GENERATOR, self._private, DH_PRIME)

    def shared_key(self, peer_public: int) -> bytes:
        """Derive the 32-byte session key from the peer's public value."""
        if not 1 < peer_public < DH_PRIME:
            raise CommunicationError("invalid peer public value")
        secret = pow(peer_public, self._private, DH_PRIME)
        return derive_key(secret.to_bytes(32, "little"), context=b"repro-dh")


# ----------------------------------------------------------------------
# numpy array (de)serialisation helpers
# ----------------------------------------------------------------------


def array_to_bytes(arr: np.ndarray) -> tuple[bytes, dict]:
    """Serialise an array to raw bytes plus the metadata to rebuild it."""
    arr = np.ascontiguousarray(arr)
    meta = {"dtype": arr.dtype.str, "shape": arr.shape}
    return arr.tobytes(), meta


def bytes_to_array(data: bytes | bytearray, meta: dict) -> np.ndarray:
    """Rebuild an array serialised by :func:`array_to_bytes`, without a copy.

    The result is a view of ``data``: writable when ``data`` is a
    ``bytearray`` (as :meth:`StreamAead.decrypt` returns), read-only for
    ``bytes``.
    """
    return np.frombuffer(data, dtype=np.dtype(meta["dtype"])).reshape(meta["shape"])
