"""Tests for the toy AEAD, key exchange and serialisation helpers."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.comm import LinkModel
from repro.comm.secure_channel import SecureChannel
from repro.enclave import (
    DiffieHellman,
    StreamAead,
    array_to_bytes,
    bytes_to_array,
    derive_key,
)
from repro.errors import CommunicationError


def test_derive_key_deterministic_and_distinct():
    k1 = derive_key(b"a", b"b")
    k2 = derive_key(b"a", b"b")
    k3 = derive_key(b"ab", b"")  # length-prefixing prevents concat collisions
    assert k1 == k2
    assert k1 != k3
    assert len(k1) == 32


def test_aead_roundtrip(nprng):
    aead = StreamAead(derive_key(b"secret"), nprng)
    plaintext = b"the quick brown fox" * 10
    ct = aead.encrypt(plaintext, aad=b"header")
    assert ct.data != plaintext
    assert aead.decrypt(ct) == plaintext


def test_aead_detects_ciphertext_tamper(nprng):
    aead = StreamAead(derive_key(b"secret"), nprng)
    ct = aead.encrypt(b"hello world")
    bad = type(ct)(nonce=ct.nonce, data=b"X" + ct.data[1:], tag=ct.tag, aad=ct.aad)
    with pytest.raises(CommunicationError):
        aead.decrypt(bad)


def test_aead_detects_aad_tamper(nprng):
    aead = StreamAead(derive_key(b"secret"), nprng)
    ct = aead.encrypt(b"hello", aad=b"v1")
    bad = type(ct)(nonce=ct.nonce, data=ct.data, tag=ct.tag, aad=b"v2")
    with pytest.raises(CommunicationError):
        aead.decrypt(bad)


def test_aead_nonces_fresh_per_message(nprng):
    aead = StreamAead(derive_key(b"secret"), nprng)
    a = aead.encrypt(b"same plaintext")
    b = aead.encrypt(b"same plaintext")
    assert a.nonce != b.nonce
    assert a.data != b.data


#: sha256(nonce || data || tag) per plaintext length, recorded from the
#: original per-byte implementation: the wire bytes must never change.
KNOWN_ANSWERS = {
    0: "bce5a07db1b116973a9aa90860715d9c7f7deeb7f8dd2fbc64a6a9a02e4cd709",
    1: "fef0959037416c04dd7cf3bbbd60768e38e891ac8afcd7a1b9828b930865335c",
    63: "0535227e3a04c7684d13545992f1f718a990a33a28a6ded8cd5cd2bab4fb7cf4",
    64: "903ddb9f23caadc1e3d1b5ea6a3fec3ef3cf381c415cc90f05c69f231b89d75b",
    65: "6bbb0afd240bae2eb2281cdcb1667238f697cf8073c73d36c0912477e00f8f02",
    4096: "086d57359ffc9674d2d81603bfb4230342cd589d1f9e410bca427948a251b2da",
    20000: "c2b1d74d3d4b856a6ae68b5e0e1c2bd32bada9c8b03639239953aadc1075381a",
}


def test_aead_known_answers():
    aead = StreamAead(derive_key(b"known-answer"), np.random.default_rng(2021))
    source = np.random.default_rng(7).bytes(20000)
    for length, expected in KNOWN_ANSWERS.items():
        ct = aead.encrypt(source[:length], aad=b"kat-aad")
        assert len(ct.data) == length
        assert hashlib.sha256(ct.nonce + ct.data + ct.tag).hexdigest() == expected
        assert aead.decrypt(ct) == source[:length]


def _flip(blob: bytes) -> bytes:
    return bytes([blob[0] ^ 0x01]) + blob[1:]


#: One tampered field per case: a ciphertext byte, a tag byte, the aad.
TAMPERS = {
    "data": lambda ct: dataclasses.replace(ct, data=_flip(ct.data)),
    "tag": lambda ct: dataclasses.replace(ct, tag=_flip(ct.tag)),
    "aad": lambda ct: dataclasses.replace(ct, aad=ct.aad + b"-swapped"),
}


@pytest.mark.parametrize("part", sorted(TAMPERS))
def test_aead_checks_the_tag_before_decrypting(part, nprng, monkeypatch):
    aead = StreamAead(derive_key(b"secret"), nprng)
    bad = TAMPERS[part](aead.encrypt(b"hello world" * 10, aad=b"hdr"))

    def no_keystream(*args):
        raise AssertionError("keystream generated for a tampered blob")

    monkeypatch.setattr(StreamAead, "_keystream", no_keystream)
    with pytest.raises(CommunicationError):
        aead.decrypt(bad)


def test_recv_array_returns_a_fresh_writable_array():
    tx, rx = SecureChannel.establish_pair("a", "b", LinkModel(), np.random.default_rng(0))
    sent = np.arange(12, dtype=np.int64).reshape(3, 4)
    env = tx.send_array(sent)
    got = rx.recv_array(env)
    assert got.flags.writeable
    assert not np.shares_memory(got, np.frombuffer(env.ciphertext.data, dtype=np.uint8))
    got[:] = -1
    assert np.array_equal(rx.recv_array(env), sent)


def test_aead_rejects_short_key():
    with pytest.raises(CommunicationError):
        StreamAead(b"short")


def test_ciphertext_nbytes(nprng):
    aead = StreamAead(derive_key(b"k"), nprng)
    ct = aead.encrypt(b"12345678", aad=b"aa")
    assert ct.nbytes == len(ct.nonce) + len(ct.data) + len(ct.tag) + len(ct.aad)


def test_dh_agreement(nprng):
    alice = DiffieHellman(nprng)
    bob = DiffieHellman(nprng)
    assert alice.shared_key(bob.public) == bob.shared_key(alice.public)


def test_dh_distinct_sessions(nprng):
    a1, b1 = DiffieHellman(nprng), DiffieHellman(nprng)
    a2, b2 = DiffieHellman(nprng), DiffieHellman(nprng)
    assert a1.shared_key(b1.public) != a2.shared_key(b2.public)


def test_dh_rejects_bad_public(nprng):
    with pytest.raises(CommunicationError):
        DiffieHellman(nprng).shared_key(1)


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.int32])
def test_array_serialisation_roundtrip(dtype, nprng):
    arr = (nprng.normal(size=(3, 4, 5)) * 100).astype(dtype)
    data, meta = array_to_bytes(arr)
    back = bytes_to_array(data, meta)
    assert back.dtype == arr.dtype
    assert np.array_equal(back, arr)
