"""Tests for sealing and the untrusted blob store."""

import dataclasses

import numpy as np
import pytest

from repro.enclave import Sealer, UntrustedStore, measure_enclave
from repro.errors import CommunicationError, SealingError


@pytest.fixture()
def sealer(nprng):
    return Sealer(b"platform-root-key", measure_enclave("enclave-v1"), nprng)


def test_seal_unseal_roundtrip(sealer, nprng):
    arr = nprng.normal(size=(4, 7))
    blob = sealer.seal(arr, label=b"gradients")
    assert np.array_equal(sealer.unseal(blob), arr)


@pytest.mark.parametrize("part", ["data", "tag", "aad"])
def test_tampered_blob_fails_authentication(part, sealer, nprng):
    blob = sealer.seal(nprng.normal(size=(4, 7)), label=b"gradients")
    ct = blob.ciphertext
    if part == "aad":
        bad = dataclasses.replace(ct, aad=b"weights")
    else:
        value = getattr(ct, part)
        bad = dataclasses.replace(ct, **{part: bytes([value[0] ^ 0x01]) + value[1:]})
    with pytest.raises(SealingError) as excinfo:
        sealer.unseal(dataclasses.replace(blob, ciphertext=bad))
    assert isinstance(excinfo.value.__cause__, CommunicationError)


def test_unsealed_array_is_writable(sealer, nprng):
    arr = nprng.normal(size=(5,))
    out = sealer.unseal(sealer.seal(arr))
    out += 1.0
    assert np.array_equal(out, arr + 1.0)


def test_wrong_enclave_cannot_unseal(sealer, nprng):
    arr = nprng.normal(size=(3,))
    blob = sealer.seal(arr)
    other = Sealer(b"platform-root-key", measure_enclave("evil-enclave"), nprng)
    with pytest.raises(SealingError):
        other.unseal(blob)


def test_wrong_platform_cannot_unseal(sealer, nprng):
    arr = nprng.normal(size=(3,))
    blob = sealer.seal(arr)
    other = Sealer(b"different-fuse-key!", sealer.measurement, nprng)
    with pytest.raises(SealingError):
        other.unseal(blob)


def test_store_evict_reload_accounting(sealer, nprng):
    store = UntrustedStore()
    blob = sealer.seal(nprng.normal(size=(16,)))
    store.evict("w1", blob)
    assert store.bytes_written == blob.nbytes
    got = store.reload("w1")
    assert store.bytes_read == blob.nbytes
    assert np.array_equal(sealer.unseal(got), sealer.unseal(blob))


def test_store_missing_key(sealer):
    store = UntrustedStore()
    with pytest.raises(SealingError):
        store.reload("missing")


def test_store_drop_and_keys(sealer, nprng):
    store = UntrustedStore()
    store.evict("a", sealer.seal(nprng.normal(size=(2,))))
    store.evict("b", sealer.seal(nprng.normal(size=(2,))))
    assert sorted(store.keys()) == ["a", "b"]
    store.drop("a")
    assert store.keys() == ["b"]
    store.drop("a")  # idempotent


def test_adversarial_tamper_is_caught(sealer, nprng):
    store = UntrustedStore()
    store.evict("w", sealer.seal(nprng.normal(size=(8,))))
    store.tamper("w", position=3)
    with pytest.raises(SealingError):
        sealer.unseal(store.reload("w"))


def test_label_binding(sealer, nprng):
    arr = nprng.normal(size=(4,))
    blob = sealer.seal(arr, label=b"vb0")
    # Re-wrapping with a different label must fail authentication.
    from repro.enclave.crypto import Ciphertext
    from repro.enclave.sealing import SealedBlob

    forged = SealedBlob(
        ciphertext=Ciphertext(
            nonce=blob.ciphertext.nonce,
            data=blob.ciphertext.data,
            tag=blob.ciphertext.tag,
            aad=b"vb1",
        ),
        dtype=blob.dtype,
        shape=blob.shape,
    )
    with pytest.raises(SealingError):
        sealer.unseal(forged)
