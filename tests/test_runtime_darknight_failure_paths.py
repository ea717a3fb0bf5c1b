"""Failure-injection tests for the DarKnight backend's guard rails."""

import numpy as np
import pytest

from repro.errors import DecodingError, QuantizationError
from repro.fieldmath import PrimeField
from repro.gpu import GpuCluster, RandomTamper
from repro.runtime import DarKnightBackend, DarKnightConfig


def test_validate_decode_catches_silent_corruption(nprng):
    """Without the integrity share, validate_decode is the debug net that
    still catches a tampering GPU (by disagreeing with the float reference)."""
    field = PrimeField()
    cfg = DarKnightConfig(
        virtual_batch_size=2, integrity=False, validate_decode=True, seed=0
    )
    cluster = GpuCluster(
        field,
        cfg.n_gpus_required,
        fault_injectors={
            0: RandomTamper(field, probability=1.0, n_entries=8, seed=1)
        },
    )
    backend = DarKnightBackend(cfg, cluster=cluster)
    x = nprng.normal(size=(2, 16))
    w = nprng.normal(size=(16, 4))
    with pytest.raises(DecodingError, match="deviates from float reference"):
        backend.dense_forward(x, w, None, key="d")


def test_quantization_overflow_raises_without_normalization(nprng):
    """With dynamic normalisation off, out-of-range values fail loudly
    instead of silently wrapping mod p (the paper's VGG failure mode)."""
    cfg = DarKnightConfig(
        virtual_batch_size=2, dynamic_normalization=False, seed=0
    )
    backend = DarKnightBackend(cfg)
    x = nprng.normal(size=(2, 8)) * 1e6  # far beyond the signed field range
    w = nprng.normal(size=(8, 3))
    with pytest.raises(QuantizationError):
        backend.dense_forward(x, w, None, key="d")


def test_dynamic_normalization_rescues_the_same_input(nprng):
    """The paper's VGG fix, demonstrated: identical out-of-range input works
    once max-abs normalisation is enabled."""
    cfg = DarKnightConfig(virtual_batch_size=2, dynamic_normalization=True, seed=0)
    backend = DarKnightBackend(cfg)
    x = nprng.normal(size=(2, 8)) * 1e6
    w = nprng.normal(size=(8, 3))
    out = backend.dense_forward(x, w, None, key="d")
    reference = x @ w
    rel_err = np.max(np.abs(out - reference)) / np.max(np.abs(reference))
    assert rel_err < 0.05


def test_mismatched_prime_rejected():
    from repro.enclave import Enclave

    cfg = DarKnightConfig(virtual_batch_size=2, prime=2**25 - 39)
    wrong_field_enclave = Enclave(field=PrimeField(p=10007), seed=0)
    with pytest.raises(DecodingError, match="prime"):
        DarKnightBackend(cfg, enclave=wrong_field_enclave)


def test_backward_integrity_catches_eq_only_tamper(nprng):
    """A device that lies only on the backward Eq op (honest forward) is
    caught by the alternate-B redundant decode."""
    from repro.errors import IntegrityError
    from repro.gpu import TargetedTamper

    field = PrimeField()
    cfg = DarKnightConfig(virtual_batch_size=2, integrity=True, seed=0)
    cluster = GpuCluster(
        field,
        cfg.n_gpus_required,
        fault_injectors={
            1: TargetedTamper(
                RandomTamper(field, probability=1.0, seed=2),
                target_op="backward_equation_dense",
            )
        },
    )
    backend = DarKnightBackend(cfg, cluster=cluster)
    x = nprng.normal(size=(2, 8))
    w = nprng.normal(size=(8, 3))
    backend.dense_forward(x, w, None, key="d")  # forward is honest -> passes
    with pytest.raises(IntegrityError):
        backend.dense_grad_w(x, nprng.normal(size=(2, 3)) * 0.1, key="d")


def _single_subset_coefficients(field):
    """K=1, M=1 plus one redundant share whose encoding column is zero:
    every subset but the primary is singular, and the redundant share
    checks nothing about the primary ones."""
    from repro.masking import CoefficientSet

    a = np.array([[3, 5, 0], [7, 11, 0]], dtype=np.int64)
    gamma = np.array([1, 2, 3], dtype=np.int64)
    b = CoefficientSet._solve_b(field, a, gamma, 1, 1, (0, 1))
    coeffs = CoefficientSet(
        field=field, k=1, m=1, a=a, gamma=gamma, b=b, primary_subset=(0, 1)
    )
    assert list(coeffs.iter_decoding_subsets()) == [(0, 1)]
    return coeffs


def _backend_with(coeffs):
    cfg = DarKnightConfig(virtual_batch_size=1, integrity=True, seed=0)
    backend = DarKnightBackend(cfg)
    backend._fresh_coefficients = lambda: coeffs
    return backend


def test_forward_integrity_refuses_set_with_blind_shares(nprng):
    from repro.errors import IntegrityError

    backend = _backend_with(_single_subset_coefficients(PrimeField()))
    with pytest.raises(IntegrityError, match="undetectable"):
        backend.dense_forward(nprng.normal(size=(1, 8)), nprng.normal(size=(8, 3)), None, key="d")


def test_backward_integrity_refuses_set_without_alternate_subset(nprng, monkeypatch):
    """With integrity on, a gradient that cannot be re-decoded from a
    second subset raises instead of going out unverified."""
    from repro.errors import IntegrityError

    backend = _backend_with(_single_subset_coefficients(PrimeField()))
    # Let the forward through so the backward check is reached.
    monkeypatch.setattr(backend, "_verify_forward", lambda coeffs, outputs: None)
    x = nprng.normal(size=(1, 8))
    backend.dense_forward(x, nprng.normal(size=(8, 3)), None, key="d")
    with pytest.raises(IntegrityError, match="alternate decode subset"):
        backend.dense_grad_w(x, nprng.normal(size=(1, 3)) * 0.1, key="d")
