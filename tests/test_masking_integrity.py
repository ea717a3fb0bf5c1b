"""Tests for the redundant-share integrity machinery (Section 4.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError, IntegrityError
from repro.fieldmath import FieldRng, PrimeField, field_matmul
from repro.masking import (
    BackwardDecoder,
    BackwardEncoder,
    CoefficientSet,
    ForwardEncoder,
    IntegrityVerifier,
)


def _setup(frng, field, k=2, m=1, extra=1):
    coeffs = CoefficientSet.generate(frng, k=k, m=m, extra_shares=extra)
    x = frng.uniform((k, 6))
    batch = ForwardEncoder(coeffs, frng).encode(x)
    w = frng.uniform((4, 6))
    outputs = np.stack(
        [field_matmul(field, w, s.reshape(-1, 1)).ravel() for s in batch.shares]
    )
    return coeffs, batch, outputs


def test_honest_results_verify(frng, field):
    coeffs, _, outputs = _setup(frng, field)
    report = IntegrityVerifier(coeffs).verify_forward(outputs)
    assert report.consistent
    assert report.subsets_checked >= 2
    report.raise_on_failure()  # no-op when consistent


@pytest.mark.parametrize("victim", [0, 1, 2, 3])
def test_single_tamper_always_detected(frng, field, victim):
    coeffs, _, outputs = _setup(frng, field)
    tampered = outputs.copy()
    tampered[victim, 0] = field.add(tampered[victim, 0], 1)
    report = IntegrityVerifier(coeffs).verify_forward(tampered)
    assert not report.consistent
    with pytest.raises(IntegrityError):
        report.raise_on_failure()


def test_k_prime_minus_one_security(frng, field):
    """Even when all but one GPU lie, the decode disagreement is detected."""
    coeffs, _, outputs = _setup(frng, field, k=2, m=1, extra=1)
    tampered = outputs.copy()
    for victim in range(coeffs.n_shares - 1):
        tampered[victim] = field.add(tampered[victim], victim + 1)
    report = IntegrityVerifier(coeffs).verify_forward(tampered)
    assert not report.consistent


def test_localisation_with_two_redundant_shares(frng, field):
    """With >= 2 extra shares, the verifier can name the culprit."""
    coeffs, _, outputs = _setup(frng, field, k=2, m=1, extra=2)
    victim = 1
    tampered = outputs.copy()
    tampered[victim, 2] = field.add(tampered[victim, 2], 7)
    verifier = IntegrityVerifier(coeffs, max_subsets=12)
    report = verifier.verify_forward(tampered)
    assert not report.consistent
    assert victim in report.suspected_shares


def test_localisation_impossible_with_single_extra_share(frng, field):
    """One redundant share detects but cannot localise — expected behaviour."""
    coeffs, _, outputs = _setup(frng, field, k=2, m=1, extra=1)
    tampered = outputs.copy()
    tampered[0, 0] = field.add(tampered[0, 0], 5)
    report = IntegrityVerifier(coeffs).verify_forward(tampered)
    assert not report.consistent
    assert report.suspected_shares == ()


def test_verifier_requires_redundancy(frng):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=0)
    with pytest.raises(IntegrityError):
        IntegrityVerifier(coeffs)


def test_verifier_requires_two_subsets(frng):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    with pytest.raises(IntegrityError):
        IntegrityVerifier(coeffs, max_subsets=1)


def test_noise_coordinate_tampering_detected(frng, field):
    """A tamper that shifts only the recovered noise product is caught too."""
    coeffs, batch, outputs = _setup(frng, field)
    # Craft a tamper on the extra share (unused by the primary decode).
    tampered = outputs.copy()
    tampered[coeffs.n_shares - 1] = field.add(tampered[coeffs.n_shares - 1], 3)
    report = IntegrityVerifier(coeffs).verify_forward(tampered)
    assert not report.consistent


def test_backward_verification(frng, field):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=1)
    x = frng.uniform((2, 5))
    batch = ForwardEncoder(coeffs, frng).encode(x)
    deltas = frng.uniform((2, 3))
    op = lambda d, xi: field_matmul(field, d.reshape(-1, 1), xi.reshape(1, -1))
    encoder = BackwardEncoder(coeffs)
    eq_primary = np.stack(
        [op(encoder.combine_deltas(deltas, j), batch.shares[j]) for j in range(coeffs.n_shares)]
    )
    primary = BackwardDecoder(coeffs).decode(eq_primary)

    alt = next(s for s in coeffs.iter_decoding_subsets() if s != coeffs.primary_subset)
    b_alt, gamma = coeffs.backward_matrices_for_subset(alt)
    eq_alt = np.stack(
        [
            op(field_matmul(field, b_alt[j].reshape(1, -1), deltas).ravel(), batch.shares[j])
            for j in range(coeffs.n_shares)
        ]
    )
    alternate = BackwardDecoder(coeffs).decode_with_matrices(eq_alt, b_alt, gamma)

    verifier = IntegrityVerifier(coeffs)
    ok = verifier.verify_backward({coeffs.primary_subset: primary, alt: alternate})
    assert ok.consistent

    bad = verifier.verify_backward(
        {coeffs.primary_subset: primary, alt: field.add(alternate, 1)}
    )
    assert not bad.consistent
    with pytest.raises(IntegrityError):
        verifier.verify_backward({coeffs.primary_subset: primary})


# ----------------------------------------------------------------------
# parity-check fast path vs the multi-subset compare (its slow path/oracle)
# ----------------------------------------------------------------------
_shapes = dict(
    k=st.integers(1, 4), m=st.integers(1, 2), extra=st.integers(1, 2), seed=st.integers(0, 10_000)
)
_settings = settings(max_examples=25, deadline=None)


def _honest(k, m, extra, seed, features=5):
    """A random coefficient set and honest GPU outputs ``Aᵀ·[Y | W·R]``."""
    field = PrimeField()
    frng = FieldRng(field, seed)
    coeffs = CoefficientSet.generate(frng, k=k, m=m, extra_shares=extra)
    outputs = field_matmul(field, coeffs.a.T, frng.uniform((coeffs.n_sources, features)))
    return field, frng, coeffs, outputs


def _same_verdict(coeffs, outputs) -> bool:
    verifier = IntegrityVerifier(coeffs)
    consistent = verifier.verify_forward(outputs).consistent
    assert consistent == verifier.compare_subsets(outputs).consistent
    return consistent


@_settings
@given(**_shapes)
def test_parity_checks_annihilate_a(k, m, extra, seed):
    field, _, coeffs, _ = _honest(k, m, extra, seed)
    checks = coeffs.parity_checks()
    assert checks.shape == (extra, coeffs.n_shares)
    assert not field_matmul(field, coeffs.a, checks.T).any()
    # The non-primary columns hold an identity block, so rank(C) = extra.
    others = [j for j in range(coeffs.n_shares) if j not in coeffs.primary_subset]
    assert np.array_equal(checks[:, others], np.eye(extra, dtype=np.int64))
    assert coeffs.parity_checks() is checks  # memoised on the frozen set


@_settings
@given(**_shapes)
def test_parity_verdict_matches_multi_subset_compare(k, m, extra, seed):
    field, frng, coeffs, outputs = _honest(k, m, extra, seed)
    assert _same_verdict(coeffs, outputs)
    # Single-share tamper at every index: always caught.
    column = seed % outputs.shape[1]
    for victim in range(coeffs.n_shares):
        tampered = outputs.copy()
        tampered[victim, column] = field.add(tampered[victim, column], 1 + victim)
        assert not _same_verdict(coeffs, tampered)
    # Several shares lying at once.
    noise = frng.uniform(outputs.shape)
    noise[seed % coeffs.n_shares] = 0
    assert not _same_verdict(coeffs, field.add(outputs, noise))
    # A tamper that moves only the primary decode's W·r coordinate.
    delta = field.zeros((coeffs.n_sources, outputs.shape[1]))
    delta[coeffs.k :] = frng.nonzero((coeffs.m, outputs.shape[1]))
    shift = field.zeros(outputs.shape)
    primary = list(coeffs.primary_subset)
    shift[primary] = field_matmul(field, coeffs.a[:, primary].T, delta)
    assert not _same_verdict(coeffs, field.add(outputs, shift))
    # A tamper consistent with A itself (δ·A) escapes both, by design.
    consistent = field_matmul(field, coeffs.a.T, frng.uniform(delta.shape))
    assert _same_verdict(coeffs, field.add(outputs, consistent))


@_settings
@given(k=st.integers(1, 4), m=st.integers(1, 2), seed=st.integers(0, 10_000))
def test_localisation_with_two_extra_shares_unchanged(k, m, seed):
    field, _, coeffs, outputs = _honest(k, m, 2, seed)
    verifier = IntegrityVerifier(coeffs, max_subsets=64)
    for victim in range(coeffs.n_shares):
        tampered = outputs.copy()
        tampered[victim, 1] = field.add(tampered[victim, 1], 7)
        report = verifier.verify_forward(tampered)
        assert not report.consistent
        assert report.suspected_shares == verifier.compare_subsets(tampered).suspected_shares
        assert victim in report.suspected_shares


@_settings
@given(**_shapes)
def test_blind_share_is_refused(k, m, extra, seed):
    """A share outside every parity equation makes the verifier refuse."""
    field, frng, coeffs, outputs = _honest(k, m, extra, seed)
    blind = coeffs.primary_subset[seed % coeffs.n_sources]
    # Re-express every non-primary column through the primary columns other
    # than ``blind``; the primary block stays invertible.
    a = coeffs.a.copy()
    rest = [j for j in coeffs.primary_subset if j != blind]
    for e in range(coeffs.n_sources, coeffs.n_shares):
        a[:, e] = field_matmul(field, a[:, rest], frng.uniform((len(rest), 1))).ravel()
    b = CoefficientSet._solve_b(field, a, coeffs.gamma, k, m, coeffs.primary_subset)
    blind_set = CoefficientSet(
        field=field, k=k, m=m, a=a, gamma=coeffs.gamma, b=b,
        primary_subset=coeffs.primary_subset,
    )
    assert not blind_set.parity_checks()[:, blind].any()
    with pytest.raises(IntegrityError, match="undetectable"):
        IntegrityVerifier(blind_set).verify_forward(outputs)


def test_honest_path_decodes_nothing(frng, field, monkeypatch):
    coeffs, _, outputs = _setup(frng, field, k=4, m=1, extra=1)
    verifier = IntegrityVerifier(coeffs)

    def refuse(*args, **kwargs):
        raise AssertionError("honest outputs must not be decoded")

    monkeypatch.setattr(verifier._decoder, "decode", refuse)
    report = verifier.verify_forward(outputs)
    assert report.consistent
    assert report.subsets_checked == 2


def test_verifier_rejects_missing_share_rows(frng, field):
    coeffs, _, outputs = _setup(frng, field)
    with pytest.raises(DecodingError):
        IntegrityVerifier(coeffs).verify_forward(outputs[:-1])


def test_slow_path_bookkeeping_is_memoised(frng):
    coeffs = CoefficientSet.generate(frng, k=2, m=1, extra_shares=2)
    subsets = list(coeffs.iter_decoding_subsets(limit=4))
    assert len(subsets) == 4 and subsets[0] == coeffs.primary_subset
    assert list(coeffs.iter_decoding_subsets(limit=4)) == subsets
    first, gamma = coeffs.backward_matrices_for_subset(subsets[1])
    again, _ = coeffs.backward_matrices_for_subset(list(subsets[1]))
    assert again is first and gamma is coeffs.gamma
