"""Property tests: the limb/Barrett kernels are bit-identical to the oracle.

The limb backend's exactness argument (13-bit limb products accumulated in
float64 below 2**53) is proved in :mod:`repro.fieldmath.kernels`; these
tests attack it empirically — randomized shapes and values, all-zero and
all-``p-1`` adversarial operands, contractions straddling every dispatch
boundary (2-GEMM -> Karatsuba -> generic fallback) — and pin the backend
registry / config / CLI plumbing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FieldError
from repro.fieldmath import (
    BarrettReducer,
    FieldRng,
    PrimeField,
    default_backend_name,
    field_matmul,
    get_backend,
    set_default_backend,
    use_backend,
)
from repro.fieldmath.kernels import (
    BACKENDS,
    GenericBackend,
    LimbBackend,
    karatsuba_limit,
    two_gemm_limit,
)

FIELD = PrimeField()
GENERIC = GenericBackend()
LIMB = LimbBackend()


def _bigint_matmul(a, b, p):
    """Exact reference via Python big ints."""
    return np.mod(a.astype(object) @ b.astype(object), p).astype(np.int64)


# ----------------------------------------------------------------------
# limb GEMM == generic oracle == bigint reference
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 7),
    k=st.integers(1, 40),
    cols=st.integers(1, 7),
    seed=st.integers(0, 10_000),
)
def test_limb_matmul_matches_oracle_random(rows, k, cols, seed):
    rng = FieldRng(FIELD, seed)
    a, b = rng.uniform((rows, k)), rng.uniform((k, cols))
    expected = GENERIC.matmul(FIELD, a, b, 4096)
    assert np.array_equal(expected, _bigint_matmul(a, b, FIELD.p))
    assert np.array_equal(LIMB.matmul(FIELD, a, b, 4096), expected)


@pytest.mark.parametrize("value", [0, 1, PrimeField().p - 1])
@pytest.mark.parametrize("k", [1, 7, 4096])
def test_limb_matmul_extreme_values(value, k):
    a = np.full((3, k), value, dtype=np.int64)
    b = np.full((k, 2), value, dtype=np.int64)
    assert np.array_equal(
        LIMB.matmul(FIELD, a, b, 4096), GENERIC.matmul(FIELD, a, b, 4096)
    )


def test_limb_matmul_max_k_accumulation_edge():
    """Worst case at the 2-GEMM bound: every operand entry is ``p - 1``."""
    for k in (two_gemm_limit(FIELD.p) - 1, two_gemm_limit(FIELD.p)):
        a = np.full((1, k), FIELD.p - 1, dtype=np.int64)
        b = np.full((k, 1), FIELD.p - 1, dtype=np.int64)
        expected = pow(FIELD.p - 1, 2, FIELD.p) * k % FIELD.p
        assert LIMB.matmul(FIELD, a, b, 4096)[0, 0] == expected


def test_limb_matmul_karatsuba_branch_past_two_gemm_bound():
    """Contractions just past the 2-GEMM bound switch to the 3-GEMM path."""
    k = two_gemm_limit(FIELD.p) + 1
    a = np.full((1, k), FIELD.p - 1, dtype=np.int64)
    b = np.full((k, 1), FIELD.p - 1, dtype=np.int64)
    expected = pow(FIELD.p - 1, 2, FIELD.p) * k % FIELD.p
    assert LIMB.matmul(FIELD, a, b, 4096)[0, 0] == expected


@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 60), seed=st.integers(0, 1000))
def test_forced_dispatch_branches_agree(k, seed):
    """Tiny caps force each branch (2-GEMM / Karatsuba / generic) on the
    same operands; all three must agree bit-for-bit."""
    rng = FieldRng(FIELD, seed)
    a, b = rng.uniform((4, k)), rng.uniform((k, 3))
    expected = GENERIC.matmul(FIELD, a, b, 4096)
    forced_kara = LimbBackend(two_gemm_cap=0)
    forced_fallback = LimbBackend(two_gemm_cap=0, karatsuba_cap=0)
    assert np.array_equal(LIMB.matmul(FIELD, a, b, 4096), expected)
    assert np.array_equal(forced_kara.matmul(FIELD, a, b, 4096), expected)
    assert np.array_equal(forced_fallback.matmul(FIELD, a, b, 4096), expected)


def test_limb_matmul_falls_back_past_exactness_bound():
    """Regression: contractions beyond the Karatsuba bound (modeled with a
    tiny cap) must take the generic path and stay exact, not overflow."""
    capped = LimbBackend(two_gemm_cap=8, karatsuba_cap=16)
    rng = FieldRng(FIELD, 7)
    a, b = rng.uniform((3, 40)), rng.uniform((40, 3))
    assert np.array_equal(
        capped.matmul(FIELD, a, b, 4096), _bigint_matmul(a, b, FIELD.p)
    )


def test_limb_backend_rejects_nothing_it_cannot_handle():
    """p >= 2**26 (limbs would not fit 13 bits) silently uses the oracle."""
    big = PrimeField(67108879)  # smallest prime >= 2**26
    rng = FieldRng(big, 3)
    a, b = rng.uniform((4, 9)), rng.uniform((9, 4))
    assert np.array_equal(
        LIMB.matmul(big, a, b, 4096), _bigint_matmul(a, b, big.p)
    )


def test_limb_matmul_one_dimensional_operands():
    rng = FieldRng(FIELD, 11)
    a, b = rng.uniform(17), rng.uniform((17, 3))
    assert np.array_equal(
        LIMB.matmul(FIELD, a, b, 4096), GENERIC.matmul(FIELD, a, b, 4096)
    )
    bv = rng.uniform(17)
    am = rng.uniform((3, 17))
    assert np.array_equal(
        LIMB.matmul(FIELD, am, bv, 4096), GENERIC.matmul(FIELD, am, bv, 4096)
    )


# ----------------------------------------------------------------------
# Barrett reducer
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_barrett_int64_matches_mod(seed):
    rng = np.random.default_rng(seed)
    red = BarrettReducer(FIELD.p)
    x = rng.integers(0, 1 << 50, size=257)
    assert np.array_equal(red.reduce_int64(x), np.mod(x, FIELD.p))


def test_barrett_int64_boundary_values():
    p = FIELD.p
    red = BarrettReducer(p)
    edges = np.array(
        [0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, 3 * p - 1, (1 << 50) - 1],
        dtype=np.int64,
    )
    assert np.array_equal(red.reduce_int64(edges), np.mod(edges, p))


def test_barrett_f64_boundary_values():
    p = FIELD.p
    red = BarrettReducer(p)
    ks = [0, 1, 2, 1000, (2**52) // p]
    ds = [0, 1, p - 1]
    xs = np.array([k * p + d for k in ks for d in ds], dtype=np.float64)
    expected = np.array([d for _ in ks for d in ds], dtype=np.float64)
    assert np.array_equal(red.reduce_f64(xs.copy()), expected)
    lazy = red.reduce_f64_lazy(xs.copy())
    assert np.all(lazy >= 0) and np.all(lazy < 2 * p)
    assert np.array_equal(np.mod(lazy, p), expected)


def test_barrett_int64_refuses_wide_moduli():
    wide = BarrettReducer((1 << 31) - 1)  # Mersenne prime, 31 bits
    with pytest.raises(FieldError):
        wide.reduce_int64(np.arange(4))


def test_dispatch_limits_are_sane():
    assert two_gemm_limit(FIELD.p) == 32770
    assert karatsuba_limit(FIELD.p) > 30_000_000


# ----------------------------------------------------------------------
# backend registry / selection plumbing
# ----------------------------------------------------------------------


def test_backend_registry_and_default_switch():
    assert set(BACKENDS) == {"generic", "limb"}
    assert default_backend_name() == "limb"
    previous = set_default_backend("generic")
    try:
        assert previous == "limb"
        assert default_backend_name() == "generic"
    finally:
        set_default_backend(previous)
    with pytest.raises(FieldError):
        get_backend("nope")
    with pytest.raises(FieldError):
        set_default_backend("nope")


def test_use_backend_scopes_and_restores():
    rng = FieldRng(FIELD, 5)
    a, b = rng.uniform((6, 20)), rng.uniform((20, 6))
    results = {}
    for name in ("generic", "limb"):
        with use_backend(name):
            assert default_backend_name() == name
            results[name] = field_matmul(FIELD, a, b)
    assert default_backend_name() == "limb"
    assert np.array_equal(results["generic"], results["limb"])


def test_field_matmul_backend_argument_overrides_default():
    rng = FieldRng(FIELD, 9)
    a, b = rng.uniform((5, 13)), rng.uniform((13, 5))
    assert np.array_equal(
        field_matmul(FIELD, a, b, backend="generic"),
        field_matmul(FIELD, a, b, backend="limb"),
    )
    with pytest.raises(FieldError):
        field_matmul(FIELD, a, b, backend="nope")


def test_field_matmul_still_validates_before_dispatch():
    rng = FieldRng(FIELD, 1)
    a, b = rng.uniform((3, 4)), rng.uniform((4, 3))
    with pytest.raises(FieldError):
        field_matmul(FIELD, a, rng.uniform((5, 3)))
    with pytest.raises(FieldError):
        field_matmul(FIELD, a, b, chunk=0)


def test_backend_construction_keeps_the_process_default():
    """Building a DarKnight backend has no process-global side effect:
    a scoped backend choice survives it."""
    from repro.runtime.darknight import DarKnightBackend

    with use_backend("generic"):
        DarKnightBackend()
        assert default_backend_name() == "generic"
    assert default_backend_name() == "limb"


# ----------------------------------------------------------------------
# division-free PrimeField ops stay exact
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prime_field_ops_match_mod_semantics(seed):
    rng = np.random.default_rng(seed)
    p = FIELD.p
    a = rng.integers(0, p, size=200)
    b = rng.integers(0, p, size=200)
    assert np.array_equal(FIELD.add(a, b), (a + b) % p)
    assert np.array_equal(FIELD.sub(a, b), (a - b) % p)
    assert np.array_equal(FIELD.neg(a), (-a) % p)
    assert np.array_equal(FIELD.mul(a, b), a * b % p)


def test_prime_field_ops_accept_non_canonical_inputs():
    """The conditional-correction fast paths must still reduce arbitrary
    int64 inputs exactly (falling back to the generic modulus)."""
    p = FIELD.p
    a = np.array([-1, -p, 2 * p + 3, p, 0, p - 1], dtype=np.int64)
    b = np.array([5, -3 * p - 1, p + 2, -p + 1, p - 1, p - 1], dtype=np.int64)
    assert np.array_equal(FIELD.add(a, b), (a + b) % p)
    assert np.array_equal(FIELD.sub(a, b), (a - b) % p)
    assert np.array_equal(FIELD.neg(a), (-a) % p)


def test_prime_field_mul_f64_band_is_bit_identical():
    """Sizes inside the float64-Barrett band agree with np.mod exactly."""
    rng = np.random.default_rng(0)
    p = FIELD.p
    for size in (1024, 4096, 1 << 17):
        a = rng.integers(0, p, size=size)
        b = rng.integers(0, p, size=size)
        assert np.array_equal(FIELD.mul(a, b), a * b % p)
    worst = np.full(2048, p - 1, dtype=np.int64)
    assert np.array_equal(FIELD.mul(worst, worst), worst * worst % p)
