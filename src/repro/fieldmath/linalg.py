"""Linear algebra over ``F_p``: overflow-safe products, inverses, rank, MDS.

Everything DarKnight offloads to GPUs is a bilinear form over the field, and
everything the enclave does to decode is small dense linear algebra over the
same field.  This module provides both:

* :func:`field_matmul` — matrix product with chunked reduction so int64 never
  overflows, used by the simulated GPU kernels;
* Gauss-Jordan :func:`inverse` / :func:`solve` / :func:`rank` used when
  generating and applying DarKnight coefficient matrices;
* :func:`vandermonde` — the MDS construction guaranteeing that *every*
  ``<= M``-column subset of the noise-coefficient block ``A2`` is full rank
  (Section 4.5's collusion requirement, which random matrices only satisfy
  with high probability).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FieldError, SingularMatrixError
from repro.fieldmath import kernels
from repro.fieldmath.prime import SAFE_ACCUMULATION, PrimeField


def _as_matrix(a: np.ndarray) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim != 2:
        raise FieldError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def field_matmul(
    field: PrimeField,
    a: np.ndarray,
    b: np.ndarray,
    chunk: int = SAFE_ACCUMULATION,
    backend: str | None = None,
) -> np.ndarray:
    """``(a @ b) mod p``, dispatched to the selected field-op backend.

    The ``"generic"`` backend is the original chunked reduction: a single
    field product is below ``p**2 < 2**50``, summing more than ``~2**13``
    of them overflows int64, so the shared axis is split into
    ``chunk``-sized blocks, each partial reduced mod ``p`` and the (now
    ``< p``) partials reduced again at the end.  The default ``"limb"``
    backend (:mod:`repro.fieldmath.kernels`) computes the same product —
    bit-identical, property-tested — as float64 BLAS GEMMs over 13-bit
    limbs, roughly an order of magnitude faster, falling back to the
    generic path beyond its exactness bound.

    Accepts any ``a`` of shape ``(..., n)`` against ``b`` of shape
    ``(n, ...)`` the way ``np.matmul`` of 2-D operands does; the common case
    is plain 2-D x 2-D.  ``backend=None`` uses the process default
    (:func:`repro.fieldmath.kernels.set_default_backend`).
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[-1] != b.shape[0]:
        raise FieldError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    if chunk < 1:
        raise FieldError(f"chunk must be positive, got {chunk}")
    ops = kernels.default_backend() if backend is None else kernels.get_backend(backend)
    return ops.matmul(field, a, b, chunk)


def field_dot(field: PrimeField, a: np.ndarray, b: np.ndarray) -> int:
    """Inner product of two 1-D field vectors, reduced safely.

    Vectorized: the element-wise products (each ``< p**2``) are reduced in
    one reshaped chunked sum — ``SAFE_ACCUMULATION`` terms per chunk keeps
    every partial below int64 overflow — instead of a Python loop of
    ``np.dot`` calls.
    """
    a = np.asarray(a, dtype=np.int64).ravel()
    b = np.asarray(b, dtype=np.int64).ravel()
    if a.shape != b.shape:
        raise FieldError(f"vector lengths differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0
    prods = a * b
    pad = (-prods.size) % SAFE_ACCUMULATION
    if pad:
        prods = np.concatenate([prods, np.zeros(pad, dtype=np.int64)])
    partials = np.mod(prods.reshape(-1, SAFE_ACCUMULATION).sum(axis=1), field.p)
    # n_chunks partials each < p: the final sum stays far below int64.
    return int(partials.sum() % field.p)


def _eliminate(field: PrimeField, matrix: np.ndarray, augment: np.ndarray | None):
    """Gauss-Jordan elimination mod p.

    Returns ``(reduced, augment_reduced, pivot_columns)``.  ``augment`` may be
    ``None`` when only rank information is needed.

    The inner loop eliminates *all* non-pivot rows at once with one
    outer-product update per pivot column — ``m -= factors ⊗ pivot_row``
    over the field — instead of a per-row Python loop.  Field arithmetic
    is exact, so the result is bit-identical to row-at-a-time elimination.
    """
    m = field.element(matrix).copy()
    aug = None if augment is None else field.element(augment).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot_candidates = np.nonzero(m[row:, col])[0]
        if pivot_candidates.size == 0:
            continue
        pivot_row = row + int(pivot_candidates[0])
        if pivot_row != row:
            m[[row, pivot_row]] = m[[pivot_row, row]]
            if aug is not None:
                aug[[row, pivot_row]] = aug[[pivot_row, row]]
        inv_pivot = field.scalar_inv(int(m[row, col]))
        m[row] = field.mul(m[row], inv_pivot)
        if aug is not None:
            aug[row] = field.mul(aug[row], inv_pivot)
        factors = m[:, col].copy()
        factors[row] = 0  # the pivot row eliminates everyone but itself
        if np.any(factors):
            m = field.sub(m, field.mul(factors[:, None], m[row][None, :]))
            if aug is not None:
                aug = field.sub(aug, field.mul(factors[:, None], aug[row][None, :]))
        pivots.append(col)
        row += 1
    return m, aug, pivots


def rank(field: PrimeField, matrix: np.ndarray) -> int:
    """Rank of ``matrix`` over ``F_p``."""
    _, _, pivots = _eliminate(field, _as_matrix(matrix), None)
    return len(pivots)


def is_invertible(field: PrimeField, matrix: np.ndarray) -> bool:
    """True when a square matrix has full rank over ``F_p``."""
    m = _as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        return False
    return rank(field, m) == m.shape[0]


def inverse(field: PrimeField, matrix: np.ndarray) -> np.ndarray:
    """Matrix inverse over ``F_p`` via Gauss-Jordan.

    Raises
    ------
    SingularMatrixError
        If the matrix is not square or not full rank.
    """
    m = _as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise SingularMatrixError(f"cannot invert non-square matrix {m.shape}")
    n = m.shape[0]
    reduced, aug, pivots = _eliminate(field, m, field.eye(n))
    if len(pivots) != n:
        raise SingularMatrixError(f"matrix of shape {m.shape} is singular mod {field.p}")
    del reduced
    return aug


def solve(field: PrimeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` over ``F_p`` for square invertible ``a``."""
    a = _as_matrix(a)
    b_arr = field.element(b)
    vector_input = b_arr.ndim == 1
    if vector_input:
        b_arr = b_arr.reshape(-1, 1)
    if a.shape[0] != b_arr.shape[0]:
        raise FieldError(f"incompatible shapes {a.shape} and {b_arr.shape}")
    x = field_matmul(field, inverse(field, a), b_arr)
    return x.ravel() if vector_input else x


def determinant(field: PrimeField, matrix: np.ndarray) -> int:
    """Determinant over ``F_p`` (fraction-free elimination with pivot tracking)."""
    m = field.element(_as_matrix(matrix)).copy()
    n = m.shape[0]
    if n != m.shape[1]:
        raise FieldError(f"determinant of non-square matrix {m.shape}")
    det = 1
    for col in range(n):
        pivot_candidates = np.nonzero(m[col:, col])[0]
        if pivot_candidates.size == 0:
            return 0
        pivot_row = col + int(pivot_candidates[0])
        if pivot_row != col:
            m[[col, pivot_row]] = m[[pivot_row, col]]
            det = (-det) % field.p
        pivot = int(m[col, col])
        det = det * pivot % field.p
        inv_pivot = field.scalar_inv(pivot)
        for other in range(col + 1, n):
            if m[other, col] == 0:
                continue
            factor = field.mul(int(m[other, col]), inv_pivot)
            m[other] = field.sub(m[other], field.mul(m[col], int(factor)))
    return int(det)


def vandermonde(field: PrimeField, points: np.ndarray, n_rows: int) -> np.ndarray:
    """Vandermonde matrix ``V[i, j] = points[j]**i`` of shape ``(n_rows, len(points))``.

    With distinct evaluation points, every ``n_rows x n_rows`` column
    submatrix is invertible — exactly the MDS property DarKnight needs for
    the collusion-tolerant noise block ``A2`` (any ``M`` colluding GPUs see
    noise coefficients of full rank, so no linear combination cancels the
    masks).
    """
    pts = field.element(points).ravel()
    if len(set(int(v) for v in pts)) != pts.size:
        raise FieldError("Vandermonde points must be distinct")
    if n_rows < 1:
        raise FieldError(f"need at least one row, got {n_rows}")
    # Cumulative-power doubling: with rows 0..f-1 filled, rows f..2f-1 are
    # the first f rows scaled by pts**f — one vectorized field multiply per
    # doubling instead of a per-row append loop.
    out = np.empty((n_rows, pts.size), dtype=np.int64)
    out[0] = 1
    filled = 1
    while filled < n_rows:
        take = min(filled, n_rows - filled)
        base = field.mul(out[filled - 1], pts)  # pts**filled
        out[filled : filled + take] = field.mul(out[:take], base[None, :])
        filled += take
    return out


def all_column_subsets_full_rank(
    field: PrimeField, matrix: np.ndarray, subset_size: int, max_checks: int | None = 5000
) -> bool:
    """Verify every ``subset_size``-column subset of ``matrix`` has full rank.

    Used by tests and by the strict coefficient generator to certify the
    collusion-privacy condition of Section 4.5.  ``max_checks`` bounds the
    combinatorial explosion for wide matrices; ``None`` means exhaustive.

    Implemented as a lexicographic DFS over column prefixes that keeps an
    incrementally-reduced basis per prefix, instead of re-running full
    Gauss-Jordan on every subset:

    * adding one column costs one elimination step against the shared
      prefix basis (subsets sharing a prefix share all that work);
    * the moment any prefix reduces to a dependent column the search
      stops — every superset of a dependent set is dependent, and with
      ``>= subset_size`` columns available some full-size subset contains
      it, so the certificate already failed.  (This also catches
      dependencies the old sampled-at-``max_checks`` walk could miss.)

    ``max_checks`` still counts *completed* subsets, visited in the same
    lexicographic order as before.
    """
    m = _as_matrix(matrix)
    if subset_size > m.shape[0]:
        raise FieldError(
            f"subset size {subset_size} exceeds row count {m.shape[0]}; rank cannot be full"
        )
    n_cols = m.shape[1]
    if n_cols < subset_size:
        return True  # no subsets exist; vacuously certified (as before)
    cols = field.element(m)
    counter = {"checked": 0}

    def _reduce(col: np.ndarray, basis: list[tuple[int, np.ndarray]]) -> np.ndarray:
        """One incremental elimination step: clear col's basis pivots."""
        vec = col.copy()
        for pivot_idx, pivot_vec in basis:
            factor = int(vec[pivot_idx])
            if factor:
                vec = field.sub(vec, field.mul(pivot_vec, factor))
        return vec

    def _extend(start: int, basis: list[tuple[int, np.ndarray]]) -> bool:
        depth = len(basis)
        if depth == subset_size:
            counter["checked"] += 1
            return True
        for j in range(start, n_cols - (subset_size - depth) + 1):
            vec = _reduce(cols[:, j], basis)
            nonzero = np.nonzero(vec)[0]
            if nonzero.size == 0:
                return False  # dependent prefix => some full subset fails
            pivot_idx = int(nonzero[0])
            pivot_vec = field.mul(vec, field.scalar_inv(int(vec[pivot_idx])))
            basis.append((pivot_idx, pivot_vec))
            ok = _extend(j + 1, basis)
            basis.pop()
            if not ok:
                return False
            if max_checks is not None and counter["checked"] >= max_checks:
                break
        return True

    return _extend(0, [])
