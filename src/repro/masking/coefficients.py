"""Coefficient matrices ``A``, ``B``, ``Gamma`` for DarKnight masking.

One :class:`CoefficientSet` captures everything Sections 4.1-4.5 of the paper
need for a single virtual batch:

* ``A`` (``(K+M) x n_shares``) — encoding coefficients.  Rows ``0..K-1``
  (the paper's ``A1``) weight the real inputs, rows ``K..K+M-1`` (``A2``)
  weight the ``M`` uniform noise vectors.  Share ``j`` is
  ``x̄(j) = Σ_i A[i, j]·x(i) + Σ_m A[K+m, j]·r(m)``.
* ``Gamma`` (diagonal, one ``γ_j`` per share) and ``B`` (``n_shares x K``)
  satisfying the paper's Equation 5/13 constraint
  ``Bᵀ·Γ·Aᵀ = [I_K | 0_{K x M}]`` which makes the backward decode a plain
  ``Σ_j γ_j·Eq_j``.
* ``n_shares = K + M + extra`` where ``extra >= 1`` adds the redundant
  equations used for integrity verification (Section 4.4).

Collusion safety (Section 4.5) requires that any ``<= M``-column subset of
``A2`` be full rank; a merely random ``A2`` only satisfies this with high
probability, so by default we build ``A2`` as a Vandermonde (MDS) matrix
where the property holds *by construction*.

The enclave keeps ``A`` and ``Gamma`` secret; ``B`` is public (the paper:
"we do not need to protect matrix B in the enclave").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from repro.errors import EncodingError, SingularMatrixError
from repro.fieldmath import (
    FieldRng,
    PrimeField,
    all_column_subsets_full_rank,
    field_matmul,
    inverse,
    is_invertible,
)


def _recovery_target(field: PrimeField, k: int, m: int) -> np.ndarray:
    """The ``[I_K | 0_{K x M}]`` right-hand side of Equation 5/13."""
    target = field.zeros((k, k + m))
    target[:k, :k] = field.eye(k)
    return target


@dataclass(frozen=True)
class CoefficientSet:
    """Per-virtual-batch masking coefficients (enclave-secret unless noted).

    Attributes
    ----------
    field:
        Prime field all matrices live in.
    k:
        Virtual batch size (number of real inputs combined per share).
    m:
        Number of noise vectors = collusion tolerance.
    a:
        Encoding matrix, shape ``(k + m, n_shares)``.  **Secret.**
    gamma:
        Per-share decoding scalars ``γ_j``, shape ``(n_shares,)``.  **Secret.**
    b:
        Gradient-combination matrix, shape ``(n_shares, k)``.  Public.
    primary_subset:
        The ``k + m`` share indices used for the default decode; its ``A``
        column submatrix is invertible by construction.
    """

    field: PrimeField
    k: int
    m: int
    a: np.ndarray
    gamma: np.ndarray
    b: np.ndarray
    primary_subset: tuple[int, ...]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        rng: FieldRng,
        k: int,
        m: int = 1,
        extra_shares: int = 0,
        mds_noise: bool = True,
        certify_collusion: bool = False,
    ) -> "CoefficientSet":
        """Sample a fresh coefficient set.

        Parameters
        ----------
        rng:
            Seeded field sampler (one per enclave session).
        k:
            Virtual batch size, ``>= 1``.
        m:
            Noise vectors / collusion tolerance, ``>= 1``.  ``m=1`` is the
            paper's base scheme of Section 4.1.
        extra_shares:
            Redundant equations for integrity (Section 4.4 uses 1).
        mds_noise:
            Build ``A2`` as a Vandermonde matrix so the collusion-privacy
            rank condition holds by construction rather than w.h.p.
        certify_collusion:
            Exhaustively check the ``<= m``-column-subset rank condition
            (slow for wide matrices; tests use it, production trusts MDS).
        """
        if k < 1:
            raise EncodingError(f"virtual batch size must be >= 1, got {k}")
        if m < 1:
            raise EncodingError(
                f"at least one noise vector is required for privacy, got m={m}"
            )
        if extra_shares < 0:
            raise EncodingError(f"extra_shares must be >= 0, got {extra_shares}")
        field = rng.field
        n_shares = k + m + extra_shares
        if n_shares >= field.p:
            raise EncodingError("share count exceeds field size")

        s = k + m
        for _ in range(FieldRng.MAX_REJECTIONS):
            a1 = rng.uniform((k, n_shares))
            a2 = rng.mds_matrix(m, n_shares) if mds_noise else rng.uniform((m, n_shares))
            a = np.vstack([a1, a2])
            # The primary decode uses the first s shares; resample until that
            # submatrix is invertible (failure probability ~ s/p per draw).
            if is_invertible(field, a[:, :s]):
                break
        else:  # pragma: no cover - probability ~ (s/p)^64
            raise EncodingError("failed to sample an invertible encoding submatrix")

        if certify_collusion and not all_column_subsets_full_rank(field, a2, min(m, n_shares)):
            raise EncodingError("noise block A2 violates the collusion rank condition")

        gamma = rng.nonzero((n_shares,))
        primary = tuple(range(s))
        b = cls._solve_b(field, a, gamma, k, m, primary)
        return cls(field=field, k=k, m=m, a=a, gamma=gamma, b=b, primary_subset=primary)

    @staticmethod
    def _solve_b(
        field: PrimeField,
        a: np.ndarray,
        gamma: np.ndarray,
        k: int,
        m: int,
        subset: tuple[int, ...],
    ) -> np.ndarray:
        """Solve ``Bᵀ·Γ·Aᵀ = [I | 0]`` with support restricted to ``subset``.

        For the share indices in ``subset`` (``|subset| = k + m``, ``A``
        columns invertible) we need
        ``B_Jᵀ · Γ_J · A_Jᵀ = [I | 0]``, i.e.
        ``B_Jᵀ = [I | 0] · (Γ_J · A_Jᵀ)^{-1}``.  Shares outside the subset
        get zero columns in ``Bᵀ`` — they do not participate in the primary
        gradient decode (the integrity share is redundant by design).
        """
        n_shares = a.shape[1]
        a_j = a[:, list(subset)]
        gamma_j = np.diag(gamma[list(subset)])
        target = _recovery_target(field, k, m)
        try:
            core = inverse(field, field_matmul(field, gamma_j, a_j.T))
        except SingularMatrixError as exc:
            raise EncodingError(
                "selected share subset cannot support gradient decoding"
            ) from exc
        b_t_subset = field_matmul(field, target, core)  # (k, k+m)
        b = field.zeros((n_shares, k))
        for local, share in enumerate(subset):
            b[share, :] = b_t_subset[:, local]
        return b

    # ------------------------------------------------------------------
    # derived properties
    # ------------------------------------------------------------------
    @property
    def n_shares(self) -> int:
        """Total encoded shares (== GPUs receiving data), ``k + m + extra``."""
        return self.a.shape[1]

    @property
    def n_sources(self) -> int:
        """Rows of ``A``: real inputs plus noise vectors, ``k + m``."""
        return self.k + self.m

    @property
    def extra_shares(self) -> int:
        """Redundant shares available for integrity checking."""
        return self.n_shares - self.n_sources

    @property
    def a1(self) -> np.ndarray:
        """Input-coefficient block (paper's ``A1``), shape ``(k, n_shares)``."""
        return self.a[: self.k]

    @property
    def a2(self) -> np.ndarray:
        """Noise-coefficient block (paper's ``A2``), shape ``(m, n_shares)``."""
        return self.a[self.k :]

    # ------------------------------------------------------------------
    # decode-subset management
    # ------------------------------------------------------------------
    def _memo(self, key, compute, *args):
        """Cache ``compute(*args)`` under ``key`` on this (frozen) set.

        Everything derived from ``A`` and ``Gamma`` is deterministic, so
        serving windows that reuse one coefficient set pay each
        Gauss–Jordan solve once — part of the offline/online split's
        "coefficient material".  Cached arrays are shared by every caller,
        so they are made read-only.
        """
        cache = self.__dict__.get("_memo_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_memo_cache", cache)
        value = cache.get(key)
        if value is None:
            value = compute(*args)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            cache[key] = value
        return value

    def decoding_matrix(self, subset: tuple[int, ...] | None = None) -> np.ndarray:
        """``A[:, subset]^{-1}`` for a ``k+m``-sized invertible share subset."""
        subset = self.primary_subset if subset is None else tuple(subset)
        if len(subset) != self.n_sources:
            raise EncodingError(
                f"decoding needs exactly {self.n_sources} shares, got {len(subset)}"
            )
        return self._memo(("decode", subset), self._invert, subset)

    def _invert(self, subset: tuple[int, ...]) -> np.ndarray:
        try:
            return inverse(self.field, self.a[:, list(subset)])
        except SingularMatrixError as exc:
            raise EncodingError(f"share subset {subset} is not decodable") from exc

    def iter_decoding_subsets(self, limit: int | None = None):
        """Iterate invertible ``k+m``-sized share subsets (primary first).

        Integrity verification's slow path decodes from several of these
        and compares.  ``limit`` caps the enumeration for wide share sets.
        """

        def enumerate_subsets() -> tuple[tuple[int, ...], ...]:
            invertible = (
                subset
                for subset in combinations(range(self.n_shares), self.n_sources)
                if is_invertible(self.field, self.a[:, list(subset)])
            )
            return tuple(islice(invertible, limit))

        return iter(self._memo(("subsets", limit), enumerate_subsets))

    def parity_checks(self) -> np.ndarray:
        """Parity matrix ``C`` of shape ``(extra, n_shares)`` with ``A·Cᵀ = 0``.

        Honest GPU outputs are ``Ȳ = Aᵀ·[Y | W·R]``, so ``C·Ȳ = 0``.  Row
        ``i`` belongs to the ``i``-th non-primary share ``e``: it holds
        ``-A_P⁻¹·a_e`` on the primary shares ``P`` and ``1`` at ``e``, i.e.
        it states that share ``e``'s output is the combination of the
        primary outputs that its encoding column prescribes.
        """

        def build() -> np.ndarray:
            others = [j for j in range(self.n_shares) if j not in self.primary_subset]
            # (k+m, extra): column i expresses a_e in the primary basis.
            coords = field_matmul(self.field, self.decoding_matrix(), self.a[:, others])
            checks = self.field.zeros((len(others), self.n_shares))
            checks[:, list(self.primary_subset)] = self.field.neg(coords.T)
            checks[np.arange(len(others)), others] = 1
            return checks

        return self._memo(("parity",), build)

    def backward_matrices_for_subset(
        self, subset: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(B, Gamma)`` pair supported on an alternative share subset.

        Lets the integrity path decode the aggregate gradient twice from
        disjoint-enough share subsets and cross-check.
        """
        subset = tuple(subset)
        b = self._memo(
            ("backward", subset),
            self._solve_b, self.field, self.a, self.gamma, self.k, self.m, subset,
        )
        return b, self.gamma

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def verify(self) -> bool:
        """Check the Equation 5/13 constraint ``Bᵀ·Γ·Aᵀ = [I | 0]`` exactly."""
        lhs = field_matmul(
            self.field,
            field_matmul(self.field, self.b.T, np.diag(self.gamma)),
            self.a.T,
        )
        return bool(np.array_equal(lhs, _recovery_target(self.field, self.k, self.m)))

    def collusion_tolerance(self) -> int:
        """``M`` — how many colluding GPUs leak nothing (Section 4.5)."""
        return self.m
