"""Computational-integrity verification via redundant shares (Section 4.4).

With ``K + M + extra`` shares the GPU outputs ``Ȳ = Aᵀ·[Y | W·R]`` carry
``extra`` more equations than unknowns.  Honest outputs therefore lie in the
row space of ``A``, and the parity matrix ``C`` of
:meth:`CoefficientSet.parity_checks` (``A·Cᵀ = 0``, one row per redundant
share) annihilates them: the *syndrome* ``C·Ȳ`` is zero.  Row ``e`` of the
syndrome is zero exactly when share ``e``'s output equals what the primary
decode predicts for it, which is exactly when the decode from the primary
subset agrees with a decode that swaps share ``e`` in.  So one small GEMM
decides what comparing decodes from every invertible subset decides: a
tamper ``E`` escapes both precisely when ``E = Aᵀ·Δ`` for some ``Δ``, i.e.
when it is consistent with the secret ``A`` the adversary cannot know.  This
gives the paper's ``(K'-1)``-security: detection succeeds even if all but
one GPU lies.

A share whose column of ``C`` is zero takes part in no parity equation (and
in every invertible subset), so a tamper on it alone is undetectable by any
method; the verifier refuses such coefficient sets.

The honest path decodes nothing.  Only a nonzero syndrome runs the slow
path, which decodes from several subsets and *localises* the fault: a share
whose exclusion restores consistency across every remaining subset is the
culprit.  The paper leaves corrective action out of scope; we expose the
suspect list so callers can re-dispatch work.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from repro.errors import DecodingError, IntegrityError
from repro.fieldmath import field_matmul
from repro.masking.coefficients import CoefficientSet
from repro.masking.forward import ForwardDecoder


@dataclass(frozen=True)
class IntegrityReport:
    """Outcome of a redundant-decode verification."""

    consistent: bool
    subsets_checked: int
    suspected_shares: tuple[int, ...] = dataclass_field(default=())

    def raise_on_failure(self) -> None:
        """Raise :class:`IntegrityError` when verification failed."""
        if not self.consistent:
            raise IntegrityError(
                "GPU results are inconsistent across decode subsets; suspected"
                f" shares: {list(self.suspected_shares) or 'undetermined'}"
            )


class IntegrityVerifier:
    """Checks GPU results against the redundant shares' parity equations.

    Parameters
    ----------
    coefficients:
        Must carry at least one extra share (``extra_shares >= 1``);
        otherwise only a single decode subset may exist and tampering on the
        unique subset is undetectable.
    max_subsets:
        Upper bound on how many invertible subsets the slow path compares
        once the syndrome flags a tamper; more improve localisation.
    """

    def __init__(self, coefficients: CoefficientSet, max_subsets: int = 8) -> None:
        if coefficients.extra_shares < 1:
            raise IntegrityError(
                "integrity verification requires at least one redundant share"
                f" (K+M+1 GPUs); got {coefficients.n_shares} shares for"
                f" {coefficients.n_sources} sources"
            )
        if max_subsets < 2:
            raise IntegrityError(f"need at least 2 subsets to compare, got {max_subsets}")
        self.coefficients = coefficients
        self.max_subsets = max_subsets
        self._decoder = ForwardDecoder(coefficients)

    # ------------------------------------------------------------------
    # forward-pass verification
    # ------------------------------------------------------------------
    def verify_forward(self, gpu_outputs: np.ndarray) -> IntegrityReport:
        """Check ``gpu_outputs`` with one syndrome GEMM; localise on failure.

        A zero syndrome certifies what comparing the primary decode with
        one alternate decode per redundant share would, so the report counts
        ``1 + extra`` subsets.  The check covers the recovered ``Y`` *and*
        the ``W·r`` noise products — a tamper that only perturbs the noise
        coordinate of one subset is caught too.
        """
        coeffs = self.coefficients
        checks = coeffs.parity_checks()
        if not checks.any(axis=0).all():
            raise IntegrityError(
                "coefficient set has a share outside every parity check;"
                " a tamper on it alone is undetectable"
            )
        outputs = np.asarray(gpu_outputs, dtype=np.int64)
        if outputs.shape[0] != coeffs.n_shares:
            raise DecodingError(
                f"expected outputs from all {coeffs.n_shares} shares (indexed by"
                f" share id), got {outputs.shape[0]} rows"
            )
        syndrome = field_matmul(
            coeffs.field, checks, outputs.reshape(coeffs.n_shares, -1)
        )
        if not syndrome.any():
            return IntegrityReport(
                consistent=True, subsets_checked=1 + coeffs.extra_shares
            )
        # A nonzero syndrome is proof of tampering whatever the compare finds.
        return replace(self.compare_subsets(outputs), consistent=False)

    def compare_subsets(self, gpu_outputs: np.ndarray) -> IntegrityReport:
        """Decode ``gpu_outputs`` from several subsets and compare everything.

        The slow path behind :meth:`verify_forward` (and its test oracle):
        comparison covers the recovered ``Y`` and the ``W·r`` noise
        products, and a mismatch is localised.
        """
        subsets = list(
            self.coefficients.iter_decoding_subsets(limit=self.max_subsets)
        )
        if len(subsets) < 2:
            raise IntegrityError(
                "coefficient set admits fewer than two decode subsets;"
                " cannot verify"
            )
        decoded = {}
        for subset in subsets:
            y, noise_product = self._decoder.decode(
                gpu_outputs, subset=subset, return_noise_product=True
            )
            decoded[subset] = np.concatenate(
                [y.reshape(y.shape[0], -1), noise_product.reshape(noise_product.shape[0], -1)]
            )
        reference_subset = subsets[0]
        reference = decoded[reference_subset]
        mismatching = [
            subset
            for subset in subsets[1:]
            if not np.array_equal(decoded[subset], reference)
        ]
        if not mismatching:
            return IntegrityReport(consistent=True, subsets_checked=len(subsets))
        suspects = self._localise(decoded)
        return IntegrityReport(
            consistent=False,
            subsets_checked=len(subsets),
            suspected_shares=suspects,
        )

    def _localise(self, decoded: dict) -> tuple[int, ...]:
        """Find shares whose exclusion restores cross-subset consistency.

        For each candidate share, consider only decode subsets that avoid
        it; if all those agree (and at least two exist), the candidate
        explains the corruption.
        """
        suspects: list[int] = []
        for share in range(self.coefficients.n_shares):
            excluding = [s for s in decoded if share not in s]
            if len(excluding) < 2:
                continue
            reference = decoded[excluding[0]]
            if all(np.array_equal(decoded[s], reference) for s in excluding[1:]):
                suspects.append(share)
        return tuple(suspects)

    # ------------------------------------------------------------------
    # backward-pass verification
    # ------------------------------------------------------------------
    def verify_backward(
        self, equations_by_bset: dict[tuple[int, ...], np.ndarray]
    ) -> IntegrityReport:
        """Compare aggregate-gradient decodes computed under different ``B``s.

        The trainer asks the GPUs to evaluate ``Eq_j`` under two (or more)
        ``B`` matrices supported on different share subsets; each decode must
        yield the same ``Σ_i <δ(i), x(i)>``.

        Parameters
        ----------
        equations_by_bset:
            Maps the share subset that defined each ``B`` to the decoded
            aggregate (field array).  Values must already be decoded — this
            method only cross-compares.
        """
        if len(equations_by_bset) < 2:
            raise IntegrityError(
                "backward verification needs decodes under >= 2 B-matrices"
            )
        items = list(equations_by_bset.items())
        _, reference = items[0]
        mismatch = [
            subset for subset, agg in items[1:] if not np.array_equal(agg, reference)
        ]
        if not mismatch:
            return IntegrityReport(consistent=True, subsets_checked=len(items))
        all_subsets = [s for s, _ in items]
        shared = set(all_subsets[0])
        for s in all_subsets[1:]:
            shared &= set(s)
        # Shares in every subset cannot be exonerated; shares in only the
        # mismatching subsets are prime suspects.
        suspects = sorted(
            set().union(*[set(s) for s in mismatch]) - shared
            if mismatch and shared != set(mismatch[0])
            else set().union(*[set(s) for s in mismatch])
        )
        return IntegrityReport(
            consistent=False,
            subsets_checked=len(items),
            suspected_shares=tuple(suspects),
        )
