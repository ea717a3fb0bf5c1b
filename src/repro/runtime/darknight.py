"""The DarKnight execution backend: TEE-GPU cooperative linear algebra.

This is the paper's Section 3.1 flow as a :class:`~repro.nn.backends.LinearBackend`:

1. the enclave quantizes a virtual batch of layer inputs into ``F_p``;
2. masks them into ``K + M (+1)`` shares with fresh coefficients;
3. scatters one share per simulated GPU over the (modeled) link;
4. GPUs run the bilinear kernel on their share;
5. the enclave decodes the stacked results exactly, optionally verifying
   integrity with the redundant shares' parity check, and dequantizes back
   to float;
6. backward weight gradients reuse the *stored* forward shares: GPUs combine
   the public-``B``-weighted gradients and return ``Eq_j``; the enclave
   recovers the batch-aggregate update with ``Σ_j γ_j·Eq_j``;
7. ``δ``-propagation (input gradients) is offloaded unencoded — it carries
   no input data (Section 4.2).

The forward flow is exposed two ways.  The classic blocking entry points
(:meth:`DarKnightBackend.conv2d_forward` / :meth:`~DarKnightBackend.dense_forward`)
serve training, whose backward pass reuses the stored forward encodings.
Underneath, the flow is split into three explicitly schedulable stage ops —
:meth:`~DarKnightBackend.encode` → :meth:`~DarKnightBackend.dispatch` →
:meth:`~DarKnightBackend.decode` — which
:class:`repro.pipeline.PipelineExecutor` interleaves across virtual batches
so the enclave encodes batch ``n+1`` while GPUs compute batch ``n`` (the
paper's Fig. 7 threading argument); every private inference runs through
it.  Both paths share the same code and are bit-identical: masking decodes
exactly, so stage order never changes values.

Plugging this backend into any :class:`~repro.nn.network.Sequential` makes
its linear layers private without touching model code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm import LinkModel
from repro.enclave import Enclave
from repro.errors import ConfigurationError, DecodingError, IntegrityError
from repro.gpu import GpuCluster
from repro.masking import (
    BackwardDecoder,
    CoefficientSet,
    ForwardDecoder,
    ForwardEncoder,
    IntegrityVerifier,
    iter_virtual_batches,
)
from repro.masking.virtual_batch import VirtualBatch
from repro.pipeline.stages import EncodeTicket, GpuFuture, StagedLinearOp
from repro.precompute import MaskStreamPool, enable_scratch
from repro.quantization import IDENTITY, DynamicNormalizer, Normalization, QuantizationConfig
from repro.runtime.aggregation import LargeBatchAggregator
from repro.runtime.config import DarKnightConfig


@dataclass
class _ForwardRecord:
    """State kept per (layer, virtual batch) from forward for backward reuse."""

    coefficients: CoefficientSet
    share_key: str
    indices: tuple[int, ...]
    n_real: int
    x_norm: Normalization
    w_norm: Normalization
    vb_index: int = 0


class DarKnightBackend:
    """Masked TEE+GPU backend for conv/dense forward and weight gradients.

    Parameters
    ----------
    config:
        Session parameters (K, M, integrity, quantization...).
    enclave:
        The trusted side; provides randomness, accounting, sealing.
    cluster:
        Simulated accelerators; needs ``config.n_gpus_required`` devices.
    link:
        Interconnect cost model (bytes charged on every scatter/gather).
    precompute:
        Enable the offline/online split (:mod:`repro.precompute`): masks
        are drawn from a pregenerated counter-based pool refilled during
        enclave idle gaps, weight encodings are cached per layer across
        flush windows (invalidated on membership change / model swap),
        and hot-path kernels reuse per-shape scratch buffers.  Serving
        only (training mutates weights in place); outputs are
        bit-identical either way.
    """

    def __init__(
        self,
        config: DarKnightConfig | None = None,
        enclave: Enclave | None = None,
        cluster: GpuCluster | None = None,
        link: LinkModel | None = None,
        precompute: bool = False,
    ) -> None:
        self.config = config or DarKnightConfig()
        self.enclave = enclave or Enclave(seed=self.config.seed)
        self.field = self.enclave.field
        if self.field.p != self.config.prime:
            raise DecodingError(
                f"enclave field p={self.field.p} != config prime {self.config.prime}"
            )
        self.cluster = cluster or GpuCluster(self.field, self.config.n_gpus_required)
        self.link = link or LinkModel()
        self.quantizer = QuantizationConfig(
            fractional_bits=self.config.fractional_bits, field=self.field
        )
        self._normalizer = (
            DynamicNormalizer() if self.config.dynamic_normalization else None
        )
        self._grad_normalizer = DynamicNormalizer()
        self._forward_store: dict[str, list[_ForwardRecord]] = {}
        self._cached_coefficients: CoefficientSet | None = None
        # Offline/online split: a counter-based mask pool plus a static
        # weight-encoding cache (caching by weight identity is sound only
        # because serving never mutates weights).
        self._mask_pool: MaskStreamPool | None = None
        self._weight_cache: dict[str, tuple[tuple, StagedLinearOp]] = {}
        if precompute:
            base_key = (
                self.config.seed
                if self.config.seed is not None
                else int(self.enclave.rng.generator.integers(0, 2**63))
            )
            self._mask_pool = MaskStreamPool(self.field, base_key)
            enable_scratch(True)
        self._aggregator = (
            LargeBatchAggregator(self.enclave) if self.config.sealed_aggregation else None
        )
        self._step = 0

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _normalize(self, values: np.ndarray) -> tuple[np.ndarray, Normalization]:
        if self._normalizer is None:
            return np.asarray(values, dtype=np.float64), IDENTITY
        return self._normalizer.normalize(values)

    def _normalize_inputs(self, values: np.ndarray) -> tuple[np.ndarray, Normalization]:
        """Normalise one virtual batch of layer inputs before quantization.

        In ``per_sample_normalization`` mode every sample slot gets its own
        factor, so a slot's decoded output is invariant to what else shares
        the batch — the property shard routing relies on for bit-identical
        logits at every shard count.
        """
        if self._normalizer is None:
            return np.asarray(values, dtype=np.float64), IDENTITY
        if self.config.per_sample_normalization:
            return self._normalizer.normalize_rows(values)
        return self._normalizer.normalize(values)

    def _fresh_coefficients(self) -> CoefficientSet:
        # Coefficient shapes depend only on the (frozen) config's
        # (K, M, extra, mds) — the batch's feature shape never enters
        # because A/B/Gamma weight whole sample slots — so one cached set
        # serves every batch.  Reuse skips only the resample/inversion;
        # the per-encode noise vectors are still drawn fresh by the encoder.
        cfg = self.config
        if not cfg.fresh_coefficients and self._cached_coefficients is not None:
            self.enclave.record_compute("reuse_coefficients", 0)
            return self._cached_coefficients
        coeffs = CoefficientSet.generate(
            self.enclave.rng,
            k=cfg.virtual_batch_size,
            m=cfg.collusion_tolerance,
            extra_shares=cfg.extra_shares,
            mds_noise=cfg.mds_noise,
        )
        self.enclave.record_compute("generate_coefficients", coeffs.a.nbytes)
        if not cfg.fresh_coefficients:
            self._cached_coefficients = coeffs
        return coeffs

    def _scatter(self, share_key: str, shares: np.ndarray) -> None:
        self.cluster.scatter_shares(share_key, shares)
        per_share = int(shares[0].nbytes)
        for j in range(shares.shape[0]):
            self.link.transfer("enclave", f"gpu{j}", per_share)
        self.enclave.ocall("scatter_shares", int(shares.nbytes))

    def _gather(self, outputs: np.ndarray) -> None:
        per_out = int(outputs[0].nbytes)
        for j in range(outputs.shape[0]):
            self.link.transfer(f"gpu{j}", "enclave", per_out)
        self.enclave.ecall("gather_outputs", int(outputs.nbytes))

    def _verify_forward(self, coeffs: CoefficientSet, outputs: np.ndarray) -> None:
        if not self.config.integrity:
            return
        report = IntegrityVerifier(coeffs).verify_forward(outputs)
        report.raise_on_failure()
        self.enclave.record_compute("integrity_check", int(outputs.nbytes))

    # ------------------------------------------------------------------
    # staged forward ops: stage_linear -> encode -> dispatch -> decode
    # ------------------------------------------------------------------
    def stage_linear(
        self,
        kind: str,
        w: np.ndarray,
        b: np.ndarray | None,
        key: str,
        stride: int = 1,
        pad: int = 0,
    ) -> StagedLinearOp:
        """Prepare one linear layer for staged execution.

        Pays the per-layer costs exactly once — weight normalisation,
        quantization, and broadcast to every device — so each virtual batch
        afterwards only pays encode/dispatch/decode.  ``kind`` is
        ``"conv2d"`` or ``"dense"``.
        """
        if kind not in ("conv2d", "dense"):
            raise ConfigurationError(f"unknown staged linear op kind {kind!r}")
        # Re-staging a layer starts a fresh forward for it: stale records
        # (e.g. a re-forward with fewer virtual batches before end_batch)
        # are dropped wholesale, shares included, so backward never mixes
        # encodings from two different forward passes.
        stale = self._forward_store.pop(key, None)
        if stale:
            for record in stale:
                self.cluster.drop_shares(record.share_key)
        if self._mask_pool is not None:
            # Offline phase: the quantized encoding and its broadcast
            # payload are static across flush windows.  The fingerprint is
            # by array identity — serving weights are never mutated in
            # place, and a model swap hands in new arrays.
            w_arr = np.asarray(w)
            fingerprint = (
                kind,
                id(w_arr),
                w_arr.shape,
                None if b is None else id(np.asarray(b)),
                stride,
                pad,
                self.config.validate_decode,
            )
            cached = self._weight_cache.get(key)
            if cached is not None and cached[0] == fingerprint:
                op = cached[1]
                op.staged_bytes = 0
                self.enclave.record_compute("reuse_weights", 0)
                return op
        w_scaled, w_norm = self._normalize(w)
        w_q = self.quantizer.quantize(w_scaled)
        self.cluster.broadcast_weights(key, w_q)
        if kind == "conv2d":
            gpu_op = lambda dev, share_key: dev.conv2d_forward(share_key, key, stride, pad)
        else:
            gpu_op = lambda dev, share_key: dev.dense_forward(share_key, key)
        validate = None
        if self.config.validate_decode:
            if kind == "conv2d":
                reference = lambda rows: self._float_conv(rows, w, stride, pad)
            else:
                reference = lambda rows: rows @ w
            validate = lambda got, rows: self._validate(got, reference(rows), key)
        op = StagedLinearOp(
            kind=kind, key=key, w_norm=w_norm, bias=b, gpu_op=gpu_op, validate=validate
        )
        op.staged_bytes = int(w_q.nbytes)
        if self._mask_pool is not None:
            self.enclave.record_compute("stage_weights", int(w_q.nbytes))
            self._weight_cache[key] = (fingerprint, op)
        return op

    def encode(self, op: StagedLinearOp, vb: VirtualBatch, vb_index: int) -> EncodeTicket:
        """Stage 1 — mask one virtual batch and scatter its shares.

        The forward record is registered *before* returning, so the shares
        now resident on the devices are always released by
        :meth:`end_batch`, even if the pipeline aborts before this ticket
        is ever dispatched or decoded.
        """
        data, x_norm = self._normalize_inputs(vb.data)
        x_q = self.quantizer.quantize(data)
        self.enclave.record_compute("quantize_inputs", int(x_q.nbytes))
        coeffs = self._fresh_coefficients()
        encoder = ForwardEncoder(coeffs, self.enclave.rng)
        inline_noise_bytes = int(coeffs.m) * int(x_q[0].nbytes)
        if self._mask_pool is not None and coeffs.m > 0:
            noise, pooled = self._mask_pool.draw(
                x_q.shape[1:], coeffs.k, coeffs.m
            )
            if pooled:
                self.enclave.record_compute("mask_pool_hit", int(noise.nbytes))
                inline_noise_bytes = 0
            else:
                self.enclave.record_compute("mask_inline", int(noise.nbytes))
            encoded = encoder.encode(x_q, noise=noise)
        else:
            encoded = encoder.encode(x_q)
        self.enclave.record_compute("encode_forward", int(encoded.shares.nbytes))
        share_key = f"{op.key}/step{self._step}/vb{vb_index}"
        self._scatter(share_key, encoded.shares)
        self._forward_store.setdefault(op.key, []).append(
            _ForwardRecord(
                coefficients=coeffs,
                share_key=share_key,
                indices=vb.indices,
                n_real=vb.n_real,
                x_norm=x_norm,
                w_norm=op.w_norm,
                vb_index=vb_index,
            )
        )
        return EncodeTicket(
            op=op,
            share_key=share_key,
            coefficients=coeffs,
            vb_index=vb_index,
            indices=vb.indices,
            n_real=vb.n_real,
            x_norm=x_norm,
            encode_bytes=int(encoded.shares.nbytes),
            inline_noise_bytes=inline_noise_bytes,
        )

    def dispatch(self, ticket: EncodeTicket) -> GpuFuture:
        """Stage 2 — run the bilinear kernel on every device holding a share.

        Compute happens eagerly (the simulation has no real asynchrony);
        the future carries the real per-share MAC count so a scheduler can
        price when the result *would* be ready on the simulated clock.
        """
        coeffs = ticket.coefficients
        macs_before = self.cluster.total_mac_ops()
        outputs = self.cluster.map_shares(
            coeffs.n_shares, lambda dev: ticket.op.gpu_op(dev, ticket.share_key)
        )
        macs = self.cluster.total_mac_ops() - macs_before
        return GpuFuture(
            ticket=ticket,
            outputs=outputs,
            macs_per_share=macs // max(1, coeffs.n_shares),
            output_bytes=int(outputs.nbytes),
        )

    def decode(self, future: GpuFuture) -> np.ndarray:
        """Stage 3 — gather, verify, unmask, dequantize; real rows only.

        Bias is *not* applied here (callers add it after concatenation,
        exactly like the synchronous path).
        """
        ticket = future.ticket
        self._gather(future.outputs)
        self._verify_forward(ticket.coefficients, future.outputs)
        decoded = ForwardDecoder(ticket.coefficients).decode(future.outputs)
        self.enclave.record_compute("decode_forward", int(decoded.nbytes))
        y = self.quantizer.dequantize_product(decoded)
        y = y * (ticket.x_norm.factor * ticket.op.w_norm.factor)
        return y[: ticket.n_real]

    def _masked_forward(self, x: np.ndarray, op: StagedLinearOp) -> np.ndarray:
        """Synchronous forward for training: drive the three stages back
        to back per virtual batch, one layer at a time."""
        outputs = [
            self.decode(self.dispatch(self.encode(op, vb, vb_index)))
            for vb_index, vb in enumerate(
                iter_virtual_batches(x, self.config.virtual_batch_size)
            )
        ]
        return np.concatenate(outputs, axis=0)

    def conv2d_forward(self, x, w, b, stride, pad, key):
        """Masked convolution over the virtual-batched input."""
        op = self.stage_linear("conv2d", w, b, key, stride, pad)
        out = self._masked_forward(x, op)
        if self.config.validate_decode:
            self._validate(out, self._float_conv(x, w, stride, pad), key)
        if b is not None:
            out = out + b.reshape(1, -1, 1, 1)
        return out

    def dense_forward(self, x, w, b, key):
        """Masked dense layer over the virtual-batched input."""
        op = self.stage_linear("dense", w, b, key)
        out = self._masked_forward(x, op)
        if self.config.validate_decode:
            self._validate(out, x @ w, key)
        if b is not None:
            out = out + b
        return out

    # ------------------------------------------------------------------
    # backward weight gradients (the Eq_j protocol)
    # ------------------------------------------------------------------
    def _masked_grad_w(self, delta: np.ndarray, key: str, gpu_op) -> np.ndarray:
        """Shared backward path: returns ``Σ_i <δ(i), x(i)>`` in float.

        ``gpu_op(device, share_key, combined_delta) -> field tensor``
        computes one ``Eq_j``.
        """
        if self.config.per_sample_normalization:
            raise ConfigurationError(
                "per-sample normalization is inference-only: the backward"
                " decode recovers a batch-aggregated gradient, which only a"
                " scalar batch factor can unscale"
            )
        records = self._forward_store.get(key)
        if not records:
            raise DecodingError(
                f"no stored forward encodings for layer {key!r}; run forward first"
            )
        cfg = self.config
        total: np.ndarray | None = None
        # Pipelined forwards may register records out of virtual-batch order;
        # sum in vb order so gradients are bit-identical to the sync path.
        records = sorted(records, key=lambda r: r.vb_index)
        staged: list[tuple] = []  # (record, d_q, d_norm, field equations)
        for record in records:
            rows = delta[list(record.indices)]
            if rows.shape[0] < cfg.virtual_batch_size:
                pad_rows = np.zeros(
                    (cfg.virtual_batch_size - rows.shape[0],) + rows.shape[1:],
                    dtype=rows.dtype,
                )
                rows = np.concatenate([rows, pad_rows], axis=0)
            d_scaled, d_norm = self._grad_normalizer.normalize(rows)
            d_q = self.quantizer.quantize(d_scaled)
            self.enclave.record_compute("quantize_deltas", int(d_q.nbytes))
            coeffs = record.coefficients
            # Quantized deltas and the public B rows ship to every GPU; the
            # combination Σ_i B[j,i]·δ(i) is GPU-side work (Section 4.2:
            # "δ(i)s are multiplied with the β_{j,i} in the GPUs").
            for j in range(coeffs.n_shares):
                self.link.transfer("enclave", f"gpu{j}", int(d_q.nbytes))
            equations = self.cluster.map_shares(
                coeffs.n_shares,
                lambda dev: gpu_op(
                    dev,
                    record.share_key,
                    dev.combine_deltas(d_q, coeffs.b[dev.device_id]),
                ),
            )
            self._gather(equations)
            staged.append((record, d_q, d_norm, np.asarray(equations, np.int64)))
        # All virtual batches share one coefficient set unless
        # fresh_coefficients re-draws per encode; in the shared case every
        # per-record gamma decode collapses into one batched GEMM
        # (bit-identical: field arithmetic is exact, order-free).
        coeffs0 = records[0].coefficients
        if len(staged) > 1 and all(
            r.coefficients is coeffs0 for r in records
        ) and len({eq.shape for _, _, _, eq in staged}) == 1:
            aggregates = list(
                BackwardDecoder(coeffs0).decode_many(
                    np.stack([eq for _, _, _, eq in staged])
                )
            )
        else:
            aggregates = [
                BackwardDecoder(record.coefficients).decode(eq)
                for record, _, _, eq in staged
            ]
        for (record, d_q, d_norm, _), aggregate in zip(staged, aggregates):
            coeffs = record.coefficients
            self.enclave.record_compute("decode_backward", int(aggregate.nbytes))
            if cfg.integrity:
                self._verify_backward(coeffs, d_q, aggregate, gpu_op, record)
            # The decode yields Σ<δ', x'> of the *normalised* operands; the
            # weight factor never enters a (δ, x) pairing, so only the input
            # and gradient factors multiply back.
            grad = self.quantizer.dequantize_product(aggregate)
            contribution = grad * (record.x_norm.factor * d_norm.factor)
            if self._aggregator is not None:
                self._aggregator.add_update(f"{key}/{record.share_key}", contribution)
            else:
                total = contribution if total is None else total + contribution
        if self._aggregator is not None:
            keys = [f"{key}/{r.share_key}" for r in records]
            return self._aggregator.aggregate(keys)
        return total

    def _verify_backward(self, coeffs, d_q, primary_aggregate, gpu_op, record) -> None:
        """Re-decode the aggregate under a ``B`` supported on an alternate subset."""
        # The first two invertible subsets always include a non-primary one
        # when any exists, so a longer enumeration would only cost time.
        alt_subset = next(
            (s for s in coeffs.iter_decoding_subsets(limit=2) if s != coeffs.primary_subset),
            None,
        )
        if alt_subset is None:
            raise IntegrityError(
                "coefficient set admits no alternate decode subset;"
                " cannot verify the gradient"
            )
        b_alt, gamma = coeffs.backward_matrices_for_subset(alt_subset)
        equations = self.cluster.map_shares(
            coeffs.n_shares,
            lambda dev: gpu_op(
                dev,
                record.share_key,
                dev.combine_deltas(d_q, b_alt[dev.device_id]),
            ),
        )
        alt_aggregate = BackwardDecoder(coeffs).decode_with_matrices(
            equations, b_alt, gamma
        )
        verifier = IntegrityVerifier(coeffs)
        report = verifier.verify_backward(
            {coeffs.primary_subset: primary_aggregate, alt_subset: alt_aggregate}
        )
        report.raise_on_failure()
        self.enclave.record_compute("integrity_check_backward", int(d_q.nbytes))

    def conv2d_grad_w(self, x, delta, kh, kw, stride, pad, key):
        """Masked batch-aggregate conv weight gradient."""
        grad = self._masked_grad_w(
            delta,
            key,
            lambda dev, share_key, combined: dev.backward_equation_conv(
                share_key, combined, kh, kw, stride, pad
            ),
        )
        if self.config.validate_decode:
            from repro.nn import functional as F

            self._validate(
                grad, F.conv2d_grad_w(x, delta, kh, kw, np.matmul, stride, pad), key
            )
        return grad

    def dense_grad_w(self, x, delta, key):
        """Masked batch-aggregate dense weight gradient (``x^T @ δ``)."""
        grad = self._masked_grad_w(
            delta,
            key,
            lambda dev, share_key, combined: dev.backward_equation_dense(
                share_key, combined
            ),
        )
        if self.config.validate_decode:
            self._validate(grad, x.T @ delta, key)
        return grad

    # ------------------------------------------------------------------
    # delta propagation — offloaded unencoded (no input data involved)
    # ------------------------------------------------------------------
    def conv2d_grad_x(self, w, delta, x_shape, stride, pad, key):
        """Input gradient on GPU 0, raw floats (Section 4.2's second op)."""
        return self.cluster[0].float_conv2d_grad_x(w, delta, x_shape, stride, pad)

    def dense_grad_x(self, w, delta, key):
        """Input gradient ``δ @ w^T`` on GPU 0, raw floats."""
        return self.cluster[0].float_matmul(delta, w.T)

    # ------------------------------------------------------------------
    # lifecycle / debug
    # ------------------------------------------------------------------
    def end_batch(self) -> None:
        """Drop stored encodings on enclave and GPUs (between batches).

        Idempotent: a second call with no intervening forward work is a
        no-op (and does not advance the step counter), so defensive
        ``finally:``-style cleanup can stack without consequence.  Every
        encoding registered by :meth:`encode` is released here — including
        tickets a pipeline abort left undispatched or undecoded.
        """
        if not self._forward_store:
            return
        for records in self._forward_store.values():
            for record in records:
                self.cluster.drop_shares(record.share_key)
        self._forward_store.clear()
        self._step += 1

    def open_encodings(self) -> int:
        """Stored (layer, virtual-batch) encodings not yet released."""
        return sum(len(records) for records in self._forward_store.values())

    # ------------------------------------------------------------------
    # offline precompute (mask pool + weight-encoding cache)
    # ------------------------------------------------------------------
    def invalidate_precompute(self) -> None:
        """Drop cached weight encodings (membership change / model swap).

        The next :meth:`stage_linear` per layer re-quantizes and
        re-broadcasts from scratch.  The mask pool is untouched — its
        streams are keyed by shape, not by model identity, and its
        counters must keep advancing for bit-identity.
        """
        self._weight_cache.clear()

    def precompute_pending(self) -> int:
        """Bytes of the next mask-pool refill unit (0 = saturated or off).

        The pipeline executor polls this to fill enclave idle gaps with
        ``stage_precompute`` work.
        """
        return 0 if self._mask_pool is None else self._mask_pool.pending_bytes()

    def precompute_refill(self) -> int:
        """Pregenerate one mask tensor; returns its byte size."""
        if self._mask_pool is None:
            return 0
        nbytes = self._mask_pool.refill_one()
        if nbytes:
            self.enclave.record_compute("precompute_mask", nbytes)
        return nbytes

    def precompute_snapshot(self) -> dict | None:
        """Strict-JSON pool + weight-cache telemetry (``None`` when off)."""
        if self._mask_pool is None:
            return None
        snap = self._mask_pool.snapshot()
        counts = self.enclave.ledger.op_counts
        snap["weights_staged"] = counts.get("stage_weights", 0)
        snap["weights_reused"] = counts.get("reuse_weights", 0)
        snap["cached_layers"] = len(self._weight_cache)
        return snap

    def assert_encodings_released(self) -> None:
        """Fail loudly if any encoding survived cleanup.

        Checks both sides of the scatter: the enclave's forward store and
        the shares resident on every device.  Called after
        :meth:`end_batch` on inference exit paths so a leak (e.g. an abort
        path that skipped a record) surfaces as an error, not as unbounded
        simulated-GPU memory growth.
        """
        leaked = sorted(
            key for dev in self.cluster.devices for key in dev.stored_shares
        )
        if self._forward_store or leaked:
            raise DecodingError(
                f"encodings not released: {self.open_encodings()} forward records"
                f" ({sorted(self._forward_store)}), device shares {leaked[:8]}"
            )

    def _float_conv(self, x, w, stride, pad):
        from repro.nn import functional as F

        return F.conv2d_via_matmul(x, w, np.matmul, stride, pad)

    def _validate(self, got: np.ndarray, want: np.ndarray, key: str) -> None:
        """Debug cross-check of a masked result against the float reference."""
        tol = max(1e-6, 4.0 * self.quantizer.resolution * np.sqrt(got.size / max(1, got.shape[0])))
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        scale = float(np.max(np.abs(want))) + 1.0
        if err > tol * scale:
            raise DecodingError(
                f"masked decode for {key!r} deviates from float reference:"
                f" max err {err:.3e} vs tolerance {tol * scale:.3e}"
                " (likely fixed-point range overflow; lower fractional_bits"
                " or enable dynamic normalisation)"
            )
