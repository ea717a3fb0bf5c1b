"""Wall-clock span recorder that wraps the program's public layer functions.

The recorder lives entirely in the benchmark: :func:`install` replaces the
functions listed in :data:`LAYERS` with thin wrappers that open a span on
entry and close it on exit, and :func:`uninstall` puts the original
objects back.  Untraced runs never call :func:`install`, so they measure
the unmodified program.

Each span records its name, ``perf_counter_ns`` start and end, its parent
span and the dispatch window or training step it ran in.  Spans are kept
in memory; :meth:`SpanRecorder.chrome_trace` renders them as Chrome
trace-event JSON (``chrome://tracing`` / Perfetto) for writing at exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

#: ``span name -> [(module, qualified attribute), ...]``.  A qualified
#: attribute is either ``Class.method`` (wrapped on the class) or a plain
#: module-level function name (rebound in every ``repro`` module that
#: imported it).  Several targets may share one span name.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "masking.verify_forward": [("repro.masking.integrity", "IntegrityVerifier.verify_forward")],
    "masking.verify_backward": [("repro.masking.integrity", "IntegrityVerifier.verify_backward")],
    "masking.forward_encode": [("repro.masking.forward", "ForwardEncoder.encode")],
    "masking.forward_decode": [("repro.masking.forward", "ForwardDecoder.decode")],
    "masking.backward_decode_many": [("repro.masking.backward", "BackwardDecoder.decode_many")],
    "masking.coeff_generate": [("repro.masking.coefficients", "CoefficientSet.generate")],
    "fieldmath.matmul": [("repro.fieldmath.kernels", "LimbBackend.matmul")],
    "gpu.map_shares": [("repro.gpu.cluster", "GpuCluster.map_shares")],
    "runtime.stage_linear": [("repro.runtime.darknight", "DarKnightBackend.stage_linear")],
    "runtime.encode": [("repro.runtime.darknight", "DarKnightBackend.encode")],
    "runtime.dispatch": [("repro.runtime.darknight", "DarKnightBackend.dispatch")],
    "runtime.decode": [("repro.runtime.darknight", "DarKnightBackend.decode")],
    "runtime.train_step": [("repro.runtime.trainer", "Trainer.train_step")],
    "quantization.quantize": [("repro.quantization.fixed_point", "QuantizationConfig.quantize")],
    "quantization.dequantize_product": [
        ("repro.quantization.fixed_point", "QuantizationConfig.dequantize_product")
    ],
    "enclave.aead_encrypt": [("repro.enclave.crypto", "StreamAead.encrypt")],
    "enclave.aead_decrypt": [("repro.enclave.crypto", "StreamAead.decrypt")],
    "sharding.seal": [("repro.sharding.partition", "seal_activations")],
    "sharding.open": [("repro.sharding.partition", "open_activations")],
    "audit.commit_window": [("repro.audit.trail", "AuditTrail.commit_window")],
    "precompute.draw": [("repro.precompute.pool", "MaskStreamPool.draw")],
    "precompute.refill": [("repro.precompute.pool", "MaskStreamPool.refill_one")],
    "pipeline.run_grouped": [("repro.pipeline.executor", "PipelineExecutor.run_grouped")],
    "serving.serve_trace": [("repro.serving.server", "PrivateInferenceServer.serve_trace")],
    "serving.dispatch_window": [("repro.serving.worker", "InferenceWorkerPool.dispatch_window")],
    "serving.scheduler.collect": [
        ("repro.serving.scheduler", "ShardedBatchScheduler.collect_ready"),
        ("repro.serving.scheduler", "ShardedBatchScheduler.collect_expired"),
    ],
}

#: Spans that start a new dispatch window / training step id for their
#: descendants.
CONTEXT_ROOTS = ("serving.dispatch_window", "runtime.train_step")

#: Spans whose return value carries a wire size (``.nbytes``) worth
#: summing, e.g. the sealed activation hand-off per hop.
BYTES_OF_RESULT = ("sharding.seal",)


@dataclass(slots=True)
class Span:
    """One closed call of a wrapped function."""

    name: str
    start_ns: int
    end_ns: int
    parent: int  #: index of the parent span, ``-1`` for a root
    context: int  #: dispatch window / training step id, ``-1`` outside one
    child_ns: int = 0  #: wall time covered by direct children
    nbytes: int = 0


@dataclass
class LayerTotals:
    """Per-name aggregate over a set of spans."""

    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    nbytes: int = 0


@dataclass
class SpanRecorder:
    """In-memory span store; ``active`` gates recording (wrappers stay cheap)."""

    active: bool = False
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _context: int = -1
    _next_context: int = 0
    _roots_open: int = 0

    def reset(self) -> None:
        """Drop every recorded span (the recorder must be idle)."""
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans = []
        self._context = -1

    def open(self, name: str) -> int:
        """Start a span; returns its index for :meth:`close`."""
        parent = self._stack[-1] if self._stack else -1
        if name in CONTEXT_ROOTS:
            if self._roots_open == 0:
                self._context = self._next_context
                self._next_context += 1
            self._roots_open += 1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self._context))
        self._stack.append(index)
        return index

    def close(self, index: int, result=None) -> None:
        """End the span ``index`` (must be the innermost open one)."""
        end = time.perf_counter_ns()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {index} closed while span {top} is open")
        span = self.spans[index]
        span.end_ns = end
        if span.name in BYTES_OF_RESULT and result is not None:
            span.nbytes = int(getattr(result, "nbytes", 0))
        if span.parent >= 0:
            self.spans[span.parent].child_ns += end - span.start_ns
        if span.name in CONTEXT_ROOTS:
            self._roots_open -= 1
            if self._roots_open == 0:
                self._context = -1

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, self time and inclusive time per span name.

        Self time is a span's duration minus the time its direct children
        cover.  Calls are single-threaded and strictly nested, so children
        never overlap each other.
        """
        out: dict[str, LayerTotals] = {}
        for span in self.spans:
            row = out.setdefault(span.name, LayerTotals())
            duration = span.end_ns - span.start_ns
            row.calls += 1
            row.self_ns += duration - span.child_ns
            row.total_ns += duration
            row.nbytes += span.nbytes
        return out

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events)."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(s.start_ns for s in self.spans)
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start_ns - origin) / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": span.parent, "context": span.context},
            }
            for i, span in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _wrap(fn, name: str, recorder: SpanRecorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.close(index, result)

    return wrapper


#: What :func:`install` replaced: ``(owner, attribute, original object as
#: stored on the owner)``, so :func:`uninstall` can put it back.
Installation = list[tuple[object, str, object]]


def _resolve(module_name: str, qualname: str) -> tuple[object, str]:
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".", 1)
        return getattr(module, cls_name), attr
    return module, qualname


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every target in :data:`LAYERS`; the recorder gates recording."""
    replaced: Installation = []
    for name, targets in LAYERS.items():
        for module_name, qualname in targets:
            owner, attr = _resolve(module_name, qualname)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(_wrap(original.__func__, name, recorder))
                else:
                    wrapped = _wrap(original, name, recorder)
                setattr(owner, attr, wrapped)
                replaced.append((owner, attr, original))
                continue
            # A module-level function: rebind it wherever a repro module
            # imported it by name, so every call site goes through the span.
            original = getattr(owner, attr)
            wrapped = _wrap(original, name, recorder)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        replaced.append((mod, key, original))
    return replaced


def uninstall(installation: Installation) -> None:
    """Restore every attribute :func:`install` replaced, newest first."""
    for owner, attr, original in reversed(installation):
        setattr(owner, attr, original)
    installation.clear()
