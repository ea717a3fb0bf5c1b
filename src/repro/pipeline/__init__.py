"""Layer-pipelined private execution: encode/compute/decode as a schedule.

DarKnight's headline speedup comes from overlapping enclave encode/decode
with GPU linear compute (the paper's Fig. 7).  This package makes that
overlap a first-class, inspectable schedule instead of an implementation
accident: stage objects (:mod:`repro.pipeline.stages`), a simulated-time
cost model and the serialized enclave clock (:mod:`repro.pipeline.timing`),
and the event-driven :class:`~repro.pipeline.executor.PipelineExecutor`
that interleaves stages across in-flight virtual batches.

The executor is the repository's only scheduler: every private inference
(engine batches, serving windows, layer-partition stage ranges) runs
through it, ranked by one built-in key — earliest feasible start, then
tightest SLO deadline, then decodes before encodes, then oldest job.

Relationship to :mod:`repro.perf`: that package *predicts* per-phase
times from analytical architecture specs (the paper's tables/figures);
this package *executes* real masked compute and accounts the stages it
actually ran.
"""

from repro.pipeline.executor import GroupResult, PipelineExecutor, PipelineResult
from repro.pipeline.stages import (
    EncodeTicket,
    GpuFuture,
    PipelineStats,
    StagedLinearOp,
    StageSpan,
)
from repro.pipeline.timing import DEFAULT_STAGE_COSTS, EnclaveTimeline, StageCostModel

__all__ = [
    "PipelineExecutor",
    "PipelineResult",
    "GroupResult",
    "StagedLinearOp",
    "EncodeTicket",
    "GpuFuture",
    "StageSpan",
    "PipelineStats",
    "StageCostModel",
    "DEFAULT_STAGE_COSTS",
    "EnclaveTimeline",
]
