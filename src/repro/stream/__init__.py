"""Online streaming: the defense as it would actually deploy.

Every other execution path in this repository is offline batch — a
complete recording in, a verdict out. This package is the online
counterpart: audio arrives as arbitrary-sized chunks, utterances are
delimited causally, and the defense's features accumulate
incrementally so the verdict lands a bounded, deterministic time
after the speech ends.

There is one streaming engine, the structure-of-arrays guard kernel;
the fleet drives it a group of streams at a time and the gated guard
one stream at a time.

``chunker``
    :class:`~repro.stream.chunker.ChunkedStreamBatch`, the
    absolute-indexed ring buffer over a group of streams and its
    frame grid (shared with the offline VAD through
    :mod:`repro.dsp.framing`).
``segmenter``
    :class:`~repro.stream.segmenter.OnlineSegmenterBatch`, the causal
    VAD gate with hysteresis and a noise-floor tracker, one row per
    stream.
``features``
    :class:`~repro.stream.features.WelchAccumulator` and
    :class:`~repro.stream.features.StreamingTraceExtractor` —
    incremental defense features, bitwise-matched to the offline
    estimators at utterance close.
``kernel``
    :class:`~repro.stream.kernel.StreamGroup` (ring, segmenter and
    Welch state; one cycle per push) and
    :func:`~repro.stream.kernel.decide_utterances` — the engine —
    plus :func:`~repro.stream.kernel.drive_stream_group`, which runs
    a fleet group's timelines through them.
``guard``
    :class:`~repro.stream.guard.StreamingGuard`, the online guarded
    assistant (same :class:`~repro.defense.guard.GuardedOutcome`, same
    decision policy as the offline one); gated, a one-row kernel
    group.
``fleet``
    :class:`~repro.stream.fleet.FleetSimulator`, hundreds of
    concurrent device streams multiplexed over the batched trial
    pipeline and the kernel, with per-stream ``SeedSequence``
    randomness and worker-count-independent results.
``shard``
    :class:`~repro.stream.shard.ShardedFleetSimulator`, the fleet
    partitioned into per-process shards — digests bitwise identical
    to the unsharded simulator for every shard × worker count.
"""

from repro.stream.features import (
    StreamingTraceExtractor,
    WelchAccumulator,
)
from repro.stream.fleet import (
    FleetConfig,
    FleetReport,
    FleetSimulator,
    StreamResult,
    UtteranceDigest,
    synthesize_utterances,
)
from repro.stream.guard import StreamingGuard, UtteranceOutcome
from repro.stream.shard import (
    ShardAccumulator,
    ShardedFleetSimulator,
    ShardResult,
    ShardTask,
    plan_shards,
    run_shard,
)
from repro.stream.segmenter import SegmenterConfig

__all__ = [
    "WelchAccumulator",
    "StreamingTraceExtractor",
    "SegmenterConfig",
    "StreamingGuard",
    "UtteranceOutcome",
    "FleetConfig",
    "FleetReport",
    "FleetSimulator",
    "StreamResult",
    "UtteranceDigest",
    "synthesize_utterances",
    "ShardAccumulator",
    "ShardResult",
    "ShardTask",
    "ShardedFleetSimulator",
    "plan_shards",
    "run_shard",
]
