"""Structure-of-arrays fleet kernel: one group of streams per loop.

:func:`~repro.stream.fleet.drive_stream` advances one device through
its timeline with per-chunk Python work — ring push, frame energies,
segmenter branches, Welch segments — repeated for every stream. At
fleet scale that per-stream interpreter overhead dominates: the
arithmetic is identical across streams, only the data differs. This
module is the RVH/Harmonia-shaped rewrite of that hot loop: a whole
*group* of streams advances in lockstep, and each cycle's work runs
as ``(n_streams, ...)`` NumPy ops —

* each stream's audio is read chunk by chunk from its
  :class:`~repro.stream.fleet.TimelineSource`, so a group holds one
  ``(n_streams, chunk)`` block rather than whole timelines and its
  memory does not grow with ``gap_s``;
* chunk ingestion is one 2-D write into a shared ring
  (:class:`~repro.stream.chunker.ChunkedStreamBatch`) and one
  ``frame_rms_matrix`` reduction;
* the segmenter state machine advances all rows per frame with masked
  vector ops (:class:`~repro.stream.segmenter.OnlineSegmenterBatch`);
* Welch accumulation gathers every *due* segment across every open
  utterance into one stack and runs a single batched FFT
  (:func:`~repro.stream.features.welch_segment_psd`), folding rows
  back per accumulator in order;
* at group end, recognition batches all closed utterances through the
  anti-diagonal DTW slab
  (:meth:`~repro.speech.recognizer.KeywordRecognizer.recognize_many`)
  and detection batches the trace analyses by utterance length.

Per-stream *scalar* work survives only at boundary events — an
utterance closing (its samples are copied out and its Welch tail
segments finish in the scalar accumulator) and ring growth — exactly
the cheap-fast-path / expensive-rare-boundary split the online
classification literature prescribes.

The contract is the fleet's usual one, extended: every per-stream
digest is **bitwise identical** to :func:`drive_stream`'s for any
grouping of streams into kernel batches. The chain starts at the
audio: the kernel draws each ambient span in chunk-sized pieces where
the scalar loop's :func:`~repro.stream.fleet.assemble_timeline`
draws it whole, and numpy's ``Generator.normal`` yields the same
values either way (pinned by name in
``tests/stream/test_stream_timeline.py``). Each vectorised stage is
row-wise bitwise equal to its scalar counterpart (batched FFT rows,
matrix frame RMS, elementwise float64 state updates, band-masked DTW
slabs), rows never exchange information, and the lockstep zero
padding of shorter timelines is masked out of every decision — the
kernel digest property in ``tests/stream/test_stream_kernel.py``
pins this over arbitrary stream counts and groupings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.defense.detector import InaudibleVoiceDetector
from repro.defense.features import features_from_analysis
from repro.defense.guard import guard_outcome
from repro.defense.traces import analyses_from_psd
from repro.dsp.framing import frame_count
from repro.dsp.signals import Signal, SignalBatch
from repro.errors import DefenseError, StreamError
from repro.obs.trace import current_tracer
from repro.sim.pipeline import StageProfile
from repro.speech.recognizer import KeywordRecognizer
from repro.stream.chunker import ChunkedStreamBatch
from repro.stream.features import WelchAccumulator, welch_segment_psd
from repro.stream.fleet import (
    FleetConfig,
    RawStreamRun,
    TimelineSource,
    assemble_timeline,  # noqa: F401 -- the eager drain, re-exported
)
from repro.stream.guard import UtteranceOutcome
from repro.stream.segmenter import (
    BatchClosed,
    BatchOpened,
    OnlineSegmenterBatch,
    SegmenterConfig,
)

#: Stage-profile mode tag for the streaming kernel's breakdown.
PROFILE_MODE = "stream"


@dataclass
class _Pending:
    """One closed utterance awaiting the batched decide phase."""

    start: int
    end: int
    emitted_at: int
    forced: bool
    samples: np.ndarray
    welch: WelchAccumulator
    unit: str


class _StageClock:
    """Accumulate per-stage wall time for one kernel invocation.

    With a tracer attached every ``start``/``stop`` window is also
    recorded as one span under ``parent_id`` — the per-cycle
    resolution the profile's aggregate totals throw away. Disabled
    (no profile, no tracer), both methods reduce to a predicate
    check.
    """

    def __init__(
        self,
        enabled: bool,
        tracer=None,
        parent_id: int | None = None,
    ) -> None:
        self.enabled = enabled or tracer is not None
        self.tracer = tracer
        self.parent_id = parent_id
        self.seconds: dict[str, float] = {}
        self._started = 0.0

    def start(self) -> None:
        if self.enabled:
            self._started = time.perf_counter()

    def stop(self, stage: str) -> None:
        if self.enabled:
            self.record(stage, self._started, time.perf_counter())

    def record(self, stage: str, started: float, ended: float) -> None:
        """Account one window timed by the caller."""
        if self.enabled:
            self.seconds[stage] = (
                self.seconds.get(stage, 0.0) + ended - started
            )
            if self.tracer is not None:
                self.tracer.record(
                    stage, started, ended, parent_id=self.parent_id
                )


def drive_stream_group(
    config: FleetConfig,
    detector: InaudibleVoiceDetector,
    segmenter_config: SegmenterConfig | None,
    indices: list[int],
    rate: float,
    recognizer: KeywordRecognizer,
    recordings_by_stream: list[list[Signal]],
    attack_by_stream: list[np.ndarray],
    seed_seqs: list[np.random.SeedSequence],
    profile: StageProfile | None = None,
) -> tuple[list[RawStreamRun], float]:
    """Drive a group of streams in lockstep; per-stream results are
    bitwise :func:`~repro.stream.fleet.drive_stream`'s.

    Parameters mirror ``drive_stream`` with the stream axis pluralised:
    ``indices`` are the global stream indices of the group, and entry
    ``b`` of the per-stream lists is that stream's utterance
    recordings, slot attack flags and seed sequence. ``profile``
    (optional) accumulates the kernel's per-stage wall time under
    mode ``"stream"``.

    Each stream's timeline is read one chunk per cycle from its
    :class:`~repro.stream.fleet.TimelineSource`, never materialised;
    bitwise parity with the scalar loop's eager
    :func:`~repro.stream.fleet.assemble_timeline` rests on chunked
    ``Generator.normal`` draws equalling one whole draw.

    Returns ``(runs, assemble_seconds)`` — the second element is the
    wall time spent producing the group's timelines (source set-up
    plus every cycle's chunk fill, ambient draws included), which the
    fleet accounts as *prepare* (workload generation), not streaming
    wall: a deployment receives its audio, it does not draw it from a
    generator.
    """
    n_group = len(indices)
    if not (
        n_group
        == len(recordings_by_stream)
        == len(attack_by_stream)
        == len(seed_seqs)
    ):
        raise StreamError(
            "kernel group fields must be parallel, got lengths "
            f"{n_group}/{len(recordings_by_stream)}/"
            f"{len(attack_by_stream)}/{len(seed_seqs)}"
        )
    if not recognizer.commands:
        raise DefenseError(
            "the recogniser has no enrolled commands; enroll "
            "before installing the guard"
        )
    if rate < 8000.0:
        raise StreamError(
            "the guard needs at least an 8 kHz stream, got "
            f"{rate} Hz"
        )
    tracer = current_tracer()
    if tracer is not None:
        # The group span's id is needed *before* its children are
        # recorded; allocate it now, record the span itself at the
        # end with the id and parent pinned here.
        group_id: int | None = tracer.new_id()
        group_parent = tracer.current_parent()
        group_started = time.perf_counter()
    else:
        group_id = None
    clock = _StageClock(profile is not None, tracer, group_id)

    assemble_started = time.perf_counter()
    sources = [
        TimelineSource(config, rate, recordings, np.random.default_rng(seq))
        for recordings, seq in zip(recordings_by_stream, seed_seqs)
    ]
    units = [recordings[0].unit for recordings in recordings_by_stream]
    assemble_ended = time.perf_counter()
    assemble_seconds = assemble_ended - assemble_started
    clock.record("assemble", assemble_started, assemble_ended)
    clock.start()
    lens = np.array([source.length for source in sources], dtype=np.int64)
    max_len = int(lens.max())
    chunk = max(1, int(round(config.chunk_s * rate)))
    seg_cfg = segmenter_config or SegmenterConfig()
    ring = ChunkedStreamBatch(
        n_group, rate, seg_cfg.frame_length_s, seg_cfg.hop_length_s
    )
    segmenter = OnlineSegmenterBatch(n_group, rate, seg_cfg)
    n_frames = np.array(
        [frame_count(int(n), ring.frame_len, ring.hop) for n in lens],
        dtype=np.int64,
    )
    clock.stop("assemble")

    # Per-row live-utterance state: (start_sample, WelchAccumulator).
    open_welch: list[WelchAccumulator | None] = [None] * n_group
    pending: list[list[_Pending]] = [[] for _ in range(n_group)]
    block = np.empty((n_group, chunk), dtype=np.float64)
    head = 0
    while head < max_len:
        nxt = min(head + chunk, max_len)
        k = nxt - head

        # -- assemble: each row's next chunk from its source --------
        # Exhausted rows read as zero padding. Producing the audio is
        # workload generation, so its time joins assemble_seconds.
        fill_started = time.perf_counter()
        cycle = block[:, :k]
        for source, row in zip(sources, cycle):
            source.read_into(row)
        fill_ended = time.perf_counter()
        assemble_seconds += fill_ended - fill_started
        clock.record("assemble", fill_started, fill_ended)

        # -- ingest: one lockstep push, one matrix frame-RMS --------
        clock.start()
        ring.push_block(cycle)
        head = nxt
        first, energies = ring.pending_frame_energies()
        clock.stop("ingest")
        heads = np.minimum(lens, head)

        # -- segment: vectorised state machine over the new frames --
        clock.start()
        n_new = energies.shape[1]
        if n_new:
            frame_idx = first + np.arange(n_new)
            valid = frame_idx[np.newaxis, :] < n_frames[:, np.newaxis]
            events = segmenter.process_block(first, energies, valid)
        else:
            events = []
        clock.stop("segment")

        # -- boundary events: the per-stream scalar fallback ---------
        clock.start()
        for event in events:
            if isinstance(event, BatchOpened):
                for row in event.rows:
                    open_welch[int(row)] = WelchAccumulator(rate)
            elif isinstance(event, BatchClosed):
                for row, start, end_u, forced in zip(
                    event.rows,
                    event.start_samples,
                    event.end_samples,
                    event.forced,
                ):
                    row, start = int(row), int(start)
                    end = min(int(end_u), int(heads[row]))
                    welch = open_welch[row]
                    open_welch[row] = None
                    pending[row].append(
                        _Pending(
                            start=start,
                            end=end,
                            emitted_at=int(heads[row]),
                            forced=bool(forced),
                            samples=ring.read_row(row, start, end),
                            welch=welch,
                            unit=units[row],
                        )
                    )
        clock.stop("close")

        # -- welch: every due segment of the cycle in one FFT --------
        clock.start()
        open_mask = segmenter.in_utterance
        if open_mask.any():
            bounds = segmenter.commit_bounds(heads)
            starts = segmenter.utterance_starts
            gather_rows: list[int] = []
            gather_starts: list[int] = []
            owners: list[WelchAccumulator] = []
            for row in np.flatnonzero(open_mask):
                welch = open_welch[row]
                start = int(starts[row])
                committed = int(bounds[row]) - start
                for rel in welch.due_starts(committed):
                    gather_rows.append(int(row))
                    gather_starts.append(start + rel)
                    owners.append(welch)
            if owners:
                slab = ring.gather_rows(
                    np.asarray(gather_rows),
                    np.asarray(gather_starts),
                    owners[0].segment_length,
                )
                psd_rows = welch_segment_psd(
                    slab, owners[0].window_values, owners[0].scale
                )
                for welch, psd_row in zip(owners, psd_rows):
                    welch.fold(psd_row)
        clock.stop("welch")

        # -- release: retain open starts, the frame grid, lookback ---
        next_frame_start = ring.frames_emitted * ring.hop
        per_row_keep = np.where(
            open_mask,
            segmenter.utterance_starts,
            segmenter.lookback_samples(),
        )
        keep = min(next_frame_start, int(per_row_keep.min()))
        ring.release(max(ring.tail, keep))

    # -- flush: close still-open rows at their own stream ends -------
    clock.start()
    flush_event = segmenter.flush_open_rows(lens)
    if flush_event is not None:
        for row, start, end in zip(
            flush_event.rows,
            flush_event.start_samples,
            flush_event.end_samples,
        ):
            row, start, end = int(row), int(start), int(end)
            welch = open_welch[row]
            open_welch[row] = None
            pending[row].append(
                _Pending(
                    start=start,
                    end=end,
                    emitted_at=int(lens[row]),
                    forced=False,
                    samples=ring.read_row(row, start, end),
                    welch=welch,
                    unit=units[row],
                )
            )
    clock.stop("close")

    # -- recognize: all closed utterances through the DTW slab -------
    clock.start()
    flat = [(row, p) for row in range(n_group) for p in pending[row]]
    recognitions = recognizer.recognize_many(
        [Signal(p.samples, rate, p.unit) for _, p in flat]
    )
    clock.stop("recognize")

    # -- detect: batched trace analyses for *accepted* utterances ----
    # The guard consults the detector only when recognition accepts
    # (guard_outcome's laziness); computing the PSD of a rejected
    # utterance could even raise where the scalar path would not.
    clock.start()
    accepted = [
        i for i, result in enumerate(recognitions) if result.accepted
    ]
    finalized = {}
    for i in accepted:
        p = flat[i][1]
        finalized[i] = p.welch.finalize(p.samples, p.samples.shape[0])
    groups: dict[tuple[int, str], list[int]] = {}
    for i in accepted:
        p = flat[i][1]
        groups.setdefault((p.samples.shape[0], p.unit), []).append(i)
    detections = {}
    for (_, unit), members in groups.items():
        stack = np.stack([flat[i][1].samples for i in members])
        freqs = finalized[members[0]][0]
        psd = np.concatenate(
            [finalized[i][1] for i in members], axis=0
        )
        analyses = analyses_from_psd(
            SignalBatch(stack, rate, unit), freqs, psd
        )
        for i, analysis in zip(members, analyses):
            vector = features_from_analysis(
                analysis, subset=detector.feature_subset
            )
            detections[i] = detector.classify_features(vector)
    clock.stop("detect")

    outcomes: list[list[UtteranceOutcome]] = [[] for _ in range(n_group)]
    for i, (row, p) in enumerate(flat):
        detection = detections.get(i)
        outcome = guard_outcome(
            recognitions[i], lambda detection=detection: detection
        )
        outcomes[row].append(
            UtteranceOutcome(
                outcome=outcome,
                start_sample=p.start,
                end_sample=p.end,
                emitted_at_sample=p.emitted_at,
                forced=p.forced,
            )
        )

    if profile is not None:
        for stage, seconds in clock.seconds.items():
            profile.add(PROFILE_MODE, stage, seconds, n_group)

    if tracer is not None:
        group_ended = time.perf_counter()
        # Utterance spans are decision *markers*: zero wall width at
        # the decide instant, with the stream-time latency (and the
        # stream that produced them) in the attributes — that is what
        # the reporter's percentile section reads.
        for i, (row, p) in enumerate(flat):
            tracer.record(
                "utterance",
                group_ended,
                group_ended,
                parent_id=group_id,
                stream=int(indices[row]),
                latency_s=(p.emitted_at - p.end) / rate,
                accepted=bool(recognitions[i].accepted),
                forced=p.forced,
            )
        tracer.record(
            "stream-group",
            group_started,
            group_ended,
            parent_id=group_parent,
            span_id=group_id,
            streams=n_group,
        )

    return [
        RawStreamRun(
            index=int(indices[b]),
            is_attack=tuple(bool(flag) for flag in attack_by_stream[b]),
            duration_s=int(lens[b]) / rate,
            outcomes=outcomes[b],
        )
        for b in range(n_group)
    ], assemble_seconds
