"""Structure-of-arrays guard kernel: one group of streams per loop.

The online guard's per-chunk work — ring push, frame energies,
segmenter branches, Welch segments — is the same arithmetic for every
stream; only the data differs. This module runs it for a whole
*group* of streams in lockstep, each cycle's work as
``(n_streams, ...)`` NumPy ops (the RVH/Harmonia-shaped hot loop):

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
* the decide phase batches closed utterances through the
  anti-diagonal DTW slab
  (:meth:`~repro.speech.recognizer.KeywordRecognizer.recognize_many`)
  and the trace analyses by utterance length.

:class:`StreamGroup` is that per-cycle state and cycle body, and
:func:`decide_utterances` the decide phase. There is one of each, and
both online engines are built from them:
:func:`drive_stream_group` pushes a fleet group's timelines and
decides once at group end; the gated
:class:`~repro.stream.guard.StreamingGuard` is a one-row group that
decides after every push.

Per-stream scalar work survives only at boundary events — an
utterance closing (its samples are copied out and its Welch tail
segments finish in the scalar accumulator) and ring growth — exactly
the cheap-fast-path / expensive-rare-boundary split the online
classification literature prescribes.

Parity rests on two oracles, both pinned in
``tests/stream/test_stream_kernel.py``:

* **Offline.** Every verdict — recognition distances, detector score
  and features — is bitwise the offline
  :class:`~repro.defense.guard.GuardedVoiceAssistant` processing the
  utterance's ``[start, end)`` span of the stream's
  :func:`~repro.stream.fleet.assemble_timeline`. The chain starts at
  the audio: the kernel draws each ambient span in chunk-sized pieces
  where ``assemble_timeline`` draws it whole, and numpy's
  ``Generator.normal`` yields the same values either way (pinned by
  name in ``tests/stream/test_stream_timeline.py``).
* **Grouping.** Rows never exchange information and the lockstep zero
  padding of shorter timelines is masked out of every decision, so any
  grouping of streams into kernel batches — and the one-row gated
  guard under any chunk partition — yields each stream's
  one-stream-per-group outcomes bitwise. Only ``emitted_at_sample``
  (the stream head at the decision) depends on the chunk size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.defense.detector import InaudibleVoiceDetector
from repro.defense.features import features_from_analysis
from repro.defense.guard import GuardedOutcome, guard_outcome
from repro.defense.traces import analyses_from_psd
from repro.dsp.signals import Signal, SignalBatch
from repro.errors import DefenseError, StreamError
from repro.obs.trace import current_tracer, maybe_span
from repro.speech.recognizer import KeywordRecognizer
from repro.stream.chunker import ChunkedStreamBatch
from repro.stream.features import WelchAccumulator, welch_segment_psd
from repro.stream.fleet import (
    FleetConfig,
    RawStreamRun,
    TimelineSource,
    assemble_timeline,  # noqa: F401 -- the eager drain, re-exported
)
from repro.stream.segmenter import (
    BatchClosed,
    BatchOpened,
    OnlineSegmenterBatch,
    SegmenterConfig,
)

@dataclass(frozen=True)
class UtteranceOutcome:
    """One gated utterance's verdict, with its stream bookkeeping.

    Attributes
    ----------
    outcome:
        The guard's decision, shaped exactly like the offline
        assistant's.
    start_sample, end_sample:
        Absolute utterance boundaries in the stream.
    emitted_at_sample:
        Stream head when the verdict was emitted. The gap to
        ``end_sample`` is the detection latency in *stream time* —
        deterministic for a given chunking, unlike wall clock.
    forced:
        Whether the segmenter force-closed at ``max_utterance_s``.
    """

    outcome: GuardedOutcome
    start_sample: int
    end_sample: int
    emitted_at_sample: int
    forced: bool

    def latency_s(self, sample_rate: float) -> float:
        """Detection latency in stream seconds (audio time)."""
        return (self.emitted_at_sample - self.end_sample) / sample_rate


@dataclass
class _Pending:
    """One closed utterance awaiting the decide phase."""

    row: int
    start: int
    end: int
    emitted_at: int
    forced: bool
    samples: np.ndarray
    welch: WelchAccumulator
    unit: str


def _tick(tracer) -> float:
    """A stage's start time, or ``0.0`` with no tracer active."""
    return time.perf_counter() if tracer is not None else 0.0


def _stage(tracer, name: str, started: float, trials: int) -> None:
    """Record one kernel stage window as a ``mode="stream"`` stage
    span (:func:`repro.obs.report.stage_rows`), if tracing."""
    if tracer is not None:
        tracer.record(
            name, started, time.perf_counter(), mode="stream", trials=trials
        )


def check_guard_inputs(
    recognizer: KeywordRecognizer, rate: float
) -> None:
    """The guard's preconditions: an enrolled recogniser, >= 8 kHz."""
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


class StreamGroup:
    """The ring, segmenter and Welch state of a lockstep stream group.

    :meth:`push` runs one cycle over a ``(n_rows, k)`` block — ingest,
    segment, close events, Welch, release — and returns the
    utterances it closed; :meth:`flush` closes the rows still open at
    stream end. ``heads`` is each row's real sample count so far: the
    frames beyond it are the zero padding of a finished row and are
    masked out of the segmenter, and closing utterances are capped at
    it. With a tracer active each stage window is a stage span
    tagged ``trials=n_rows``.
    """

    def __init__(
        self,
        n_rows: int,
        rate: float,
        segmenter_config: SegmenterConfig | None,
        units: list[str],
    ) -> None:
        seg_cfg = segmenter_config or SegmenterConfig()
        self.n_rows = n_rows
        self.rate = float(rate)
        self.units = list(units)
        self.ring = ChunkedStreamBatch(
            n_rows, rate, seg_cfg.frame_length_s, seg_cfg.hop_length_s
        )
        self.segmenter = OnlineSegmenterBatch(n_rows, rate, seg_cfg)
        self._welch: list[WelchAccumulator | None] = [None] * n_rows

    def push(self, block: np.ndarray, heads) -> list[_Pending]:
        """One cycle over ``block``; the utterances it closed."""
        ring, segmenter, n_rows = self.ring, self.segmenter, self.n_rows
        heads = np.asarray(heads, dtype=np.int64)
        tracer = current_tracer()

        # -- ingest: one lockstep push, one matrix frame-RMS --------
        started = _tick(tracer)
        ring.push_block(block)
        first, energies = ring.pending_frame_energies()
        _stage(tracer, "ingest", started, n_rows)

        # -- segment: vectorised state machine over the new frames --
        started = _tick(tracer)
        n_new = energies.shape[1]
        if n_new:
            # Per-row frame_count(heads): frames wholly inside the
            # row's real samples.
            n_frames = (heads - ring.frame_len) // ring.hop + 1
            frame_idx = first + np.arange(n_new)
            valid = frame_idx[np.newaxis, :] < n_frames[:, np.newaxis]
            events = segmenter.process_block(first, energies, valid)
        else:
            events = []
        _stage(tracer, "segment", started, n_rows)

        # -- boundary events: the per-stream scalar fallback ---------
        started = _tick(tracer)
        closed: list[_Pending] = []
        for event in events:
            if isinstance(event, BatchOpened):
                for row in event.rows:
                    self._welch[int(row)] = WelchAccumulator(self.rate)
            else:
                closed.extend(self._close(event, heads))
        _stage(tracer, "close", started, n_rows)

        # -- welch: every due segment of the cycle in one FFT --------
        started = _tick(tracer)
        open_mask = segmenter.in_utterance
        if open_mask.any():
            bounds = segmenter.commit_bounds(heads)
            starts = segmenter.utterance_starts
            gather_rows: list[int] = []
            gather_starts: list[int] = []
            owners: list[WelchAccumulator] = []
            for row in np.flatnonzero(open_mask):
                welch = self._welch[row]
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
        _stage(tracer, "welch", started, n_rows)

        # -- release: retain open starts, the frame grid, lookback ---
        next_frame_start = ring.frames_emitted * ring.hop
        per_row_keep = np.where(
            open_mask,
            segmenter.utterance_starts,
            segmenter.lookback_samples(),
        )
        keep = min(next_frame_start, int(per_row_keep.min()))
        ring.release(max(ring.tail, keep))
        return closed

    def flush(self, heads) -> list[_Pending]:
        """End of stream: close every still-open row at its head."""
        tracer = current_tracer()
        started = _tick(tracer)
        heads = np.asarray(heads, dtype=np.int64)
        event = self.segmenter.flush_open_rows(heads)
        closed = [] if event is None else self._close(event, heads)
        _stage(tracer, "close", started, self.n_rows)
        return closed

    def _close(
        self, event: BatchClosed, heads: np.ndarray
    ) -> list[_Pending]:
        closed = []
        for row, start, end, forced in zip(
            event.rows,
            event.start_samples,
            event.end_samples,
            event.forced,
        ):
            row, start, head = int(row), int(start), int(heads[row])
            end = min(int(end), head)
            closed.append(
                _Pending(
                    row=row,
                    start=start,
                    end=end,
                    emitted_at=head,
                    forced=bool(forced),
                    samples=self.ring.read_row(row, start, end),
                    welch=self._welch[row],
                    unit=self.units[row],
                )
            )
            self._welch[row] = None
        return closed


def decide_utterances(
    closed: list[_Pending],
    rate: float,
    recognizer: KeywordRecognizer,
    detector: InaudibleVoiceDetector,
) -> list[UtteranceOutcome]:
    """Verdicts for closed utterances, in order.

    One batched recognition over all of them, then trace analyses
    batched by utterance length for the *accepted* ones: the guard
    consults the detector only when recognition accepts
    (:func:`~repro.defense.guard.guard_outcome`'s laziness), and the
    PSD of a rejected utterance could even raise. With a tracer
    active both phases are stage spans tagged ``trials`` = the
    utterances decided.
    """
    tracer = current_tracer()

    # -- recognize: all closed utterances through the DTW slab -------
    started = _tick(tracer)
    recognitions = recognizer.recognize_many(
        [Signal(p.samples, rate, p.unit) for p in closed]
    )
    _stage(tracer, "recognize", started, len(closed))

    # -- detect: batched trace analyses for accepted utterances ------
    started = _tick(tracer)
    accepted = [
        i for i, result in enumerate(recognitions) if result.accepted
    ]
    finalized = {}
    for i in accepted:
        p = closed[i]
        finalized[i] = p.welch.finalize(p.samples, p.samples.shape[0])
    groups: dict[tuple[int, str], list[int]] = {}
    for i in accepted:
        p = closed[i]
        groups.setdefault((p.samples.shape[0], p.unit), []).append(i)
    detections = {}
    for (_, unit), members in groups.items():
        stack = np.stack([closed[i].samples for i in members])
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
    _stage(tracer, "detect", started, len(closed))

    return [
        UtteranceOutcome(
            outcome=guard_outcome(
                recognitions[i],
                lambda detection=detections.get(i): detection,
            ),
            start_sample=p.start,
            end_sample=p.end,
            emitted_at_sample=p.emitted_at,
            forced=p.forced,
        )
        for i, p in enumerate(closed)
    ]


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
) -> tuple[list[RawStreamRun], float]:
    """Drive a group of streams in lockstep through one
    :class:`StreamGroup`.

    ``indices`` are the global stream indices of the group, and entry
    ``b`` of the per-stream lists is that stream's utterance
    recordings, slot attack flags and seed sequence. With a tracer
    active the group is a ``stream-group`` span whose children are
    its ``mode="stream"`` stage spans and one zero-width
    ``utterance`` marker per decision.

    Each stream's timeline is read one chunk per cycle from its
    :class:`~repro.stream.fleet.TimelineSource`, never materialised.
    Every verdict equals the offline guard on the utterance's span of
    the eager :func:`~repro.stream.fleet.assemble_timeline`, and each
    stream's run is independent of the group it shares (the module
    docstring's two oracles).

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
    check_guard_inputs(recognizer, rate)
    tracer = current_tracer()
    with maybe_span("stream-group", streams=n_group):
        assemble_started = time.perf_counter()
        sources = [
            TimelineSource(
                config, rate, recordings, np.random.default_rng(seq)
            )
            for recordings, seq in zip(recordings_by_stream, seed_seqs)
        ]
        units = [recordings[0].unit for recordings in recordings_by_stream]
        assemble_seconds = time.perf_counter() - assemble_started
        _stage(tracer, "assemble", assemble_started, n_group)
        started = _tick(tracer)
        lens = np.array(
            [source.length for source in sources], dtype=np.int64
        )
        max_len = int(lens.max())
        chunk = max(1, int(round(config.chunk_s * rate)))
        group = StreamGroup(n_group, rate, segmenter_config, units)
        _stage(tracer, "assemble", started, n_group)

        closed: list[_Pending] = []
        block = np.empty((n_group, chunk), dtype=np.float64)
        head = 0
        while head < max_len:
            nxt = min(head + chunk, max_len)

            # -- assemble: each row's next chunk from its source ----
            # Exhausted rows read as zero padding. Producing the audio
            # is workload generation, so its time joins
            # assemble_seconds.
            fill_started = time.perf_counter()
            cycle = block[:, : nxt - head]
            for source, row in zip(sources, cycle):
                source.read_into(row)
            assemble_seconds += time.perf_counter() - fill_started
            _stage(tracer, "assemble", fill_started, n_group)

            head = nxt
            closed.extend(group.push(cycle, np.minimum(lens, head)))
        closed.extend(group.flush(lens))

        # Row-major, each row's utterances in stream order (stable
        # sort).
        closed.sort(key=lambda p: p.row)
        decided = decide_utterances(closed, rate, recognizer, detector)
        outcomes: list[list[UtteranceOutcome]] = [
            [] for _ in range(n_group)
        ]
        for p, outcome in zip(closed, decided):
            outcomes[p.row].append(outcome)

        if tracer is not None:
            # Utterance spans are decision *markers*: zero wall width
            # at the decide instant, with the stream-time latency (and
            # the stream that produced them) in the attributes — that
            # is what the reporter's percentile section reads.
            decided_at = time.perf_counter()
            for p, outcome in zip(closed, decided):
                tracer.record(
                    "utterance",
                    decided_at,
                    decided_at,
                    stream=int(indices[p.row]),
                    latency_s=outcome.latency_s(rate),
                    accepted=bool(outcome.outcome.recognition.accepted),
                    forced=p.forced,
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
