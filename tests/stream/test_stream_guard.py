"""Streaming guard parity and segmenter behaviour.

The headline property: for *any* chunk-size partition of a recording,
the gateless streaming guard's verdict, score, features and
recognition result are **bitwise identical** to the offline
:class:`~repro.defense.guard.GuardedVoiceAssistant` on the same
recording — for the attack and the genuine probe alike. The gated
guard is a one-row kernel group (its oracles live in
``test_stream_kernel.py``); the segmenter state machine is pinned
here through one-row and two-row
:class:`~repro.stream.segmenter.OnlineSegmenterBatch` instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import assert_guarded_bitwise
from strategies import chunk_partitions
from repro.defense.guard import GuardedVoiceAssistant
from repro.errors import StreamError
from repro.sim.spec import scenario_names
from repro.stream.guard import StreamingGuard
from repro.stream.segmenter import (
    BatchClosed,
    BatchOpened,
    OnlineSegmenterBatch,
    SegmenterConfig,
)


class TestChunkedParity:
    @pytest.mark.parametrize("probe_index", [0, 1], ids=["attack", "genuine"])
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_any_partition_bitwise_identical(
        self, probe_index, stream_detector, stream_probes, data
    ):
        recordings, recognizer = stream_probes
        recording = recordings[probe_index]
        offline = GuardedVoiceAssistant(
            recognizer, stream_detector
        ).process(recording)
        partition = data.draw(
            chunk_partitions(recording.n_samples, max_parts=6)
        )
        guard = StreamingGuard(
            recognizer,
            stream_detector,
            recording.sample_rate,
            unit=recording.unit,
            gated=False,
        )
        cursor = 0
        samples = recording.samples
        for size in partition:
            assert guard.push(samples[cursor : cursor + size]) == []
            cursor += size
        online = guard.end_utterance()
        assert_guarded_bitwise(online, offline)

    def test_fixed_chunk_convenience_matches(
        self, stream_detector, stream_probes
    ):
        recordings, recognizer = stream_probes
        for recording in recordings:
            offline = GuardedVoiceAssistant(
                recognizer, stream_detector
            ).process(recording)
            for chunk in (1024, recording.n_samples):
                guard = StreamingGuard(
                    recognizer,
                    stream_detector,
                    recording.sample_rate,
                    unit=recording.unit,
                    gated=False,
                )
                online = guard.process_recording(recording, chunk)
                assert_guarded_bitwise(online, offline)


class TestEveryScenario:
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_parity_holds_in_every_registered_environment(
        self, scenario
    ):
        """The bitwise guarantee is environment-independent: rooms,
        interference, motion and weather all stream identically."""
        from repro.experiments.s1_streaming import train_detector
        from repro.stream.fleet import synthesize_utterances

        detector = train_detector(scenario, seed=0, n_trials=2)
        rngs = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(2).spawn(2)
        ]
        recordings, recognizer = synthesize_utterances(
            scenario,
            "ok_google",
            None,
            rngs,
            np.array([True, False]),
            voice_seed=0,
        )
        for recording in recordings:
            offline = GuardedVoiceAssistant(
                recognizer, detector
            ).process(recording)
            for chunk in (977, recording.n_samples):
                guard = StreamingGuard(
                    recognizer,
                    detector,
                    recording.sample_rate,
                    unit=recording.unit,
                    gated=False,
                )
                online = guard.process_recording(recording, chunk)
                assert_guarded_bitwise(online, offline)


class TestGuardModes:
    def test_gated_guard_rejects_gateless_calls(
        self, stream_detector, stream_probes
    ):
        _, recognizer = stream_probes
        guard = StreamingGuard(
            recognizer, stream_detector, 16000.0, gated=True
        )
        with pytest.raises(StreamError):
            guard.end_utterance()
        guard_free = StreamingGuard(
            recognizer, stream_detector, 16000.0, gated=False
        )
        with pytest.raises(StreamError):
            guard_free.flush()

    def test_gateless_without_samples_raises(
        self, stream_detector, stream_probes
    ):
        _, recognizer = stream_probes
        guard = StreamingGuard(
            recognizer, stream_detector, 16000.0, gated=False
        )
        with pytest.raises(StreamError):
            guard.end_utterance()

    def test_rate_mismatch_rejected(
        self, stream_detector, stream_probes
    ):
        recordings, recognizer = stream_probes
        guard = StreamingGuard(
            recognizer, stream_detector, 16000.0, gated=False
        )
        with pytest.raises(StreamError):
            guard.process_recording(recordings[0], 1024)
        with pytest.raises(StreamError):
            guard.process_recording(
                recordings[0].replace(sample_rate=16000.0), 0
            )

    def test_construction_validation(
        self, stream_detector, stream_probes
    ):
        _, recognizer = stream_probes
        from repro.stream.segmenter import SegmenterConfig

        with pytest.raises(StreamError):
            StreamingGuard(
                recognizer, stream_detector, 4000.0, gated=False
            )
        with pytest.raises(StreamError):
            StreamingGuard(
                recognizer,
                stream_detector,
                16000.0,
                gated=False,
                segmenter_config=SegmenterConfig(),
            )

    def test_gated_segments_and_decides_an_embedded_utterance(
        self, stream_detector, stream_probes
    ):
        """A lead-in/gap-wrapped recording yields exactly one verdict
        whose boundaries cover the embedded speech."""
        recordings, recognizer = stream_probes
        recording = recordings[1]  # genuine
        rate = recording.sample_rate
        rng = np.random.default_rng(5)
        background = 0.1 * recording.rms()
        lead = rng.normal(size=int(0.4 * rate)) * background
        gap = rng.normal(size=int(0.6 * rate)) * background
        samples = np.concatenate([lead, recording.samples, gap])
        guard = StreamingGuard(
            recognizer,
            stream_detector,
            rate,
            unit=recording.unit,
            gated=True,
        )
        outcomes = []
        chunk = int(0.05 * rate)
        for start in range(0, samples.shape[0], chunk):
            outcomes.extend(guard.push(samples[start : start + chunk]))
        outcomes.extend(guard.flush())
        assert len(outcomes) == 1
        utterance = outcomes[0]
        speech_start = len(lead)
        speech_end = len(lead) + recording.n_samples
        # Boundaries within a frame-grid tolerance of the true span.
        tolerance = int(0.1 * rate)
        assert abs(utterance.start_sample - speech_start) <= tolerance
        assert abs(utterance.end_sample - speech_end) <= tolerance
        assert not utterance.forced
        assert utterance.latency_s(rate) > 0
        assert utterance.outcome.executed_command == "ok_google"


class TestUnitBoundary:
    """``push`` takes floating samples in the stream's unit only."""

    @staticmethod
    def _guard(gated, stream_detector, stream_probes):
        recordings, recognizer = stream_probes
        return StreamingGuard(
            recognizer,
            stream_detector,
            recordings[0].sample_rate,
            unit=recordings[0].unit,
            gated=gated,
        )

    @staticmethod
    def _stream(guard, samples):
        """Push ``samples`` in 50 ms chunks; the gateless verdict or
        the gated utterances."""
        chunk = int(0.05 * guard.sample_rate)
        outcomes = []
        for start in range(0, samples.shape[0], chunk):
            outcomes.extend(guard.push(samples[start : start + chunk]))
        if guard.gated:
            return outcomes + guard.flush()
        return [guard.end_utterance()]

    @pytest.mark.parametrize("gated", [True, False], ids=["gated", "gateless"])
    def test_integer_pcm_chunk_rejected(
        self, gated, stream_detector, stream_probes
    ):
        guard = self._guard(gated, stream_detector, stream_probes)
        pcm = np.array([0, 1200, -3400, 32767], dtype=np.int16)
        with pytest.raises(StreamError, match="floating-point.*unit"):
            guard.push(pcm)

    @pytest.mark.parametrize("gated", [True, False], ids=["gated", "gateless"])
    def test_float32_chunks_promoted_exactly(
        self, gated, stream_detector, stream_probes
    ):
        recording = stream_probes[0][0]  # attack
        rate = recording.sample_rate
        background = np.random.default_rng(5).normal(
            size=int(0.5 * rate)
        ) * (0.1 * recording.rms())
        narrow = np.concatenate(
            [background, recording.samples, background]
        ).astype(np.float32)
        results = [
            self._stream(
                self._guard(gated, stream_detector, stream_probes),
                samples,
            )
            for samples in (narrow, narrow.astype(np.float64))
        ]
        assert len(results[0]) == len(results[1]) >= 1
        for narrow_out, wide_out in zip(*results):
            if gated:
                assert narrow_out.start_sample == wide_out.start_sample
                assert narrow_out.end_sample == wide_out.end_sample
                narrow_out, wide_out = narrow_out.outcome, wide_out.outcome
            assert_guarded_bitwise(narrow_out, wide_out)


def _trace(events, row: int = 0) -> list[tuple]:
    """Row ``row``'s share of segmenter events as comparable tuples."""
    out = []
    for event in events:
        if isinstance(event, BatchOpened):
            entries = [
                (int(r), ("open", event.frame, event.start_sample))
                for r in event.rows
            ]
        else:
            entries = [
                (int(r), ("close", event.frame, int(s), int(e), bool(f)))
                for r, s, e, f in zip(
                    event.rows,
                    event.start_samples,
                    event.end_samples,
                    event.forced,
                )
            ]
        out.extend(entry for r, entry in entries if r == row)
    return out


def _process(seg, first, energies):
    """Feed one row's energies, every frame real."""
    energies = np.asarray(energies, dtype=np.float64)[np.newaxis, :]
    return seg.process_block(
        first, energies, np.ones(energies.shape, dtype=bool)
    )


def _closed(events):
    return [e for e in events if isinstance(e, BatchClosed)]


class TestSegmenterStateMachine:
    CFG = SegmenterConfig(
        open_factor=4.0,
        close_factor=2.0,
        open_frames=2,
        hangover_frames=3,
        close_frames=4,
    )

    def _run(self, energies, config=None):
        seg = OnlineSegmenterBatch(1, 16000.0, config or self.CFG)
        return seg, _process(seg, 0, energies)

    def test_opens_after_consecutive_active_frames(self):
        quiet, loud = 1.0, 10.0
        seg, events = self._run([quiet] * 10 + [loud] * 3)
        opened = [e for e in events if isinstance(e, BatchOpened)]
        assert len(opened) == 1
        # Second consecutive loud frame (index 11) opens; the run
        # began at frame 10.
        assert opened[0].frame == 11
        assert list(opened[0].rows) == [0]
        assert opened[0].start_sample == 10 * seg.hop

    def test_single_spike_does_not_open(self):
        quiet, loud = 1.0, 10.0
        _, events = self._run([quiet] * 10 + [loud] + [quiet] * 10)
        assert events == []

    def test_closes_after_hangover_plus_close_frames(self):
        quiet, loud = 1.0, 10.0
        seg, events = self._run(
            [quiet] * 10 + [loud] * 5 + [quiet] * 12
        )
        closed = _closed(events)
        assert len(closed) == 1
        last_voiced = 14  # frames 10..14 are loud
        assert closed[0].frame == last_voiced + 3 + 4
        assert (
            closed[0].end_samples[0]
            == last_voiced * seg.hop + seg.frame_len + seg.pad
        )
        assert not closed[0].forced[0]

    def test_hysteresis_keeps_soft_tail_voiced(self):
        quiet, loud, soft = 1.0, 10.0, 3.0  # soft > close_factor*floor
        seg, events = self._run(
            [quiet] * 10 + [loud] * 3 + [soft] * 5 + [quiet] * 12
        )
        closed = _closed(events)
        assert len(closed) == 1
        assert (
            closed[0].end_samples[0]
            == 17 * seg.hop + seg.frame_len + seg.pad
        )

    def test_forced_close_at_max_utterance(self):
        config = SegmenterConfig(
            open_frames=2,
            hangover_frames=3,
            close_frames=4,
            max_utterance_s=0.5,
        )
        seg, events = self._run([1.0] * 10 + [10.0] * 100, config)
        closed = _closed(events)
        assert closed and closed[0].forced[0]
        assert (
            closed[0].end_samples[0] - closed[0].start_samples[0]
            == seg.max_samples
        )

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_forced_close_on_a_chunk_boundary_matches_offline(
        self, data
    ):
        """An utterance that hits ``max_utterance_s`` exactly at a
        chunk boundary yields the same event trace as the offline
        (single-call) path.

        The forcing frame is the nastiest place to cut the energy
        stream: the close fires on the last frame of one chunk or the
        first frame of the next, and either way the trace — open and
        close frames, sample boundaries, the ``forced`` flag — must be
        identical to processing every frame in one call.
        """
        config = SegmenterConfig(
            open_frames=2,
            hangover_frames=3,
            close_frames=4,
            max_utterance_s=0.5,
        )
        n_quiet = data.draw(st.integers(min_value=3, max_value=12))
        energies = np.asarray([1.0] * n_quiet + [10.0] * 80)
        offline_seg, offline_events = self._run(energies, config)
        closed = _closed(offline_events)
        assert closed and closed[0].forced[0]
        # The span is capped at exactly max_samples (0.5 s lands on
        # the frame grid: 8000 samples = 48 hops past the opening
        # frame), so the boundary below cuts at the precise frame
        # where the cap trips.
        assert (
            closed[0].end_samples[0] - closed[0].start_samples[0]
            == offline_seg.max_samples
        )
        force_frame = closed[0].frame
        assert force_frame < len(energies) - 1
        cuts = data.draw(
            st.sets(
                st.integers(min_value=1, max_value=len(energies) - 1),
                max_size=5,
            )
        )
        # Pin one cut to the forcing frame itself (close fires as the
        # first frame of a chunk) or one past it (as the last frame).
        cuts.add(
            data.draw(st.sampled_from([force_frame, force_frame + 1]))
        )
        edges = [0] + sorted(cuts) + [len(energies)]
        streamed_seg = OnlineSegmenterBatch(1, 16000.0, config)
        streamed_events = []
        for start, end in zip(edges, edges[1:]):
            streamed_events.extend(
                _process(streamed_seg, start, energies[start:end])
            )
        assert _trace(streamed_events) == _trace(offline_events)

    def test_out_of_order_frames_rejected(self):
        seg, _ = self._run(np.ones(5))
        with pytest.raises(StreamError):
            _process(seg, 3, np.ones(5))

    def test_commit_bound_monotone_and_capped(self):
        quiet, loud = 1.0, 10.0
        seg, _ = self._run([quiet] * 10 + [loud] * 3)
        assert seg.in_utterance[0]
        head = 13 * seg.hop + seg.frame_len
        bound = seg.commit_bounds(np.array([head]))[0]
        assert seg.utterance_starts[0] <= bound <= head
        assert seg.commit_bounds(np.array([head + 100]))[0] >= bound

    def test_flush_closes_open_utterance(self):
        quiet, loud = 1.0, 10.0
        seg, _ = self._run([quiet] * 10 + [loud] * 5)
        head = 15 * seg.hop + seg.frame_len
        event = seg.flush_open_rows(np.array([head]))
        assert isinstance(event, BatchClosed)
        assert list(event.rows) == [0]
        assert event.end_samples[0] <= head
        assert not event.forced[0]
        assert seg.flush_open_rows(np.array([0])) is None

    def test_rows_with_different_energies_evolve_independently(self):
        """Two rows, different speech and different lengths: each
        row's events are a one-row segmenter's on that row's energies
        alone, and the shorter row freezes where its ``valid`` mask
        ends."""
        quiet, loud = 1.0, 10.0
        rows = np.array(
            [
                [quiet] * 10 + [loud] * 5 + [quiet] * 25,
                [quiet] * 20 + [loud] * 8 + [quiet] * 12,
            ]
        )
        real = [40, 34]  # row 1's last 6 frames are padding
        valid = np.arange(rows.shape[1])[np.newaxis, :] < np.array(
            real
        )[:, np.newaxis]
        seg = OnlineSegmenterBatch(2, 16000.0, self.CFG)
        events = seg.process_block(0, rows, valid)
        for row in range(2):
            _, alone = self._run(rows[row, : real[row]])
            assert _trace(events, row) == _trace(alone)
            assert _trace(alone), "each row must open and close"
