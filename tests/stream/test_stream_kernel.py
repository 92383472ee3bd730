"""Structure-of-arrays guard kernel: its oracles and ring units.

The kernel (:mod:`repro.stream.kernel`) is the one streaming engine,
so its parity rests on oracles outside it:

* **offline** — every verdict equals the offline
  :class:`~repro.defense.guard.GuardedVoiceAssistant` on the
  utterance's span of the stream's eager timeline, bitwise
  (recognition distances, detector score and features), with one and
  with two utterances per stream;
* **chunk size** — boundaries and verdicts do not depend on
  ``chunk_s``; only ``emitted_at_sample`` does;
* **grouping** — any assignment of streams to lockstep groups
  (non-contiguous, unordered — strictly wider than the contiguous
  ``batch_streams`` splits production uses) and every
  ``batch_streams`` value reproduce the one-stream-per-group runs'
  digest;
* **one-row view** — a gated :class:`~repro.stream.guard.
  StreamingGuard` fed one stream's timeline in any chunk partition
  gives that stream's kernel outcomes.

Unit tests nail the shared ring
(:class:`~repro.stream.chunker.ChunkedStreamBatch`): exact
reconstruction, doubling growth, wraparound reuse, frame energies
bitwise equal to the offline VAD's and its read/release errors.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from differential import assert_guarded_bitwise
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from strategies import chunk_partitions, index_partitions

from repro.defense.guard import GuardedVoiceAssistant
from repro.dsp.signals import Signal
from repro.errors import StreamError
from repro.speech.vad import frame_energies
from repro.stream import kernel
from repro.stream.chunker import ChunkedStreamBatch
from repro.stream.fleet import (
    FleetConfig,
    FleetSimulator,
    assemble_timeline,
    check_fleet_rate,
    fleet_seed_plan,
    synthesize_utterances,
)
from repro.stream.guard import StreamingGuard

#: One small fleet, shared by most kernel comparisons in this file.
CONFIG = FleetConfig(
    n_streams=5,
    utterances_per_stream=1,
    attack_fraction=0.5,
    seed=9,
    workers=1,
)

#: Two utterances per stream: open/close/reopen inside one group.
MULTI = FleetConfig(
    n_streams=6,
    utterances_per_stream=2,
    attack_fraction=0.5,
    seed=11,
    workers=1,
)


def _synthesize(config: FleetConfig):
    """(recordings, recognizer, attack_mask, stream_seqs, rate) — the
    inputs ``FleetSimulator.run`` derives for ``config``."""
    attack_mask, trial_seqs, stream_seqs = fleet_seed_plan(config)
    recordings, recognizer = synthesize_utterances(
        config.scenario,
        config.command,
        config.distance_m,
        [np.random.default_rng(child) for child in trial_seqs],
        attack_mask,
        voice_seed=config.seed,
    )
    rate = check_fleet_rate(recordings)
    return recordings, recognizer, attack_mask, stream_seqs, rate


def _drive(config, detector, inputs, groups):
    """Each group through :func:`kernel.drive_stream_group`; the runs
    in stream-index order."""
    recordings, recognizer, attack_mask, stream_seqs, rate = inputs
    per = config.utterances_per_stream
    runs = []
    for group in groups:
        group_runs, _ = kernel.drive_stream_group(
            config,
            detector,
            None,
            [int(pos) for pos in group],
            rate,
            recognizer,
            [recordings[pos * per : (pos + 1) * per] for pos in group],
            [attack_mask[pos * per : (pos + 1) * per] for pos in group],
            [stream_seqs[pos] for pos in group],
        )
        runs.extend(group_runs)
    return sorted(runs, key=lambda run: run.index)


def _solo(config, detector, inputs):
    """The grouping reference: every stream in a group of its own."""
    return _drive(
        config, detector, inputs, [[pos] for pos in range(config.n_streams)]
    )


def _digest(runs) -> tuple:
    """:meth:`FleetReport.digest` of a list of raw runs."""
    return tuple(
        (s.index, s.is_attack, s.duration_s, s.utterances)
        for s in (run.commit() for run in runs)
    )


def _timeline(config, inputs, pos: int) -> np.ndarray:
    recordings, _, _, stream_seqs, rate = inputs
    per = config.utterances_per_stream
    return assemble_timeline(
        config,
        rate,
        recordings[pos * per : (pos + 1) * per],
        np.random.default_rng(stream_seqs[pos]),
    )


def _assert_same_utterance(a, b) -> None:
    """Two stream outcomes agree on everything but the emit instant."""
    assert (a.start_sample, a.end_sample, a.forced) == (
        b.start_sample,
        b.end_sample,
        b.forced,
    )
    assert_guarded_bitwise(a.outcome, b.outcome)


@pytest.fixture(scope="module")
def fleet_inputs():
    """CONFIG's inputs, synthesised once, streamed many times."""
    return _synthesize(CONFIG)


@pytest.fixture(scope="module")
def multi_inputs():
    return _synthesize(MULTI)


@pytest.fixture(scope="module")
def solo_runs(stream_detector, fleet_inputs):
    return _solo(CONFIG, stream_detector, fleet_inputs)


@pytest.fixture(scope="module")
def multi_solo_runs(stream_detector, multi_inputs):
    return _solo(MULTI, stream_detector, multi_inputs)


class TestOfflineOracle:
    @pytest.mark.parametrize(
        "which", ["one_utterance", "two_utterances"]
    )
    def test_every_verdict_is_the_offline_guard_on_its_span(
        self, stream_detector, fleet_inputs, multi_inputs, which
    ):
        """Each kernel verdict equals ``GuardedVoiceAssistant.process``
        on ``assemble_timeline(...)[start:end]`` bitwise, and every
        utterance on every timeline is segmented."""
        config, inputs, groups = {
            "one_utterance": (CONFIG, fleet_inputs, [[3, 0, 4], [1, 2]]),
            "two_utterances": (
                MULTI,
                multi_inputs,
                [[0, 1, 2, 3], [4, 5]],
            ),
        }[which]
        recordings, recognizer, _, _, rate = inputs
        offline = GuardedVoiceAssistant(recognizer, stream_detector)
        checked = 0
        for run in _drive(config, stream_detector, inputs, groups):
            timeline = _timeline(config, inputs, run.index)
            for utterance in run.outcomes:
                span = Signal(
                    timeline[utterance.start_sample : utterance.end_sample],
                    rate,
                    recordings[0].unit,
                )
                assert_guarded_bitwise(
                    utterance.outcome, offline.process(span)
                )
                checked += 1
        assert checked == config.n_streams * config.utterances_per_stream


class TestChunkSizeInvariance:
    @pytest.mark.parametrize("chunk_s", [0.01, 0.03, 0.1, 0.25])
    def test_only_the_emit_instant_depends_on_chunk_s(
        self, stream_detector, multi_inputs, multi_solo_runs, chunk_s
    ):
        config = replace(MULTI, chunk_s=chunk_s)
        runs = _drive(
            config,
            stream_detector,
            multi_inputs,
            [list(range(MULTI.n_streams))],
        )
        assert [run.index for run in runs] == [
            run.index for run in multi_solo_runs
        ]
        for run, reference in zip(runs, multi_solo_runs):
            assert run.duration_s == reference.duration_s
            assert len(run.outcomes) == len(reference.outcomes)
            for utterance, expected in zip(
                run.outcomes, reference.outcomes
            ):
                _assert_same_utterance(utterance, expected)
                assert utterance.emitted_at_sample >= utterance.end_sample


class TestGroupingInvariance:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(partition=index_partitions(CONFIG.n_streams))
    def test_any_grouping_matches_one_stream_per_group(
        self, stream_detector, fleet_inputs, solo_runs, partition
    ):
        """Arbitrary stream-to-group assignment — non-contiguous,
        unordered, any group sizes — merges to the one-stream-per-group
        digest bitwise."""
        runs = _drive(CONFIG, stream_detector, fleet_inputs, partition)
        assert _digest(runs) == _digest(solo_runs)

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        batch_streams=st.integers(
            min_value=1, max_value=CONFIG.n_streams + 1
        )
    )
    def test_any_batch_streams_matches_one_stream_per_group(
        self, stream_detector, solo_runs, batch_streams
    ):
        """The public knob: every lockstep group width produces the
        identical fleet digest through the full simulator."""
        config = replace(CONFIG, batch_streams=batch_streams)
        report = FleetSimulator(stream_detector, config).run()
        assert report.digest() == _digest(solo_runs)

    def test_multi_utterance_streams_match(
        self, stream_detector, multi_solo_runs
    ):
        """Two utterances per stream: open/close/reopen boundary
        events inside one lockstep group still match the
        one-stream-per-group runs."""
        config = replace(MULTI, batch_streams=4)
        report = FleetSimulator(stream_detector, config).run()
        assert report.digest() == _digest(multi_solo_runs)

    def test_rows_of_different_lengths_match_their_solo_runs(
        self, stream_detector, multi_inputs
    ):
        """Streams carrying one or two utterances share a group: the
        shorter rows run on lockstep zero padding after their end,
        which must not change what each row decides alone."""
        recordings, recognizer, attack_mask, stream_seqs, rate = (
            multi_inputs
        )
        per = MULTI.utterances_per_stream
        streams = range(MULTI.n_streams)
        counts = [1 + pos % 2 for pos in streams]

        def run(group):
            slots = [slice(pos * per, pos * per + counts[pos]) for pos in group]
            runs, _ = kernel.drive_stream_group(
                MULTI,
                stream_detector,
                None,
                list(group),
                rate,
                recognizer,
                [recordings[slot] for slot in slots],
                [attack_mask[slot] for slot in slots],
                [stream_seqs[pos] for pos in group],
            )
            return runs

        grouped = run(streams)
        assert len({run.duration_s for run in grouped}) == 2
        for pos, together in zip(streams, grouped):
            (alone,) = run([pos])
            assert together.commit() == alone.commit()


class TestGatedGuardIsAOneRowGroup:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_any_chunk_partition_gives_the_kernel_outcomes(
        self, stream_detector, multi_inputs, multi_solo_runs, data
    ):
        """A gated guard fed one stream's timeline in arbitrary pushes
        decides exactly that stream's kernel utterances (the emit
        instant aside)."""
        recordings, recognizer, _, _, rate = multi_inputs
        pos = data.draw(
            st.integers(min_value=0, max_value=MULTI.n_streams - 1)
        )
        timeline = _timeline(MULTI, multi_inputs, pos)
        partition = data.draw(
            chunk_partitions(timeline.shape[0], max_parts=40)
        )
        guard = StreamingGuard(
            recognizer,
            stream_detector,
            rate,
            unit=recordings[0].unit,
            gated=True,
        )
        outcomes = []
        cursor = 0
        for size in partition:
            outcomes.extend(guard.push(timeline[cursor : cursor + size]))
            cursor += size
        outcomes.extend(guard.flush())
        expected = multi_solo_runs[pos].outcomes
        assert len(outcomes) == len(expected)
        for utterance, reference in zip(outcomes, expected):
            _assert_same_utterance(utterance, reference)
            assert utterance.emitted_at_sample >= utterance.end_sample

    def test_push_rejects_non_1d_chunks(
        self, stream_detector, stream_probes
    ):
        _, recognizer = stream_probes
        guard = StreamingGuard(recognizer, stream_detector, 16000.0)
        with pytest.raises(StreamError):
            guard.push(np.zeros((2, 4)))
        with pytest.raises(StreamError):
            guard.push(np.array([1.0, np.nan]))


class TestRecognizeMany:
    def test_matches_scalar_recognize_bitwise(self, stream_probes):
        recordings, recognizer = stream_probes
        batched = recognizer.recognize_many(recordings)
        for recording, result in zip(recordings, batched):
            single = recognizer.recognize(recording)
            assert result.accepted == single.accepted
            assert result.command == single.command
            assert result.distance == single.distance

    def test_slab_composition_is_invisible(self, stream_probes):
        """Tiny max_pairs forces multiple DTW slabs; results are the
        single-slab ones exactly."""
        recordings, recognizer = stream_probes
        whole = recognizer.recognize_many(recordings)
        sliced = recognizer.recognize_many(recordings, max_pairs=1)
        for a, b in zip(whole, sliced):
            assert (a.accepted, a.command, a.distance) == (
                b.accepted,
                b.command,
                b.distance,
            )


def _random_rows(rows: int, n: int, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(rows, n))


class TestBatchRing:
    def test_roundtrip_exact(self):
        ring = ChunkedStreamBatch(3, 16000.0)
        waves = _random_rows(3, 5000)
        ring.push_block(waves[:, :1234])
        ring.push_block(waves[:, 1234:])
        assert ring.head == 5000
        for row in range(3):
            assert np.array_equal(
                ring.read_row(row, 0, 5000), waves[row]
            )

    @given(partition=chunk_partitions(4096, max_parts=7))
    @settings(max_examples=25, deadline=None)
    def test_any_partition_reconstructs(self, partition):
        ring = ChunkedStreamBatch(2, 16000.0)
        waves = _random_rows(2, 4096)
        cursor = 0
        for size in partition:
            ring.push_block(waves[:, cursor : cursor + size])
            cursor += size
        for row in range(2):
            assert np.array_equal(
                ring.read_row(row, 0, 4096), waves[row]
            )

    def test_growth_preserves_retained_rows(self):
        ring = ChunkedStreamBatch(3, 16000.0)
        small = ring.capacity
        waves = _random_rows(3, 4 * small)
        ring.push_block(waves)  # forces at least two doublings
        assert ring.capacity >= 4 * small
        for row in range(3):
            assert np.array_equal(
                ring.read_row(row, 0, waves.shape[1]), waves[row]
            )

    def test_wraparound_after_release(self):
        ring = ChunkedStreamBatch(2, 16000.0)
        capacity = ring.capacity
        first = _random_rows(2, capacity - 10, seed=1)
        ring.push_block(first)
        ring.release(capacity - 10)
        second = _random_rows(2, capacity - 10, seed=2)
        ring.push_block(second)  # wraps inside the same allocation
        assert ring.capacity == capacity
        for row in range(2):
            got = ring.read_row(
                row, capacity - 10, 2 * (capacity - 10)
            )
            assert np.array_equal(got, second[row])

    def test_energies_match_offline_frame_energies_bitwise(self):
        """Row i of the ring's frame energies equals the offline VAD's
        :func:`frame_energies` of row i's samples — through both the
        unwrapped-span fast path and the wrapped (linearized) path."""
        rate = 16000.0
        rows = 3
        waves = _random_rows(rows, int(1.0 * rate))
        ring = ChunkedStreamBatch(rows, rate)
        online = []
        for start in range(0, waves.shape[1], 333):
            ring.push_block(waves[:, start : start + 333])
            first, energies = ring.pending_frame_energies()
            assert first == len(online)
            online.extend(energies.T)
            # Aggressive release forces the ring to wrap well before
            # the stream ends, covering the wrapped span path too.
            keep = ring.frames_emitted * ring.hop
            ring.release(min(keep, ring.head))
        stacked = np.asarray(online).T
        for row in range(rows):
            assert np.array_equal(
                stacked[row], frame_energies(Signal(waves[row], rate))
            )

    def test_frames_never_reemitted(self):
        ring = ChunkedStreamBatch(2, 16000.0)
        ring.push_block(_random_rows(2, 1000))
        first, energies = ring.pending_frame_energies()
        assert first == 0 and energies.shape[1] > 0
        again, more = ring.pending_frame_energies()
        assert again == ring.frames_emitted
        assert more.shape == (2, 0)

    def test_release_past_frame_grid_raises(self):
        ring = ChunkedStreamBatch(2, 16000.0)
        ring.push_block(_random_rows(2, 2000))
        ring.pending_frame_energies()
        ring.release(2000)
        ring.push_block(_random_rows(2, 2000, seed=3))
        with pytest.raises(StreamError):
            ring.pending_frame_energies()

    def test_gather_rows_stacks_read_row(self):
        ring = ChunkedStreamBatch(3, 16000.0)
        waves = _random_rows(3, 2000)
        ring.push_block(waves)
        rows = np.array([2, 0, 2])
        starts = np.array([100, 700, 1500])
        slab = ring.gather_rows(rows, starts, 256)
        for j, (row, start) in enumerate(zip(rows, starts)):
            assert np.array_equal(
                slab[j],
                ring.read_row(int(row), int(start), int(start) + 256),
            )

    def test_validation(self):
        ring = ChunkedStreamBatch(2, 16000.0)
        with pytest.raises(StreamError):
            ChunkedStreamBatch(0, 16000.0)
        with pytest.raises(StreamError):
            ChunkedStreamBatch(1, 0.0)
        with pytest.raises(StreamError):
            ring.push_block(np.zeros(5))  # 1-D
        with pytest.raises(StreamError):
            ring.push_block(np.zeros((3, 5)))  # wrong row count
        with pytest.raises(StreamError):
            ring.push_block(np.array([[1.0, np.nan], [0.0, 0.0]]))
        ring.push_block(_random_rows(2, 100))
        ring.release(50)
        with pytest.raises(StreamError):
            ring.read_row(0, 0, 60)  # released
        with pytest.raises(StreamError):
            ring.read_row(0, 50, 101)  # beyond head
        with pytest.raises(StreamError):
            ring.read_row(0, 80, 70)  # inverted
        with pytest.raises(StreamError):
            ring.read_row(2, 50, 60)  # no such row
        with pytest.raises(StreamError):
            ring.release(101)
