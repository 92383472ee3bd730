"""Ring-buffer unit coverage for the one-row group: the gated guard's ring.

:class:`~repro.stream.guard.StreamingGuard` is a one-row kernel group,
so its ring is a ``ChunkedStreamBatch`` with ``n_streams=1`` fed by
``(1, k)`` blocks. These tests pin that configuration's push / read /
release contract and frame grid; the multi-row ring is covered in
``test_stream_kernel.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from strategies import chunk_partitions
from repro.dsp.signals import Signal
from repro.errors import StreamError
from repro.speech.vad import frame_energies
from repro.stream.chunker import ChunkedStreamBatch


def _random_wave(n: int, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=n)


def _one_row_ring(sample_rate: float = 16000.0) -> ChunkedStreamBatch:
    return ChunkedStreamBatch(1, sample_rate)


def _push(ring: ChunkedStreamBatch, samples: np.ndarray) -> int:
    return ring.push_block(samples[np.newaxis, :])


class TestPushRead:
    def test_roundtrip_exact(self):
        ring = _one_row_ring()
        wave = _random_wave(5000)
        _push(ring, wave[:1234])
        _push(ring, wave[1234:])
        assert ring.head == 5000
        assert np.array_equal(ring.read_row(0, 0, 5000), wave)

    @given(partition=chunk_partitions(4096, max_parts=7))
    @settings(max_examples=25, deadline=None)
    def test_any_partition_reconstructs(self, partition):
        ring = _one_row_ring()
        wave = _random_wave(4096)
        cursor = 0
        for size in partition:
            _push(ring, wave[cursor : cursor + size])
            cursor += size
        assert np.array_equal(ring.read_row(0, 0, 4096), wave)

    def test_growth_preserves_retained_samples(self):
        ring = _one_row_ring()
        small = ring.capacity
        wave = _random_wave(4 * small)
        _push(ring, wave)  # forces at least two doublings
        assert ring.capacity >= 4 * small
        assert np.array_equal(ring.read_row(0, 0, len(wave)), wave)

    def test_wraparound_after_release(self):
        ring = _one_row_ring()
        capacity = ring.capacity
        first = _random_wave(capacity - 10, seed=1)
        _push(ring, first)
        ring.release(capacity - 10)
        second = _random_wave(capacity - 10, seed=2)
        _push(ring, second)  # wraps inside the same allocation
        assert ring.capacity == capacity
        got = ring.read_row(0, capacity - 10, 2 * (capacity - 10))
        assert np.array_equal(got, second)

    def test_read_outside_window_raises(self):
        ring = _one_row_ring()
        _push(ring, _random_wave(100))
        ring.release(50)
        with pytest.raises(StreamError):
            ring.read_row(0, 0, 60)
        with pytest.raises(StreamError):
            ring.read_row(0, 50, 101)
        with pytest.raises(StreamError):
            ring.read_row(0, 80, 70)
        with pytest.raises(StreamError):
            ring.read_row(1, 50, 60)

    def test_release_beyond_head_raises(self):
        ring = _one_row_ring()
        _push(ring, _random_wave(10))
        with pytest.raises(StreamError):
            ring.release(11)

    def test_non_finite_and_shape_rejected(self):
        ring = _one_row_ring()
        with pytest.raises(StreamError):
            _push(ring, np.array([1.0, np.nan]))
        with pytest.raises(StreamError):
            ring.push_block(np.zeros(4))
        with pytest.raises(StreamError):
            ring.push_block(np.zeros((2, 2)))


class TestFrameGrid:
    def test_energies_match_offline_vad_bitwise(self):
        rate = 16000.0
        wave = _random_wave(int(0.5 * rate))
        offline = frame_energies(Signal(wave, rate))
        ring = _one_row_ring(rate)
        online = []
        for start in range(0, len(wave), 333):
            _push(ring, wave[start : start + 333])
            first, energies = ring.pending_frame_energies()
            assert first == len(online)
            assert energies.shape[0] == 1
            online.extend(energies[0])
        assert np.array_equal(np.asarray(online), offline)

    def test_frames_never_reemitted(self):
        ring = _one_row_ring()
        _push(ring, _random_wave(1000))
        first, energies = ring.pending_frame_energies()
        assert first == 0 and energies.size > 0
        again, more = ring.pending_frame_energies()
        assert again == ring.frames_emitted and more.size == 0

    def test_release_past_frame_grid_raises(self):
        ring = _one_row_ring()
        _push(ring, _random_wave(2000))
        ring.pending_frame_energies()
        ring.release(2000)
        _push(ring, _random_wave(2000, seed=3))
        with pytest.raises(StreamError):
            ring.pending_frame_energies()
