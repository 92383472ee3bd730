"""Lazy timelines: chunked reads, the numpy property they rest on, and
the fleet kernel's memory bound.

The kernel never materialises a stream's timeline; it reads each
cycle's chunk from a :class:`~repro.stream.fleet.TimelineSource`,
drawing ambient spans piece by piece from the stream's generator.
Three contracts follow:

* **numpy's chunked-draw equivalence** — consecutive
  ``Generator.normal`` calls continue one stream of draws, so a draw
  split into chunks equals one large draw bitwise. Every fleet
  digest, S1 golden and benchmark reference digest rests on it; the
  test below names it, so a numpy upgrade that breaks it fails here
  rather than as digest drift.
* **partition invariance** — reading the source in any chunk
  partition (1-sample reads, splits on piece boundaries, no lead-in,
  no gap, several utterances) equals :func:`~repro.stream.fleet.
  assemble_timeline` and the eager concatenation it replaced.
* **a memory bound independent of audio duration** — a fleet
  kernel's traced peak is the same at ``gap_s=1`` and ``gap_s=20``
  to within a few chunk-rows.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.signals import Signal
from repro.stream import kernel
from repro.stream.fleet import (
    FleetConfig,
    TimelineSource,
    assemble_timeline,
)

#: A low toy rate keeps timelines a few hundred samples long.
RATE = 1000.0


def eager_timeline(config, rate, recordings, rng):
    """The timeline as one concatenation of whole pieces — the
    definition the lazy source must reproduce bitwise."""
    mean_rms = float(np.mean([r.rms() for r in recordings]))
    background_rms = config.background_ratio * max(mean_rms, 1e-12)

    def ambient(duration_s):
        n = int(round(duration_s * rate))
        return rng.normal(0.0, 1.0, n) * background_rms

    pieces = [ambient(config.lead_in_s)]
    for recording in recordings:
        pieces.append(recording.samples)
        pieces.append(ambient(config.gap_s))
    return np.concatenate(pieces)


def read_in_parts(source, sizes):
    """Concatenate ``source`` reads of the given chunk sizes."""
    parts = []
    for size in sizes:
        out = np.full(size, np.nan)
        source.read_into(out)
        parts.append(out)
    return np.concatenate(parts) if parts else np.empty(0)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def timelines(draw):
    """``(config, recordings, seed)`` for a small stream, with
    lead-in and gap allowed to vanish."""
    config = FleetConfig(
        lead_in_s=draw(st.sampled_from([0.0, 0.001, 0.05])),
        gap_s=draw(st.sampled_from([0.0, 0.002, 0.03])),
        background_ratio=draw(st.sampled_from([0.05, 0.1, 0.5])),
    )
    n_utterances = draw(st.integers(min_value=1, max_value=3))
    lengths = draw(
        st.lists(
            st.integers(min_value=1, max_value=60),
            min_size=n_utterances,
            max_size=n_utterances,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    data_rng = np.random.default_rng(seed ^ 0x5EED)
    recordings = [
        Signal(data_rng.normal(0.0, 0.3, n), RATE) for n in lengths
    ]
    return config, recordings, seed


def piece_boundaries(config, recordings) -> list[int]:
    """Sample offsets where one timeline piece ends and the next
    begins."""
    edges = [int(round(config.lead_in_s * RATE))]
    gap = int(round(config.gap_s * RATE))
    for recording in recordings:
        edges.append(edges[-1] + recording.samples.shape[0])
        edges.append(edges[-1] + gap)
    return edges


class TestChunkedNormalDraws:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("chunk", [1, 7, 2400, 48000])
    def test_numpy_normal_draws_are_chunk_invariant(self, seed, chunk):
        total = 50_000
        whole = np.random.default_rng(seed).normal(0.0, 1.0, total)
        rng = np.random.default_rng(seed)
        sizes = [chunk] * (total // chunk) + [total % chunk]
        pieces = np.concatenate([rng.normal(0.0, 1.0, n) for n in sizes])
        assert same_bits(pieces, whole), (
            f"numpy {np.__version__}: Generator.normal drawn in chunks "
            f"of {chunk} no longer equals one draw of {total} (seed "
            f"{seed}). TimelineSource draws ambient audio chunk by "
            "chunk where assemble_timeline draws it whole, so kernel "
            "and scalar fleet digests, the S1 goldens and the "
            "benchmark reference digests all rest on this property."
        )


class TestTimelineSource:
    @settings(max_examples=60, deadline=None)
    @given(case=timelines(), data=st.data())
    def test_any_partition_reads_the_eager_timeline(self, case, data):
        config, recordings, seed = case
        eager = eager_timeline(
            config, RATE, recordings, np.random.default_rng(seed)
        )
        drained = assemble_timeline(
            config, RATE, recordings, np.random.default_rng(seed)
        )
        assert same_bits(drained, eager)

        n = eager.shape[0]
        boundaries = [e for e in piece_boundaries(config, recordings)
                      if 0 < e < n]
        cut_points = data.draw(
            st.sets(
                st.one_of(
                    st.sampled_from(boundaries or [n]),
                    st.integers(min_value=1, max_value=n),
                )
            ),
            label="cuts",
        )
        cuts = sorted({c for c in cut_points if 0 < c < n})
        edges = [0, *cuts, n]
        sizes = [hi - lo for lo, hi in zip(edges, edges[1:])]
        source = TimelineSource(
            config, RATE, recordings, np.random.default_rng(seed)
        )
        assert source.length == n
        assert same_bits(read_in_parts(source, sizes), eager)
        # Past the end the source reads zero padding.
        tail = data.draw(st.integers(min_value=0, max_value=5))
        assert not read_in_parts(source, [tail]).any()

    def test_one_sample_reads_and_piece_splits(self):
        config = FleetConfig(lead_in_s=0.0, gap_s=0.0)
        recordings = [
            Signal(np.linspace(-1.0, 1.0, n), RATE) for n in (3, 1, 5)
        ]
        eager = eager_timeline(
            config, RATE, recordings, np.random.default_rng(0)
        )
        source = TimelineSource(
            config, RATE, recordings, np.random.default_rng(0)
        )
        assert same_bits(read_in_parts(source, [1] * 9), eager)

        config = FleetConfig(lead_in_s=0.02, gap_s=0.01)
        eager = eager_timeline(
            config, RATE, recordings, np.random.default_rng(1)
        )
        edges = [0, *piece_boundaries(config, recordings)]
        source = TimelineSource(
            config, RATE, recordings, np.random.default_rng(1)
        )
        sizes = [hi - lo for lo, hi in zip(edges, edges[1:])]
        assert sum(sizes) == eager.shape[0]
        assert same_bits(read_in_parts(source, sizes), eager)


def kernel_peak_bytes(config, detector, recordings, recognizer):
    """Traced allocation peak of one kernel group over ``recordings``
    (one utterance per stream), above what was live before it."""
    rate = recordings[0].sample_rate
    n = len(recordings)
    seqs = np.random.SeedSequence(config.seed).spawn(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runs, _ = kernel.drive_stream_group(
            config,
            detector,
            None,
            list(range(n)),
            rate,
            recognizer,
            [[recording] for recording in recordings],
            [np.array([k % 2 == 0]) for k in range(n)],
            seqs,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(len(run.outcomes) == 1 for run in runs)
    return peak - before


class TestKernelMemoryBound:
    def test_peak_does_not_grow_with_gap(
        self, stream_detector, stream_probes
    ):
        """A 19 s longer gap adds ~30 MB of timeline to four eager
        streams; read lazily it adds nothing beyond a few chunk
        rows."""
        probes, recognizer = stream_probes
        recordings = [probes[k % 2] for k in range(4)]
        rate = recordings[0].sample_rate
        peaks = {
            gap_s: kernel_peak_bytes(
                FleetConfig(n_streams=4, gap_s=gap_s, seed=5),
                stream_detector,
                recordings,
                recognizer,
            )
            for gap_s in (1.0, 20.0)
        }
        chunk_row = int(round(FleetConfig().chunk_s * rate)) * 8
        timeline_growth = len(recordings) * int(19.0 * rate) * 8
        # Two chunk rows per stream absorb allocator noise (~50 KB
        # either way between runs), 200x below the eager growth.
        bound = 2 * len(recordings) * chunk_row
        assert abs(peaks[20.0] - peaks[1.0]) <= bound, (
            f"kernel peak {peaks[1.0]} B at gap_s=1 vs {peaks[20.0]} B "
            f"at gap_s=20 (eager timelines would add "
            f"{timeline_growth} B)"
        )
