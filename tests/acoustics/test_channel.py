"""Unit tests for the multi-source acoustic channel."""

import tracemalloc

import numpy as np
import pytest

from repro.acoustics.channel import AcousticChannel, PlacedSource
from repro.acoustics.geometry import Position, Room
from repro.acoustics.propagation import PropagationModel
from repro.acoustics.room import ImageSourceRoomModel
from repro.acoustics.spl import pressure_to_spl
from repro.dsp.signals import SignalBatch, Unit, mix, tone
from repro.dsp.spectrum import band_power
from repro.errors import GeometryError, SignalDomainError


def _source(frequency, position, duration=0.1):
    wave = tone(frequency, duration, 48000.0, unit=Unit.PASCAL)
    return PlacedSource(wave, position)


class TestPlacedSource:
    def test_requires_pascal(self):
        with pytest.raises(SignalDomainError):
            PlacedSource(tone(100.0, 0.1, 48000.0), Position(0, 0, 0))


class TestReceive:
    def test_single_source_free_field(self, rng):
        channel = AcousticChannel(ambient_noise_spl=None)
        received = channel.receive(
            [_source(1000.0, Position(0, 0, 0))], Position(2, 0, 0)
        )
        assert received.rms() == pytest.approx(
            tone(1000.0, 0.1, 48000.0).rms() / 2.0, rel=0.05
        )

    def test_sources_superpose(self, rng):
        channel = AcousticChannel(
            ambient_noise_spl=None,
            propagation=PropagationModel(include_delay=False),
        )
        receiver = Position(2, 0, 0)
        sources = [
            _source(1000.0, Position(0, 0, 0)),
            _source(3000.0, Position(0, 0.5, 0)),
        ]
        received = channel.receive(sources, receiver)
        assert band_power(received, 900, 1100) > 1e-3
        assert band_power(received, 2900, 3100) > 1e-3

    def test_noise_floor_level(self, rng):
        channel = AcousticChannel(ambient_noise_spl=40.0)
        quiet = _source(1000.0, Position(0, 0, 0))
        quiet = PlacedSource(
            quiet.pressure_at_1m * 1e-9, quiet.position
        )
        received = channel.receive([quiet], Position(1, 0, 0), rng)
        assert pressure_to_spl(received.rms()) == pytest.approx(40.0, abs=2.0)

    def test_noise_requires_rng(self):
        channel = AcousticChannel(ambient_noise_spl=40.0)
        with pytest.raises(SignalDomainError):
            channel.receive(
                [_source(1000.0, Position(0, 0, 0))], Position(1, 0, 0)
            )

    def test_empty_sources_rejected(self, rng):
        channel = AcousticChannel(ambient_noise_spl=None)
        with pytest.raises(
            SignalDomainError, match="transmit requires at least one source"
        ):
            channel.receive([], Position(1, 0, 0))

    def test_mixed_rates_rejected(self, rng):
        channel = AcousticChannel(ambient_noise_spl=None)
        a = _source(1000.0, Position(0, 0, 0))
        b = PlacedSource(
            tone(1000.0, 0.1, 96000.0, unit=Unit.PASCAL),
            Position(0, 1, 0),
        )
        with pytest.raises(SignalDomainError):
            channel.receive([a, b], Position(1, 0, 0))

    def test_coincident_source_receiver_rejected(self, rng):
        channel = AcousticChannel(ambient_noise_spl=None)
        with pytest.raises(GeometryError):
            channel.receive(
                [_source(1000.0, Position(1, 0, 0))], Position(1, 0, 0)
            )

    def test_room_channel_validates_positions(self, rng):
        channel = AcousticChannel(
            room=Room.meeting_room(), ambient_noise_spl=None
        )
        with pytest.raises(GeometryError):
            channel.receive(
                [_source(1000.0, Position(0.5, 2, 1))],
                Position(20.0, 2, 1),
            )

    def test_room_adds_reverberation(self, rng):
        free = AcousticChannel(
            ambient_noise_spl=None,
            propagation=PropagationModel(include_delay=False),
        )
        roomy = AcousticChannel(
            room=Room.meeting_room(),
            ambient_noise_spl=None,
            propagation=PropagationModel(include_delay=False),
        )
        source = [_source(1000.0, Position(1, 2, 1))]
        receiver = Position(4, 2, 1)
        assert (
            roomy.receive(source, receiver).energy()
            > free.receive(source, receiver).energy()
        )

    def test_deterministic_given_seed(self):
        channel = AcousticChannel(ambient_noise_spl=40.0)
        source = [_source(1000.0, Position(0, 0, 0))]
        a = channel.receive(
            source, Position(1, 0, 0), np.random.default_rng(5)
        )
        b = channel.receive(
            source, Position(1, 0, 0), np.random.default_rng(5)
        )
        assert a == b


class TestBatchedTransmission:
    """transmit() folds one arrival per source; it must be bitwise mix.

    Both engine modes share the one transmitted waveform per trial
    group, so no batch-vs-scalar CLI diff can catch a drift in the
    fold — only these pins can.
    """

    def _sources(self, n, duration=0.1):
        return [
            _source(
                1000.0 * (i % 8 + 1), Position(0.2 * i, 0.0, 0.0), duration
            )
            for i in range(n)
        ]

    @staticmethod
    def _free_field_mix(channel, sources, receiver):
        return mix(
            [
                channel.propagation.propagate(
                    s.pressure_at_1m, s.position.distance_to(receiver)
                )
                for s in sources
            ]
        )

    def test_multi_source_transmit_bitwise_equals_per_source_mix(self):
        channel = AcousticChannel(ambient_noise_spl=None)
        sources = self._sources(4)
        receiver = Position(3.0, 0.5, 0.0)
        fast = channel.transmit(sources, receiver)
        slow = self._free_field_mix(channel, sources, receiver)
        assert np.array_equal(fast.samples, slow.samples)

    def test_room_multi_source_transmit_bitwise_equals_mix(self):
        room = Room.meeting_room()
        channel = AcousticChannel(room=room, ambient_noise_spl=None)
        model = ImageSourceRoomModel(room=room)
        receiver = Position(4.5, 2.0, 1.2)
        sources = [
            _source(1000.0 * (i + 1), Position(0.5 + 0.3 * i, 1.5, 1.0))
            for i in range(5)
        ]
        transmitted = channel.transmit(sources, receiver)
        expected = mix(
            [
                model.transmit(s.pressure_at_1m, s.position, receiver)
                for s in sources
            ]
        )
        assert np.array_equal(transmitted.samples, expected.samples)

    def test_mixed_length_free_field_bitwise_equals_mix(self):
        channel = AcousticChannel(ambient_noise_spl=None)
        receiver = Position(3.0, 0.5, 0.0)
        # Unequal lengths and a far source, so both the running total
        # and the arrival need zero-padding at some step of the fold.
        sources = [
            _source(1000.0, Position(0.0, 0.0, 0.0), 0.1),
            _source(2000.0, Position(0.4, 0.0, 0.0), 0.05),
            _source(3000.0, Position(-6.0, 0.0, 0.0), 0.02),
            _source(4000.0, Position(0.8, 0.0, 0.0), 0.13),
        ]
        transmitted = channel.transmit(sources, receiver)
        expected = self._free_field_mix(channel, sources, receiver)
        assert np.array_equal(transmitted.samples, expected.samples)

    def test_peak_memory_does_not_grow_with_source_count(self):
        """Only the running total and one arrival are ever alive, so 32
        speakers cost at most one more arrived waveform than 4."""
        channel = AcousticChannel(ambient_noise_spl=None)
        receiver = Position(3.0, 0.5, 0.0)
        sources = self._sources(32, duration=0.25)

        def peak_bytes(subset):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                arrived = channel.transmit(subset, receiver)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - before, arrived.samples.nbytes

        few, _ = peak_bytes(sources[:4])
        many, arrived_bytes = peak_bytes(sources)
        assert many - few <= arrived_bytes

    def test_subclassed_propagation_takes_scalar_path(self):
        class TaggedPropagation(PropagationModel):
            pass

        channel = AcousticChannel(
            ambient_noise_spl=None, propagation=TaggedPropagation()
        )
        other = AcousticChannel(ambient_noise_spl=None)
        sources = self._sources(3)
        receiver = Position(2.0, 0.0, 0.0)
        assert np.array_equal(
            channel.transmit(sources, receiver).samples,
            other.transmit(sources, receiver).samples,
        )

    def test_ambient_batch_rejects_none_generators(self):
        channel = AcousticChannel(ambient_noise_spl=40.0)
        clean = channel.transmit(
            self._sources(1), Position(1.0, 0.0, 0.0)
        )
        with pytest.raises(SignalDomainError, match="generator"):
            channel.ambient_batch(clean, [None])


class TestAmbientBatch:
    """``ambient_batch`` rows against ``add_ambient``, row by row."""

    @pytest.mark.parametrize("noise_spl", [40.0, None])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_rows_bitwise_equal_add_ambient(self, noise_spl, stacked):
        channel = AcousticChannel(ambient_noise_spl=noise_spl)
        clean = channel.transmit(
            [_source(1000.0, Position(0.0, 0.0, 0.0))],
            Position(1.0, 0.0, 0.0),
        )
        if stacked:
            # The moving-attacker case: one scaled copy per trial.
            rows = [clean * gain for gain in (0.5, 1.0, 2.0)]
            chunk = SignalBatch.from_signals(rows)
        else:
            # The static case: every trial hears the shared wave.
            rows = [clean] * 3
            chunk = clean
        batch = channel.ambient_batch(
            chunk, [np.random.default_rng(k) for k in range(3)]
        )
        assert batch.n_signals == 3
        for k, row in enumerate(rows):
            alone = channel.add_ambient(row, np.random.default_rng(k))
            assert batch.unit == alone.unit
            assert np.array_equal(batch.samples[k], alone.samples)
