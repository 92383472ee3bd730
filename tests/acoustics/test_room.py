"""Unit tests for the image-source room model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import interior_positions, rooms
from repro.acoustics.geometry import Position, Room
from repro.acoustics.propagation import PropagationModel
from repro.acoustics.room import ImageSourceRoomModel
from repro.dsp.signals import Unit, tone
from repro.errors import GeometryError


@pytest.fixture()
def room_model():
    return ImageSourceRoomModel(
        room=Room.meeting_room(),
        propagation=PropagationModel(include_delay=False),
    )


class TestPaths:
    def test_direct_plus_six_reflections(self, room_model):
        paths = room_model.paths(
            Position(1, 2, 1), Position(4, 2, 1)
        )
        assert len(paths) == 7
        assert paths[0].reflection_count == 0
        assert all(p.reflection_count == 1 for p in paths[1:])

    def test_direct_path_is_shortest(self, room_model):
        paths = room_model.paths(Position(1, 2, 1), Position(4, 2, 1))
        assert paths[0].distance_m == min(p.distance_m for p in paths)

    def test_reflection_amplitudes_attenuated(self, room_model):
        paths = room_model.paths(Position(1, 2, 1), Position(4, 2, 1))
        assert paths[0].amplitude_factor == 1.0
        assert all(p.amplitude_factor < 1.0 for p in paths[1:])

    def test_coincident_positions_rejected(self, room_model):
        with pytest.raises(GeometryError):
            room_model.paths(Position(1, 2, 1), Position(1, 2, 1))

    def test_outside_room_rejected(self, room_model):
        with pytest.raises(GeometryError):
            room_model.paths(Position(-1, 2, 1), Position(4, 2, 1))

    def test_reflections_can_be_disabled(self):
        model = ImageSourceRoomModel(
            room=Room.meeting_room(), include_reflections=False
        )
        paths = model.paths(Position(1, 2, 1), Position(4, 2, 1))
        assert len(paths) == 1


class TestTransmit:
    def test_reverberant_louder_than_free_field(self, room_model):
        wave = tone(1000.0, 0.1, 48000.0, unit=Unit.PASCAL)
        source, receiver = Position(1, 2, 1), Position(4, 2, 1)
        reverberant = room_model.transmit(wave, source, receiver)
        free = ImageSourceRoomModel(
            room=room_model.room, include_reflections=False,
            propagation=room_model.propagation,
        ).transmit(wave, source, receiver)
        # Summed reflections add energy on top of the direct path.
        assert reverberant.energy() > free.energy()

    def test_absorbing_room_closer_to_free_field(self):
        wave = tone(1000.0, 0.1, 48000.0, unit=Unit.PASCAL)
        source, receiver = Position(1, 2, 1), Position(4, 2, 1)

        def energy(absorption):
            model = ImageSourceRoomModel(
                room=Room(6.5, 4.0, 2.5, wall_absorption=absorption),
                propagation=PropagationModel(include_delay=False),
            )
            return model.transmit(wave, source, receiver).energy()

        assert energy(0.9) < energy(0.1)


class TestTransmitBatch:
    """The reflection-fan kernel must be bitwise scalar.

    Room scenarios route through transmit_batch in *both* engine
    modes, so the batch-vs-scalar CLI diff cannot catch a drift
    between the 7-path broadcast-FFT fan-out and per-path propagate +
    mix — only this pin can (next to the propagate_batch fan-out pin
    in tests/test_properties.py).
    """

    def test_bitwise_equals_transmit(self, room_model):
        wave = tone(1200.0, 0.05, 48000.0, unit=Unit.PASCAL)
        source, receiver = Position(1, 2, 1), Position(4, 2, 1)
        scalar = room_model.transmit(wave, source, receiver)
        batched = room_model.transmit_batch(wave, source, receiver)
        assert np.array_equal(scalar.samples, batched.samples)
        assert scalar.sample_rate == batched.sample_rate
        assert scalar.unit == batched.unit

    def test_bitwise_with_delay_and_long_signal(self):
        # > 64 rfft bins exercises the interpolated-absorption branch;
        # include_delay exercises per-path fractional shifts and the
        # zero-padded fold across unequal row lengths.
        model = ImageSourceRoomModel(room=Room.meeting_room())
        wave = tone(35000.0, 0.03, 192000.0, unit=Unit.PASCAL)
        source, receiver = Position(0.5, 2.0, 1.0), Position(5.5, 1.5, 1.2)
        scalar = model.transmit(wave, source, receiver)
        batched = model.transmit_batch(wave, source, receiver)
        assert np.array_equal(scalar.samples, batched.samples)

    @given(data=st.data(), room=rooms())
    @settings(max_examples=10, deadline=None)
    def test_bitwise_property_over_random_rooms(self, data, room):
        source = data.draw(interior_positions(room))
        receiver = data.draw(interior_positions(room))
        if source.distance_to(receiver) < 1e-6:
            return
        model = ImageSourceRoomModel(room=room)
        wave = tone(900.0, 0.01, 16000.0, unit=Unit.PASCAL)
        scalar = model.transmit(wave, source, receiver)
        batched = model.transmit_batch(wave, source, receiver)
        assert np.array_equal(scalar.samples, batched.samples)

    def test_reflections_disabled_reduces_to_direct(self):
        model = ImageSourceRoomModel(
            room=Room.meeting_room(), include_reflections=False
        )
        wave = tone(1000.0, 0.02, 48000.0, unit=Unit.PASCAL)
        source, receiver = Position(1, 2, 1), Position(4, 2, 1)
        direct = model.propagation.propagate(
            wave, source.distance_to(receiver)
        )
        batched = model.transmit_batch(wave, source, receiver)
        assert np.array_equal(direct.samples, batched.samples)
