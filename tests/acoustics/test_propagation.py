"""Unit tests for point-to-point propagation."""

import numpy as np
import pytest

from repro.acoustics.propagation import PropagationModel, propagation_loss_db
from repro.acoustics.spl import SPEED_OF_SOUND, pressure_to_spl
from repro.dsp.signals import Unit, multi_tone, tone
from repro.dsp.spectrum import band_power
from repro.errors import SignalDomainError


@pytest.fixture()
def model():
    return PropagationModel(include_delay=False)


class TestLossDb:
    def test_zero_at_one_meter(self):
        assert propagation_loss_db(1000.0, 1.0) == pytest.approx(0.0, abs=0.01)

    def test_spreading_dominates_at_speech(self):
        loss = propagation_loss_db(1000.0, 4.0)
        assert loss == pytest.approx(12.0, abs=0.5)

    def test_absorption_matters_at_ultrasound(self):
        speech = propagation_loss_db(1000.0, 8.0)
        ultra = propagation_loss_db(40000.0, 8.0)
        assert ultra - speech > 5.0

    def test_invalid_distance_rejected(self):
        with pytest.raises(SignalDomainError):
            propagation_loss_db(1000.0, 0.0)


class TestPropagate:
    def test_inverse_square_amplitude(self, model):
        wave = tone(1000.0, 0.2, 48000.0, unit=Unit.PASCAL)
        at_2m = model.propagate(wave, 2.0)
        assert at_2m.rms() == pytest.approx(wave.rms() / 2.0, rel=0.02)

    def test_frequency_selective_absorption(self, model):
        wave = multi_tone(
            [(1000.0, 1.0), (40000.0, 1.0)], 0.3, 192000.0,
            unit=Unit.PASCAL,
        )
        received = model.propagate(wave, 10.0)
        low_loss = 10 * np.log10(
            band_power(wave, 900, 1100)
            / band_power(received, 900, 1100)
        )
        high_loss = 10 * np.log10(
            band_power(wave, 39000, 41000)
            / band_power(received, 39000, 41000)
        )
        # Both see 20 dB of spreading; the ultrasonic tone additionally
        # loses ~1.3 dB/m * 9 m of absorption.
        assert low_loss == pytest.approx(20.0, abs=1.0)
        assert high_loss == pytest.approx(20.0 + 12.0, abs=4.0)

    def test_delay_applied(self):
        model = PropagationModel(include_delay=True)
        wave = tone(1000.0, 0.1, 48000.0, unit=Unit.PASCAL)
        received = model.propagate(wave, SPEED_OF_SOUND)  # exactly 1 s
        assert received.n_samples == pytest.approx(
            wave.n_samples + 48000, abs=2
        )

    def test_time_of_flight(self, model):
        assert model.time_of_flight(343.0) == pytest.approx(1.0, rel=0.01)

    def test_requires_pascal_unit(self, model):
        wave = tone(1000.0, 0.1, 48000.0)  # digital
        with pytest.raises(SignalDomainError):
            model.propagate(wave, 2.0)

    def test_spl_bookkeeping_consistent(self, model):
        wave = tone(1000.0, 0.2, 48000.0, amplitude=1.0, unit=Unit.PASCAL)
        spl_at_1m = pressure_to_spl(wave.rms())
        received = model.propagate(wave, 3.0)
        spl_at_3m = pressure_to_spl(received.rms())
        assert spl_at_1m - spl_at_3m == pytest.approx(
            propagation_loss_db(1000.0, 3.0), abs=0.5
        )


class TestSharedInputBatch:
    def test_shared_spectrum_path_is_bitwise_identical(self):
        """One broadcast forward FFT, rows bitwise equal to propagate."""
        from repro.dsp.signals import Signal

        model = PropagationModel()
        wave = Signal(
            np.random.default_rng(3).normal(size=4096),
            192000.0,
            Unit.PASCAL,
        )
        distances = [1.0, 2.5, 3.3, 4.1, 5.0, 6.2, 7.7]
        fan = model.propagate_batch(wave, distances)
        assert fan.shape[0] == len(distances)
        for row, distance in zip(fan, distances):
            scalar = model.propagate(wave, distance).samples
            assert np.array_equal(row[: len(scalar)], scalar)
            assert not row[len(scalar) :].any()

    def test_rejects_bad_inputs(self):
        model = PropagationModel()
        wave = tone(1000.0, 0.01, 48000.0, unit=Unit.PASCAL)
        with pytest.raises(SignalDomainError, match="pascals"):
            model.propagate_batch(wave.with_unit(Unit.VOLT), [1.0])
        with pytest.raises(SignalDomainError, match="at least one"):
            model.propagate_batch(wave, [])
        with pytest.raises(SignalDomainError, match="positive"):
            model.propagate_batch(wave, [1.0, 0.0])
