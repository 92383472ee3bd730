"""Unit tests for the microphone chain — the attack's enabling device."""

import tracemalloc

import numpy as np
import pytest

from repro.acoustics.spl import spl_to_pressure
from repro.dsp.modulation import am_modulate
from repro.dsp.signals import SignalBatch, Unit, tone
from repro.dsp.spectrum import band_power, welch_psd
from repro.hardware.devices import (
    amazon_echo_microphone,
    android_phone_microphone,
    ideal_linear_microphone,
)
from repro.hardware.microphone import Microphone, MicrophoneConfig
from repro.hardware.nonlinearity import PolynomialNonlinearity
from repro.errors import HardwareModelError, SignalDomainError

RATE = 192000.0


def _pressure_tone(frequency, spl, duration=0.2):
    rms = spl_to_pressure(spl)
    return tone(
        frequency, duration, RATE, amplitude=rms * np.sqrt(2),
        unit=Unit.PASCAL,
    )


def _am_ultrasound(spl=100.0, message_hz=1000.0, carrier_hz=40000.0):
    message = tone(message_hz, 0.3, RATE)
    modulated = am_modulate(message, carrier_hz, bandwidth_hz=2000.0)
    target_peak = spl_to_pressure(spl) * np.sqrt(2)
    return modulated.scaled_to_peak(target_peak).with_unit(Unit.PASCAL)


class TestBasicRecording:
    def test_audible_tone_recorded_at_device_rate(self, rng):
        mic = android_phone_microphone()
        recording = mic.record(_pressure_tone(1000.0, 70.0), rng)
        assert recording.sample_rate == 48000.0
        assert recording.unit == Unit.DIGITAL
        assert band_power(recording, 900, 1100) > 1e-8

    def test_level_mapping(self, rng):
        mic = android_phone_microphone()
        recording = mic.record(_pressure_tone(1000.0, 94.0), rng)
        # 94 dB SPL = 1 Pa rms. Full scale (digital 1.0) is the PEAK of
        # a 120 dB SPL sine, i.e. sqrt(2) * 20 Pa, so the expected
        # digital rms is 1 / 28.3 = 0.0354 (plus small nonlinear
        # contributions).
        expected = 1.0 / (20.0 * np.sqrt(2.0))
        assert recording.rms() == pytest.approx(expected, rel=0.15)

    def test_requires_pascal(self, rng):
        mic = android_phone_microphone()
        with pytest.raises(SignalDomainError):
            mic.record(tone(1000.0, 0.1, RATE), rng)

    def test_requires_rng(self):
        mic = android_phone_microphone()
        with pytest.raises(HardwareModelError):
            mic.record(_pressure_tone(1000.0, 70.0), None)

    def test_deterministic_given_seed(self):
        mic = android_phone_microphone()
        wave = _pressure_tone(1000.0, 70.0)
        a = mic.record(wave, np.random.default_rng(3))
        b = mic.record(wave, np.random.default_rng(3))
        assert a == b


class TestNoiseFloor:
    def test_silence_records_noise_at_floor(self, rng):
        mic = android_phone_microphone()
        silence = _pressure_tone(1000.0, -200.0)
        recording = mic.record(silence, rng)
        # Equivalent input noise 30 dB SPL: the digital floor must land
        # within an order of magnitude of 30 dB SPL re full scale
        # (exact value depends on how much of the injected wideband
        # noise the anti-alias chain keeps).
        assert 3e-6 < recording.rms() < 1e-4


class TestNonlinearDemodulation:
    """The heart of the reproduction."""

    def test_am_ultrasound_demodulated_to_baseband(self, rng):
        mic = android_phone_microphone()
        recording = mic.record(_am_ultrasound(spl=100.0), rng)
        baseband = band_power(recording, 900, 1100)
        noise_reference = band_power(recording, 4000, 6000)
        assert baseband > 30 * noise_reference

    def test_linear_microphone_records_nothing(self, rng):
        mic = ideal_linear_microphone()
        recording = mic.record(_am_ultrasound(spl=100.0), rng)
        baseband = band_power(recording, 900, 1100)
        noise_reference = band_power(recording, 4000, 6000)
        assert baseband < 10 * noise_reference

    def test_demodulated_level_scales_quadratically(self, rng):
        # +6 dB of ultrasound SPL should raise the demodulated tone by
        # ~+12 dB (product of carrier and sideband, both +6).
        mic = android_phone_microphone()
        low = mic.record(_am_ultrasound(spl=94.0), rng)
        high = mic.record(_am_ultrasound(spl=100.0), rng)
        gain_db = 10 * np.log10(
            band_power(high, 900, 1100) / band_power(low, 900, 1100)
        )
        assert gain_db == pytest.approx(12.0, abs=2.5)

    def test_carrier_itself_absent_from_recording(self, rng):
        mic = android_phone_microphone()
        recording = mic.record(_am_ultrasound(spl=100.0), rng)
        # Device rate is 48 kHz; 40 kHz carrier must not alias in.
        psd = welch_psd(recording)
        assert psd.band_power(15000, 23000) < psd.band_power(900, 1100)

    def test_demodulation_gain_helper(self):
        mic = android_phone_microphone()
        gain_quiet = mic.demodulation_gain(carrier_spl=80.0)
        gain_loud = mic.demodulation_gain(carrier_spl=100.0)
        assert gain_loud == pytest.approx(10 * gain_quiet, rel=0.01)


class TestFrontEnd:
    def test_cover_attenuates_ultrasound_not_speech(self, rng):
        covered = Microphone(
            MicrophoneConfig(
                device_rate=48000.0,
                front_end_attenuation_db=10.0,
                nonlinearity=PolynomialNonlinearity((1.0, 0.08)),
            )
        )
        bare = Microphone(
            MicrophoneConfig(
                device_rate=48000.0,
                front_end_attenuation_db=0.0,
                nonlinearity=PolynomialNonlinearity((1.0, 0.08)),
            )
        )
        wave = _am_ultrasound(spl=100.0)
        rec_covered = covered.record(wave, np.random.default_rng(1))
        rec_bare = bare.record(wave, np.random.default_rng(1))
        loss_db = 10 * np.log10(
            band_power(rec_bare, 900, 1100)
            / band_power(rec_covered, 900, 1100)
        )
        # Quadratic demodulation doubles the 10 dB front-end loss.
        assert loss_db == pytest.approx(20.0, abs=3.0)
        # Audible speech is unaffected by the cover.
        speech = _pressure_tone(1000.0, 70.0)
        rec_covered_speech = covered.record(
            speech, np.random.default_rng(2)
        )
        rec_bare_speech = bare.record(speech, np.random.default_rng(2))
        ratio = band_power(rec_covered_speech, 900, 1100) / band_power(
            rec_bare_speech, 900, 1100
        )
        assert ratio == pytest.approx(1.0, abs=0.2)


class TestConfigValidation:
    def test_noise_above_full_scale_rejected(self):
        with pytest.raises(HardwareModelError):
            MicrophoneConfig(full_scale_spl=90.0, noise_floor_spl=95.0)

    def test_implausible_full_scale_rejected(self):
        with pytest.raises(HardwareModelError):
            MicrophoneConfig(full_scale_spl=40.0)

    def test_dc_block_range_enforced(self):
        with pytest.raises(HardwareModelError):
            MicrophoneConfig(dc_block_hz=30.0)


class TestBatchMemory:
    @pytest.mark.parametrize(
        "factory", [android_phone_microphone, amazon_echo_microphone]
    )
    def test_analog_chain_peak_is_three_stacks(self, factory):
        """Each stage's input is freed once the next has run and the
        self-noise lands in place, so the chain never holds more than
        three stacks beside its input (a cover's spectral shaping
        included)."""
        microphone = factory()
        samples = np.random.default_rng(0).normal(0.0, 0.5, (8, 19200))
        pressure = SignalBatch(samples, RATE, Unit.PASCAL)

        def rngs():
            return [np.random.default_rng(k) for k in range(8)]

        # Warm the filter-design cache outside the traced call.
        microphone.record_analog_batch(pressure, rngs())
        generators = rngs()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            microphone.record_analog_batch(pressure, generators)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 3 * samples.nbytes

    @pytest.mark.parametrize(
        "factory", [android_phone_microphone, amazon_echo_microphone]
    )
    @pytest.mark.parametrize("entry", ["record_analog", "digitize", "record"])
    def test_batch_rows_match_scalar_record_analog(self, factory, entry):
        """Row ``k`` of each stacked entry point is bitwise the
        one-signal call on row ``k`` with generator ``k``: the analog
        half, the ADC half and the whole chain."""
        microphone = factory()
        samples = np.random.default_rng(1).normal(0.0, 0.5, (3, 4800))
        pressure = SignalBatch(samples, RATE, Unit.PASCAL)

        def rngs():
            return [np.random.default_rng(k) for k in range(3)]

        if entry == "record_analog":
            batch = microphone.record_analog_batch(pressure, rngs())
            rows = [
                microphone.record_analog(pressure.row(k), rng)
                for k, rng in enumerate(rngs())
            ]
        elif entry == "digitize":
            analog = microphone.record_analog_batch(pressure, rngs())
            batch = microphone.digitize_batch(analog)
            rows = [microphone.digitize(analog.row(k)) for k in range(3)]
        else:
            batch = microphone.record_batch(pressure, rngs())
            rows = [
                microphone.record(pressure.row(k), rng)
                for k, rng in enumerate(rngs())
            ]
        for k, row in enumerate(rows):
            assert batch.sample_rate == row.sample_rate
            assert batch.unit == row.unit
            assert np.array_equal(batch.samples[k], row.samples)
