"""Unit tests for spectral estimation."""

import numpy as np
import pytest

from repro.dsp.signals import multi_tone, tone, white_noise
from repro.dsp.spectrum import (
    band_rms,
    dominant_frequency,
    power_spectrum,
    spectrogram,
    welch_psd,
    welch_psd_matrix,
)
from repro.errors import SignalDomainError


class TestWelchPsd:
    def test_parseval_total_power(self, rng):
        s = white_noise(2.0, 8000.0, rng, rms_level=1.0)
        psd = welch_psd(s)
        assert psd.total_power() == pytest.approx(1.0, rel=0.1)

    def test_tone_power_in_band(self):
        s = tone(1000.0, 2.0, 16000.0, amplitude=1.0)
        psd = welch_psd(s)
        # Mean-square of a unit sine is 0.5.
        assert psd.band_power(900, 1100) == pytest.approx(0.5, rel=0.05)

    def test_peak_frequency(self):
        s = tone(440.0, 1.0, 8000.0)
        assert welch_psd(s).peak_frequency() == pytest.approx(440.0, abs=4)

    def test_white_noise_is_flat(self, rng):
        s = white_noise(4.0, 8000.0, rng, rms_level=1.0)
        psd = welch_psd(s)
        low = psd.band_power(100, 1100)
        high = psd.band_power(2100, 3100)
        assert low == pytest.approx(high, rel=0.2)

    def test_empty_signal_rejected(self):
        from repro.dsp.signals import Signal

        with pytest.raises(SignalDomainError):
            welch_psd(Signal([], 8000.0))

    def test_short_signal_still_estimates(self):
        s = tone(100.0, 0.01, 8000.0)
        psd = welch_psd(s, segment_length=4096)
        assert psd.total_power() > 0

    def test_invalid_overlap_rejected(self):
        s = tone(100.0, 1.0, 8000.0)
        with pytest.raises(SignalDomainError):
            welch_psd(s, overlap=1.0)

    def test_band_power_inverted_edges_rejected(self):
        s = tone(100.0, 1.0, 8000.0)
        with pytest.raises(SignalDomainError):
            welch_psd(s).band_power(200.0, 100.0)


class TestWelchPsdMatrix:
    def test_float32_promoted_to_float64(self, rng):
        # One precision: float32 input is promoted exactly, so every
        # row is the float64 estimate of the same values.
        narrow = rng.normal(size=(2, 2048)).astype(np.float32)
        freqs, psd = welch_psd_matrix(narrow, 8000.0, segment_length=256)
        assert psd.dtype == np.float64
        ref_freqs, ref_psd = welch_psd_matrix(
            narrow.astype(np.float64), 8000.0, segment_length=256
        )
        assert np.array_equal(freqs, ref_freqs)
        assert np.array_equal(psd, ref_psd)


class TestPowerSpectrum:
    def test_resolves_close_tones(self):
        s = multi_tone([(1000.0, 1.0), (1010.0, 1.0)], 2.0, 16000.0)
        psd = power_spectrum(s)
        assert psd.bin_width < 1.0
        assert psd.band_power(995, 1005) > 0.1
        assert psd.band_power(1005, 1015) > 0.1


class TestSpectrogram:
    def test_shapes_consistent(self):
        s = tone(1000.0, 1.0, 16000.0)
        spec = spectrogram(s, frame_length=512, overlap=0.5)
        assert spec.power.shape == (
            len(spec.frequencies),
            len(spec.times),
        )

    def test_chirp_energy_moves(self):
        from repro.dsp.signals import chirp

        s = chirp(500.0, 4000.0, 1.0, 16000.0)
        spec = spectrogram(s, frame_length=1024)
        early = spec.band_trajectory(400, 1000)
        late = spec.band_trajectory(3000, 4500)
        n = len(spec.times)
        assert np.mean(early[: n // 4]) > np.mean(early[-n // 4 :])
        assert np.mean(late[-n // 4 :]) > np.mean(late[: n // 4])

    def test_signal_shorter_than_frame_rejected(self):
        s = tone(100.0, 0.01, 8000.0)
        with pytest.raises(SignalDomainError):
            spectrogram(s, frame_length=1024)


class TestConvenience:
    def test_band_rms_matches_time_domain(self):
        s = tone(1000.0, 2.0, 16000.0, amplitude=2.0)
        assert band_rms(s, 900, 1100) == pytest.approx(s.rms(), rel=0.05)

    def test_dominant_frequency(self):
        s = multi_tone([(100.0, 0.2), (2000.0, 1.0)], 1.0, 16000.0)
        assert dominant_frequency(s) == pytest.approx(2000.0, abs=10)


class TestOneSidedParity:
    """Even- and odd-length FFTs fold negative frequencies correctly.

    An odd FFT has no Nyquist bin, so everything but DC doubles; an
    even FFT keeps DC *and* Nyquist single. Getting either case wrong
    shows up as a Parseval violation, so the checks here are energy
    conservation at odd segment and frame lengths.
    """

    def test_correction_even_keeps_dc_and_nyquist_single(self):
        from repro.dsp.spectrum import _one_sided_correction

        power = np.ones(5)
        out = _one_sided_correction(power, n_fft=8)
        assert np.array_equal(out, [1.0, 2.0, 2.0, 2.0, 1.0])

    def test_correction_odd_doubles_all_but_dc(self):
        from repro.dsp.spectrum import _one_sided_correction

        power = np.ones(5)
        out = _one_sided_correction(power, n_fft=9)
        assert np.array_equal(out, [1.0, 2.0, 2.0, 2.0, 2.0])

    def test_parseval_odd_segment_length(self, rng):
        s = white_noise(2.0, 8000.0, rng, rms_level=1.0)
        psd = welch_psd(s, segment_length=1001)
        assert psd.total_power() == pytest.approx(1.0, rel=0.1)

    def test_parseval_odd_full_signal(self, rng):
        from repro.dsp.signals import Signal

        s = white_noise(1.0, 8000.0, rng, rms_level=1.0)
        odd = Signal(s.samples[:7999], s.sample_rate, s.unit)
        assert odd.n_samples % 2 == 1
        # One rectangular-windowed segment covering the whole signal:
        # Parseval is exact, so a wrong odd-length fold (double-counted
        # or dropped top bin) cannot hide in estimator variance.
        psd = power_spectrum(odd, window="rectangular")
        assert psd.total_power() == pytest.approx(
            float(np.mean(odd.samples**2)), rel=1e-9
        )

    def test_spectrogram_odd_frame_conserves_energy(self, rng):
        s = white_noise(2.0, 8000.0, rng, rms_level=1.0)
        spec = spectrogram(s, frame_length=513, overlap=0.5)
        bin_width = float(spec.frequencies[1] - spec.frequencies[0])
        per_frame = np.sum(spec.power, axis=0) * bin_width
        assert np.mean(per_frame) == pytest.approx(1.0, rel=0.1)


class TestDegenerateBinWidth:
    """Single-bin spectra integrate to zero, consistently everywhere."""

    def test_power_spectrum_bin_width_zero(self):
        from repro.dsp.spectrum import PowerSpectrum

        single = PowerSpectrum(
            frequencies=np.array([0.0]), psd=np.array([3.0])
        )
        assert single.bin_width == 0.0
        assert single.total_power() == 0.0
        assert single.band_power(0.0, 10.0) == 0.0

    def test_band_trajectory_single_bin_is_zero(self):
        from repro.dsp.spectrum import Spectrogram

        spec = Spectrogram(
            times=np.array([0.0, 0.5]),
            frequencies=np.array([0.0]),
            power=np.ones((1, 2)),
        )
        assert np.array_equal(
            spec.band_trajectory(0.0, 10.0), [0.0, 0.0]
        )
