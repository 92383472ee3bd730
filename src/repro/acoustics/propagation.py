"""Point-to-point acoustic propagation.

A source waveform is referenced to its on-axis pressure at one metre
(the standard way loudspeaker output is specified). Propagation to a
receiver applies:

* spherical spreading — pressure falls as ``1/d``;
* atmospheric absorption — frequency dependent (ISO 9613-1), applied as
  a zero-phase FFT-domain gain so a wideband attack signal has each
  component attenuated correctly;
* time of flight — a fractional-sample delay at 343 m/s.

The frequency dependence matters: at three metres a 2 kHz voice band
loses ~0.05 dB to absorption while a 40 kHz carrier loses ~4 dB, which
is precisely the asymmetry that forces inaudible attackers to crank up
power and thereby betray themselves via speaker leakage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import fft as sp_fft

from repro.acoustics.atmosphere import (
    AtmosphericConditions,
    absorption_coefficient_db_per_m,
)
from repro.acoustics.spl import SPEED_OF_SOUND
from repro.dsp.signals import Signal, Unit
from repro.errors import SignalDomainError


def propagation_loss_db(
    frequency_hz: float,
    distance_m: float,
    conditions: AtmosphericConditions | None = None,
) -> float:
    """Total loss in dB from 1 m to ``distance_m`` for a pure tone.

    Combines ``20 log10(d)`` spreading with ISO 9613-1 absorption. At
    exactly one metre the loss is zero by definition.
    """
    if distance_m <= 0:
        raise SignalDomainError(
            f"distance must be positive, got {distance_m}"
        )
    spreading = 20.0 * np.log10(distance_m)
    absorption = absorption_coefficient_db_per_m(frequency_hz, conditions) * (
        distance_m - 1.0
    )
    # Absorption is referenced to the 1 m point, so a listener closer
    # than 1 m sees (slightly) less absorption, never negative total.
    return float(spreading + max(absorption, -spreading))


@dataclass
class PropagationModel:
    """Applies spreading, absorption and delay to waveforms.

    Parameters
    ----------
    conditions:
        Atmospheric conditions for the absorption model.
    include_delay:
        Whether to apply time-of-flight delay. Disable for analyses
        that align signals in time.
    speed_of_sound:
        Propagation speed, m/s.
    """

    conditions: AtmosphericConditions = field(
        default_factory=AtmosphericConditions
    )
    include_delay: bool = True
    speed_of_sound: float = SPEED_OF_SOUND

    def absorption_gain(
        self, frequencies_hz: np.ndarray, distance_m: float
    ) -> np.ndarray:
        """Linear amplitude gains for absorption over the path.

        Vectorised over FFT bin frequencies; the DC bin gets unity gain
        (absorption is undefined at 0 Hz and irrelevant there).
        """
        gains = np.ones_like(frequencies_hz, dtype=np.float64)
        nonzero = frequencies_hz > 0
        alphas = np.array(
            [
                absorption_coefficient_db_per_m(f, self.conditions)
                for f in frequencies_hz[nonzero]
            ]
        )
        loss_db = alphas * max(distance_m - 1.0, 0.0)
        gains[nonzero] = 10.0 ** (-loss_db / 20.0)
        return gains

    def _bin_gains(
        self, freqs: np.ndarray, distance_m: float
    ) -> np.ndarray:
        """Absorption gains per FFT bin, coarse-grained for speed.

        ISO 9613-1 is evaluated on a 64-point log grid and
        interpolated onto the bins, since per-bin evaluation of the
        scalar model would dominate runtime for megasample signals.
        Shared verbatim by :meth:`propagate` and
        :meth:`propagate_batch` so the two paths are bitwise identical
        per (waveform, distance) by construction.

        Nothing is memoised: a cached row per distance would be half a
        waveform retained per distinct path length, which for a
        speaker array in a room (seven paths per source) outgrows the
        arrivals themselves, while the 64-point model and the
        interpolation cost well under a millisecond per call.
        """
        if len(freqs) <= 64:
            return self.absorption_gain(freqs, distance_m)
        grid = np.geomspace(
            max(freqs[1], 1.0), max(freqs[-1], 2.0), num=64
        )
        grid_gain = self.absorption_gain(grid, distance_m)
        return np.interp(freqs, grid, grid_gain, left=1.0)

    def propagate(self, pressure_at_1m: Signal, distance_m: float) -> Signal:
        """Propagate a pressure waveform from 1 m to ``distance_m``.

        The input must be in pascals (use the speaker model to get
        there); the output is the pressure waveform at the receiver.
        """
        if pressure_at_1m.unit != Unit.PASCAL:
            raise SignalDomainError(
                "propagate expects a pressure waveform in pascals, got "
                f"unit {pressure_at_1m.unit!r}"
            )
        if distance_m <= 0:
            raise SignalDomainError(
                f"distance must be positive, got {distance_m}"
            )
        spreading_gain = 1.0 / distance_m
        spectrum = sp_fft.rfft(pressure_at_1m.samples)
        freqs = np.fft.rfftfreq(
            pressure_at_1m.n_samples, d=1.0 / pressure_at_1m.sample_rate
        )
        gains = self._bin_gains(freqs, distance_m)
        attenuated = sp_fft.irfft(
            spectrum * gains, n=pressure_at_1m.n_samples
        )
        out = pressure_at_1m.replace(samples=attenuated * spreading_gain)
        if self.include_delay:
            out = out.delayed(distance_m / self.speed_of_sound)
        return out

    def propagate_batch(
        self, pressure_at_1m: Signal, distances_m: Sequence[float]
    ) -> np.ndarray:
        """Propagate one waveform over several paths at once.

        The fan-out counterpart of :meth:`propagate` for a room model
        spreading one source over its direct and image paths: row
        ``i`` of the returned ``(n_paths, n)`` array is
        ``propagate(pressure_at_1m, distances_m[i])``, bitwise,
        zero-padded to the longest post-delay length — so folding the
        rows reproduces :func:`repro.dsp.signals.mix` of the scalar
        results. The forward FFT is computed once and broadcast over
        the paths; the per-path gains, spreading and fractional-sample
        delay reuse exactly the scalar arithmetic. Memory is
        ``n_paths`` waveforms: callers fan out over a handful of
        reflection paths, never over sources.
        """
        if pressure_at_1m.unit != Unit.PASCAL:
            raise SignalDomainError(
                "propagate_batch expects a pressure waveform in "
                f"pascals, got unit {pressure_at_1m.unit!r}"
            )
        distances = [float(d) for d in distances_m]
        if not distances:
            raise SignalDomainError(
                "propagate_batch needs at least one distance"
            )
        for distance in distances:
            if distance <= 0:
                raise SignalDomainError(
                    f"distance must be positive, got {distance}"
                )
        n = pressure_at_1m.n_samples
        sample_rate = pressure_at_1m.sample_rate
        spectra = np.broadcast_to(
            sp_fft.rfft(pressure_at_1m.samples),
            (len(distances), n // 2 + 1),
        )
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
        # Per-path gain rows via the same coarse-grid interpolation the
        # scalar path uses (bitwise identical per row).
        gain_rows = np.empty_like(spectra, dtype=np.float64)
        for index, distance in enumerate(distances):
            gain_rows[index] = self._bin_gains(freqs, distance)
        attenuated = sp_fft.irfft(spectra * gain_rows, n=n, axis=-1)
        spreading = np.array(
            [1.0 / distance for distance in distances]
        )[:, np.newaxis]
        attenuated = attenuated * spreading
        if not self.include_delay:
            return attenuated
        # Fractional-sample delay per path, exactly as Signal.delayed:
        # integer shift + linear interpolation for the remainder.
        wholes, shifted_rows = [], []
        x = np.arange(n, dtype=np.float64)
        for row, distance in zip(attenuated, distances):
            total = (distance / self.speed_of_sound) * sample_rate
            whole = int(np.floor(total))
            frac = total - whole
            if frac > 1e-9:
                row = np.interp(x - frac, x, row, left=0.0, right=0.0)
            wholes.append(whole)
            shifted_rows.append(row)
        out = np.zeros((len(distances), n + max(wholes)))
        for index, (whole, row) in enumerate(zip(wholes, shifted_rows)):
            out[index, whole : whole + n] = row
        return out

    def time_of_flight(self, distance_m: float) -> float:
        """Propagation delay in seconds over ``distance_m``."""
        if distance_m < 0:
            raise SignalDomainError(
                f"distance must be non-negative, got {distance_m}"
            )
        return distance_m / self.speed_of_sound
