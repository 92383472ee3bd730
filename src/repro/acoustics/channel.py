"""The multi-source acoustic channel.

This is the physical stage on which the long-range attack plays out:
each ultrasonic speaker radiates its own waveform; the channel
propagates every waveform (direct path plus reflections if a room is
given) to the victim microphone's diaphragm and sums the pressures.
Only *after* this summation does the microphone's nonlinearity square
the total — which is why spectral slices radiated from different
speakers can recombine into a full voice command that no single
speaker ever emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acoustics.geometry import Position, Room
from repro.acoustics.propagation import PropagationModel
from repro.acoustics.room import ImageSourceRoomModel
from repro.dsp.signals import Signal, SignalBatch, Unit, white_noise
from repro.errors import GeometryError, SignalDomainError


@dataclass(frozen=True)
class PlacedSource:
    """A pressure waveform (referenced to 1 m) at a spatial position."""

    pressure_at_1m: Signal
    position: Position

    def __post_init__(self) -> None:
        if self.pressure_at_1m.unit != Unit.PASCAL:
            raise SignalDomainError(
                "PlacedSource requires a pressure waveform in pascals, "
                f"got unit {self.pressure_at_1m.unit!r}"
            )


@dataclass
class AcousticChannel:
    """Propagates multiple sources to one receiving point.

    Parameters
    ----------
    room:
        Optional rectangular room; when given, first-order reflections
        are included and positions are validated against the room.
        When ``None`` the channel is free field (direct path only).
    propagation:
        Point-to-point propagation model shared by all paths.
    ambient_noise_spl:
        SPL of the background noise floor added at the receiver,
        dB SPL. Quiet rooms are ~35-45 dB SPL. ``None`` disables noise
        (useful for deterministic analyses).
    """

    room: Room | None = None
    propagation: PropagationModel = field(default_factory=PropagationModel)
    ambient_noise_spl: float | None = 40.0

    def receive(
        self,
        sources: list[PlacedSource],
        receiver: Position,
        rng: np.random.Generator | None = None,
    ) -> Signal:
        """Pressure waveform arriving at ``receiver`` from all sources.

        Parameters
        ----------
        sources:
            Placed source waveforms; all must share one sample rate.
        receiver:
            Microphone position.
        rng:
            Random generator for the ambient noise. Required when
            ``ambient_noise_spl`` is set, to keep runs reproducible.
        """
        return self.add_ambient(self.transmit(sources, receiver), rng)

    def add_ambient(
        self, total: Signal, rng: np.random.Generator | None
    ) -> Signal:
        """Add one trial's ambient-noise draw to a clean waveform.

        The stochastic half of :meth:`receive`, exposed so callers
        that assemble the clean waveform themselves (attack, motion
        and interference contributions summed first) add noise through
        the *same* code path and draw; the trial pipeline calls it once
        per trial for a subclassed channel.
        """
        if self.ambient_noise_spl is None:
            return total
        if rng is None:
            raise SignalDomainError(
                "ambient noise enabled but no random generator given; "
                "pass rng or set ambient_noise_spl=None"
            )
        return total + self._ambient_noise(total, rng)

    def transmit(
        self, sources: list[PlacedSource], receiver: Position
    ) -> Signal:
        """The deterministic arrived pressure: all sources, no noise.

        This is the trial-invariant half of :meth:`receive` — for a
        fixed emission and geometry every trial shares this waveform,
        which is why the trial pipeline computes it exactly once per
        trial group. One loop folds each source's arrival into a
        running total, in source order: the zero-padded left fold of
        :func:`~repro.dsp.signals.mix`, so the result is bitwise
        ``mix`` of the per-source arrivals. Only the running sum and
        one arrival are alive at a time, so the working set is a few
        waveforms whatever the speaker count. A room with the stock
        :class:`PropagationModel` fans each source over its direct and
        image paths in one
        :meth:`~repro.acoustics.room.ImageSourceRoomModel.transmit_batch`
        call; a subclassed propagation model keeps its overridden
        ``propagate`` on the per-path scalar walk.
        """
        if not sources:
            raise SignalDomainError("transmit requires at least one source")
        rates = {s.pressure_at_1m.sample_rate for s in sources}
        if len(rates) != 1:
            raise SignalDomainError(
                f"all sources must share one sample rate, got {sorted(rates)}"
            )
        total: Signal | None = None
        for source in sources:
            arrived = self._transmit_one(
                source.pressure_at_1m, source.position, receiver
            )
            total = arrived if total is None else total + arrived
        return total

    def ambient_batch(
        self,
        clean: Signal | SignalBatch,
        rngs: list[np.random.Generator],
    ) -> SignalBatch:
        """Per-trial ambient-noise copies of the transmitted waveform.

        The stacked counterpart of :meth:`add_ambient`: the trial
        pipeline pays for :meth:`transmit` once and then streams trial
        chunks through here with bounded memory. ``clean``
        is either one shared waveform (static scenarios — every trial
        hears the same transmission) or an already-stacked
        ``(n_trials, n_samples)`` batch (mobile scenarios — each row
        carries that trial's geometry gain). Row ``i`` of the result
        is bitwise ``add_ambient(row_i, rngs[i])``.
        """
        if not rngs:
            raise SignalDomainError(
                "ambient_batch requires at least one trial generator"
            )
        if isinstance(clean, SignalBatch) and clean.n_signals != len(rngs):
            raise SignalDomainError(
                f"{clean.n_signals} stacked clean waveforms but "
                f"{len(rngs)} trial generators"
            )
        if self.ambient_noise_spl is not None and any(
            rng is None for rng in rngs
        ):
            raise SignalDomainError(
                "ambient noise enabled but a trial generator is None; "
                "pass one seeded generator per trial or set "
                "ambient_noise_spl=None"
            )
        if self.ambient_noise_spl is None:
            if isinstance(clean, SignalBatch):
                return clean
            return SignalBatch.tiled(clean, len(rngs))
        from repro.acoustics.spl import spl_to_pressure

        rms_pa = spl_to_pressure(self.ambient_noise_spl)
        n = clean.n_samples
        n_draw = int(round(clean.duration * clean.sample_rate))
        rows = np.empty((len(rngs), n), dtype=clean.samples.dtype)
        for index, rng in enumerate(rngs):
            draw = rng.normal(0.0, 1.0, n_draw)
            np.multiply(draw, rms_pa, out=draw)
            if n_draw == n:
                noise = draw
            else:
                noise = np.zeros(n)
                noise[:n_draw] = draw
            row = (
                clean.samples[index]
                if isinstance(clean, SignalBatch)
                else clean.samples
            )
            np.add(row, noise, out=rows[index])
        return SignalBatch.adopt(rows, clean.sample_rate, Unit.PASCAL)

    def _transmit_one(
        self, pressure_at_1m: Signal, source: Position, receiver: Position
    ) -> Signal:
        """One source's arrival at ``receiver``, all paths summed."""
        if self.room is not None:
            model = ImageSourceRoomModel(
                room=self.room, propagation=self.propagation
            )
            if type(self.propagation) is PropagationModel:
                return model.transmit_batch(pressure_at_1m, source, receiver)
            return model.transmit(pressure_at_1m, source, receiver)
        d = source.distance_to(receiver)
        if d == 0.0:
            raise GeometryError(
                "source and receiver are coincident; no propagation "
                "path exists"
            )
        return self.propagation.propagate(pressure_at_1m, d)

    def _ambient_noise(
        self, template: Signal, rng: np.random.Generator
    ) -> Signal:
        from repro.acoustics.spl import spl_to_pressure

        rms_pa = spl_to_pressure(self.ambient_noise_spl)
        return white_noise(
            duration=template.duration,
            sample_rate=template.sample_rate,
            rng=rng,
            rms_level=rms_pa,
            unit=Unit.PASCAL,
        ).padded_to(template.n_samples)
