"""First-order image-source model of a rectangular room.

Reflections matter to the reproduction in a specific way: the victim's
microphone receives not just the direct ultrasonic wave but six
first-order wall reflections, each with its own delay and absorption.
These copies intermodulate at the microphone's nonlinearity exactly
like direct waves do, adding reverberant colouring to the demodulated
command — one of the effects the recogniser-accuracy-vs-distance
curves inherit. First-order images capture the dominant reflections;
higher orders are strongly suppressed at ultrasound because every
extra bounce costs wall absorption *and* metres of air absorption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.acoustics.geometry import Position, Room
from repro.acoustics.propagation import PropagationModel
from repro.dsp.signals import Signal, mix
from repro.errors import GeometryError


@dataclass(frozen=True)
class Path:
    """One acoustic path between a source and a receiver.

    Attributes
    ----------
    distance_m:
        Total travelled distance.
    reflection_count:
        Number of wall bounces (0 for the direct path).
    amplitude_factor:
        Pressure multiplier from wall reflections (1.0 for direct).
    """

    distance_m: float
    reflection_count: int
    amplitude_factor: float


@dataclass
class ImageSourceRoomModel:
    """Direct path plus first-order reflections in a box room.

    Parameters
    ----------
    room:
        The rectangular room (geometry + wall absorption).
    propagation:
        The point-to-point propagation model used for every path.
    include_reflections:
        When ``False`` the model reduces to free-field propagation —
        used by tests and by anechoic ablations.
    """

    room: Room
    propagation: PropagationModel = field(default_factory=PropagationModel)
    include_reflections: bool = True

    def paths(self, source: Position, receiver: Position) -> list[Path]:
        """Enumerate the direct path and the six first-order images."""
        self.room.require_inside(source, "source")
        self.room.require_inside(receiver, "receiver")
        direct = source.distance_to(receiver)
        if direct == 0.0:
            raise GeometryError(
                "source and receiver are coincident; no propagation "
                "path exists"
            )
        result = [
            Path(distance_m=direct, reflection_count=0, amplitude_factor=1.0)
        ]
        if not self.include_reflections:
            return result
        reflection_gain = self.room.reflection_amplitude()
        planes = (
            ("x", 0.0),
            ("x", self.room.length_m),
            ("y", 0.0),
            ("y", self.room.width_m),
            ("z", 0.0),
            ("z", self.room.height_m),
        )
        for axis, coordinate in planes:
            image = source.mirrored(axis, coordinate)
            d = image.distance_to(receiver)
            result.append(
                Path(
                    distance_m=d,
                    reflection_count=1,
                    amplitude_factor=reflection_gain,
                )
            )
        return result

    def transmit(
        self, pressure_at_1m: Signal, source: Position, receiver: Position
    ) -> Signal:
        """Propagate a source waveform to the receiver over all paths."""
        contributions = []
        for path in self.paths(source, receiver):
            received = self.propagation.propagate(
                pressure_at_1m, path.distance_m
            )
            contributions.append(received * path.amplitude_factor)
        return mix(contributions)

    def transmit_batch(
        self, pressure_at_1m: Signal, source: Position, receiver: Position
    ) -> Signal:
        """:meth:`transmit` through the fan-out propagation kernel.

        The direct path and the six first-order images go through one
        :meth:`~repro.acoustics.propagation.PropagationModel.propagate_batch`
        call — one forward FFT of the source, broadcast over the
        reflection fan — and the rows are folded in path order with
        their wall amplitude factors. Because ``propagate_batch`` is
        bitwise identical per row to ``propagate`` and the fold
        replicates :func:`~repro.dsp.signals.mix`'s zero-padded left
        fold, the result is bitwise identical to :meth:`transmit`.
        Memory is one ``(n_paths, n)`` fan for this source; the
        acoustic channel calls this once per source and folds the
        arrivals, so a speaker array never stacks.

        Only valid for the stock :class:`PropagationModel`: a subclass
        overriding ``propagate`` would be silently bypassed here, so
        callers (the acoustic channel) must route subclassed models
        through the scalar path.
        """
        paths = self.paths(source, receiver)
        arrived = self.propagation.propagate_batch(
            pressure_at_1m, [path.distance_m for path in paths]
        )
        total = arrived[0] * paths[0].amplitude_factor
        for row, path in zip(arrived[1:], paths[1:]):
            total = np.add(total, row * path.amplitude_factor)
        return Signal(
            total, pressure_at_1m.sample_rate, pressure_at_1m.unit
        )
