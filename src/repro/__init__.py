"""repro — Inaudible Voice Commands: The Long-Range Attack and Defense.

A full-system Python reproduction of the NSDI 2018 paper: the
nonlinearity-based inaudible command injection attack, the multi-speaker
long-range variant, and the trace-based software defense — together
with every substrate they need (DSP, acoustic propagation,
psychoacoustics, hardware models, speech synthesis and recognition).

Quickstart::

    import numpy as np
    from repro import (
        AcousticChannel, Position, SingleSpeakerAttacker,
        android_phone_microphone, horn_tweeter, synthesize_command,
    )

    rng = np.random.default_rng(0)
    voice = synthesize_command("ok_google", rng)
    attacker = SingleSpeakerAttacker(horn_tweeter(), Position(0, 0, 1))
    emission = attacker.emit(voice)
    channel = AcousticChannel()
    arrived = channel.receive(list(emission.sources), Position(2, 0, 1), rng)
    recording = android_phone_microphone().record(arrived, rng)
    # `recording` now contains the demodulated, audible voice command —
    # although nothing audible was ever played.

See DESIGN.md for the architecture and EXPERIMENTS.md for the
reproduced evaluation.
"""

from repro.errors import (
    AttackConfigError,
    DefenseError,
    ExperimentError,
    FilterDesignError,
    GeometryError,
    HardwareModelError,
    ModulationError,
    RecognitionError,
    ReproError,
    SampleRateError,
    SignalDomainError,
    SynthesisError,
)
from repro.dsp import Signal, Unit
from repro.acoustics import (
    AcousticChannel,
    PlacedSource,
    Position,
    Room,
)
from repro.hardware import (
    Microphone,
    UltrasonicSpeaker,
    amazon_echo_microphone,
    android_phone_microphone,
    horn_tweeter,
    ideal_linear_microphone,
    ultrasonic_piezo_element,
)
from repro.speech import (
    COMMAND_CORPUS,
    KeywordRecognizer,
    synthesize_command,
)
from repro.attack import (
    AttackPipeline,
    AttackPipelineConfig,
    AudiblePlaybackAttacker,
    LongRangeAttacker,
    SingleSpeakerAttacker,
    SpectralSplitter,
    grid_array,
    linear_array,
)
from repro.defense import (
    DatasetConfig,
    InaudibleVoiceDetector,
    build_dataset,
)
from repro.sim import ExperimentEngine, Scenario, VictimDevice

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SampleRateError",
    "SignalDomainError",
    "FilterDesignError",
    "ModulationError",
    "GeometryError",
    "HardwareModelError",
    "SynthesisError",
    "RecognitionError",
    "AttackConfigError",
    "DefenseError",
    "ExperimentError",
    # dsp
    "Signal",
    "Unit",
    # acoustics
    "AcousticChannel",
    "PlacedSource",
    "Position",
    "Room",
    # hardware
    "Microphone",
    "UltrasonicSpeaker",
    "android_phone_microphone",
    "amazon_echo_microphone",
    "ideal_linear_microphone",
    "ultrasonic_piezo_element",
    "horn_tweeter",
    # speech
    "COMMAND_CORPUS",
    "synthesize_command",
    "KeywordRecognizer",
    # attack
    "AttackPipeline",
    "AttackPipelineConfig",
    "SingleSpeakerAttacker",
    "LongRangeAttacker",
    "SpectralSplitter",
    "AudiblePlaybackAttacker",
    "linear_array",
    "grid_array",
    # defense
    "InaudibleVoiceDetector",
    "DatasetConfig",
    "build_dataset",
    # sim
    "ExperimentEngine",
    "Scenario",
    "VictimDevice",
]
