"""Unit and equivalence tests for the stacked trial executor.

The contract under test is strict: the pipeline's chunked executor
must be *bitwise* identical to the per-trial reference
(:func:`differential.reference_trials`, one-signal primitives only) —
same successes, same DTW distances, same recorded waveforms — at every
chunk size, and subclassed hardware, channel and recogniser models
must keep their overridden per-trial behaviour through the per-row
adapter stages.
"""

from dataclasses import replace as dc_replace

import numpy as np
import pytest

from differential import outcomes_identical, reference_trials
from repro.acoustics.channel import AcousticChannel
from repro.dsp.signals import Signal, SignalBatch
from repro.errors import ExperimentError, SignalDomainError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments._emissions import ATTACKER_POSITION, single_full
from repro.hardware.microphone import Microphone
from repro.hardware.nonlinearity import PolynomialNonlinearity
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
from repro.sim.pipeline import CHUNK_TRIALS, build_pipeline
from repro.sim.scenario import Scenario, VictimDevice
from repro.speech.recognizer import KeywordRecognizer


@pytest.fixture(scope="module")
def phone_device():
    return VictimDevice.phone(commands=("ok_google",), seed=91)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        command="ok_google",
        attacker_position=ATTACKER_POSITION,
        victim_position=ATTACKER_POSITION.translated(2.0, 0.0, 0.0),
    )


@pytest.fixture(scope="module")
def emission_spec():
    return EmissionSpec(single_full, ("ok_google", 5))


def run_group(group, rngs, keep_recordings=True, chunk_trials=CHUNK_TRIALS):
    """One group's trials through its pipeline, as the engine worker runs them."""
    pipeline = build_pipeline(
        group.scenario, group.device, keep_recordings=keep_recordings
    )
    ctx = pipeline.context(group.resolve_sources())
    return pipeline.run_trials(ctx, rngs, chunk_trials=chunk_trials)


def reference_group(group, rngs):
    return reference_trials(
        group.scenario, group.device, group.resolve_sources(), rngs
    )


class TestSignalBatch:
    def test_rejects_one_dimensional_input(self):
        with pytest.raises(SignalDomainError, match="2-D"):
            SignalBatch(np.zeros(8), 100.0)

    def test_signal_rejects_batch_shaped_input(self):
        with pytest.raises(SignalDomainError, match="SignalBatch"):
            Signal(np.zeros((2, 8)), 100.0)

    def test_from_signals_rejects_mixed_lengths(self):
        with pytest.raises(SignalDomainError, match="equal lengths"):
            SignalBatch.from_signals(
                [Signal(np.zeros(8), 100.0), Signal(np.zeros(9), 100.0)]
            )

    def test_from_signals_rejects_mixed_rates(self):
        from repro.errors import SampleRateError

        with pytest.raises(SampleRateError):
            SignalBatch.from_signals(
                [Signal(np.zeros(8), 100.0), Signal(np.zeros(8), 200.0)]
            )

    def test_tiled_rows_round_trip(self):
        source = Signal(np.arange(5, dtype=float), 10.0)
        batch = SignalBatch.tiled(source, 3)
        assert batch.n_signals == 3
        assert batch.n_samples == 5
        for row in batch.signals():
            assert np.array_equal(row.samples, source.samples)
            assert row.sample_rate == source.sample_rate

    def test_row_index_validated(self):
        batch = SignalBatch(np.zeros((2, 4)), 10.0)
        with pytest.raises(SignalDomainError):
            batch.row(2)

    def test_duration_uses_last_axis(self):
        batch = SignalBatch(np.zeros((7, 100)), 50.0)
        assert batch.duration == pytest.approx(2.0)
        assert len(batch) == 7


class TestKernelEquivalence:
    @pytest.fixture(scope="class")
    def pair(self, scenario, phone_device, emission_spec):
        group = TrialGroup(scenario, phone_device, emission_spec, 3)
        reference = reference_group(
            group, np.random.default_rng(5).spawn(3)
        )
        batched = run_group(group, np.random.default_rng(5).spawn(3))
        return reference, batched

    def test_outcomes_bitwise_identical(self, pair):
        reference, batched = pair
        assert outcomes_identical(reference, batched)

    def test_batch_of_one_is_exactly_the_reference(
        self, scenario, phone_device, emission_spec
    ):
        group = TrialGroup(scenario, phone_device, emission_spec, 1)
        (rng_a,) = np.random.default_rng(11).spawn(1)
        (rng_b,) = np.random.default_rng(11).spawn(1)
        (reference,) = reference_group(group, [rng_a])
        (batched,) = run_group(group, [rng_b], chunk_trials=1)
        assert outcomes_identical([reference], [batched])

    def test_keep_recordings_false_strips_only_waveforms(
        self, scenario, phone_device, emission_spec, pair
    ):
        group = TrialGroup(scenario, phone_device, emission_spec, 3)
        stripped = run_group(
            group,
            np.random.default_rng(5).spawn(3),
            keep_recordings=False,
        )
        assert all(o.recording is None for o in stripped)
        assert outcomes_identical(
            pair[1], stripped, compare_recordings=False
        )

    def test_empty_generator_list_rejected(
        self, scenario, phone_device, emission_spec
    ):
        group = TrialGroup(scenario, phone_device, emission_spec, 1)
        with pytest.raises(ExperimentError):
            run_group(group, [])


class _CountingMicrophone(Microphone):
    """A microphone subclass that counts its ``record`` calls."""

    def __init__(self, config):
        super().__init__(config)
        self.calls = 0

    def record(self, pressure, rng=None):
        self.calls += 1
        return super().record(pressure, rng)


class _CountingNonlinearity(PolynomialNonlinearity):
    """A nonlinearity subclass that counts its transfer calls."""

    calls: list = []

    def apply_array(self, x):
        self.calls.append(np.shape(x))
        return super().apply_array(x)


class _CountingChannel(AcousticChannel):
    """A channel subclass that counts its ambient draws."""

    calls: list = []

    def add_ambient(self, total, rng):
        self.calls.append(total.n_samples)
        return super().add_ambient(total, rng)


class _CountingChannelScenario(Scenario):
    """A scenario whose channel is the counting subclass."""

    def channel(self):
        stock = super().channel()
        return _CountingChannel(
            room=stock.room,
            propagation=stock.propagation,
            ambient_noise_spl=stock.ambient_noise_spl,
        )


class _TaggedScenario(Scenario):
    """A scenario subclass that keeps the stock channel."""


class _CountingRecognizer(KeywordRecognizer):
    """A recogniser subclass that counts its ``recognize`` calls."""

    calls = 0

    def recognize(self, recording):
        type(self).calls += 1
        return super().recognize(recording)


def _device(phone_device, microphone=None, recognizer=None):
    return VictimDevice(
        name="custom",
        microphone=microphone or phone_device.microphone,
        recognizer=recognizer or phone_device.recognizer,
    )


class TestSubclassAdapters:
    """Overridden per-trial methods run once per trial, bitwise."""

    N_TRIALS = 3

    def _check(self, group, chunk_trials=2):
        """Pipeline == reference; returns the pipeline's outcomes."""
        rngs = np.random.default_rng(9).spawn(self.N_TRIALS)
        reference = reference_group(
            group, np.random.default_rng(9).spawn(self.N_TRIALS)
        )
        outcomes = run_group(group, rngs, chunk_trials=chunk_trials)
        assert outcomes_identical(reference, outcomes)
        return outcomes

    def test_stock_group_takes_the_stacked_stages(
        self, scenario, phone_device
    ):
        names = build_pipeline(scenario, phone_device).stage_names()
        assert "microphone" in names and "adc" in names
        assert "record" not in names

    def test_subclassed_microphone_records_once_per_trial(
        self, scenario, phone_device, emission_spec
    ):
        microphone = _CountingMicrophone(phone_device.microphone.config)
        device = _device(phone_device, microphone=microphone)
        group = TrialGroup(scenario, device, emission_spec, self.N_TRIALS)
        assert "record" in build_pipeline(scenario, device).stage_names()
        rngs = np.random.default_rng(9).spawn(self.N_TRIALS)
        outcomes = run_group(group, rngs, chunk_trials=2)
        assert microphone.calls == self.N_TRIALS
        assert outcomes_identical(
            reference_group(
                group, np.random.default_rng(9).spawn(self.N_TRIALS)
            ),
            outcomes,
        )

    def test_subclassed_nonlinearity_runs_once_per_trial(
        self, scenario, phone_device, emission_spec
    ):
        config = dc_replace(
            phone_device.microphone.config,
            nonlinearity=_CountingNonlinearity((1.0, 0.05, 0.005)),
        )
        device = _device(phone_device, microphone=Microphone(config))
        group = TrialGroup(scenario, device, emission_spec, self.N_TRIALS)
        assert "record" in build_pipeline(scenario, device).stage_names()
        _CountingNonlinearity.calls.clear()
        run_group(
            group, np.random.default_rng(9).spawn(self.N_TRIALS)
        )
        # One one-dimensional transfer per trial: the override saw
        # single waveforms, never a stacked chunk.
        assert len(_CountingNonlinearity.calls) == self.N_TRIALS
        assert all(len(shape) == 1 for shape in _CountingNonlinearity.calls)
        self._check(group)

    def test_subclassed_channel_adds_ambient_once_per_trial(
        self, scenario, phone_device, emission_spec
    ):
        custom = _CountingChannelScenario(
            command=scenario.command,
            attacker_position=scenario.attacker_position,
            victim_position=scenario.victim_position,
        )
        group = TrialGroup(custom, phone_device, emission_spec, self.N_TRIALS)
        _CountingChannel.calls.clear()
        run_group(
            group, np.random.default_rng(9).spawn(self.N_TRIALS)
        )
        assert len(_CountingChannel.calls) == self.N_TRIALS
        self._check(group)

    def test_subclassed_scenario_with_stock_channel(
        self, scenario, phone_device, emission_spec
    ):
        tagged = _TaggedScenario(
            command=scenario.command,
            attacker_position=scenario.attacker_position,
            victim_position=scenario.victim_position,
        )
        group = TrialGroup(tagged, phone_device, emission_spec, self.N_TRIALS)
        assert (
            build_pipeline(tagged, phone_device).stage_names()
            == build_pipeline(scenario, phone_device).stage_names()
        )
        self._check(group)

    def test_subclassed_recognizer_recognizes_once_per_trial(
        self, scenario, phone_device, emission_spec
    ):
        recognizer = _CountingRecognizer()
        recognizer.__dict__.update(phone_device.recognizer.__dict__)
        device = _device(phone_device, recognizer=recognizer)
        group = TrialGroup(scenario, device, emission_spec, self.N_TRIALS)
        _CountingRecognizer.calls = 0
        run_group(
            group, np.random.default_rng(9).spawn(self.N_TRIALS)
        )
        assert _CountingRecognizer.calls == self.N_TRIALS
        self._check(group)

    def test_engine_chunk_sizes_agree_on_a_subclassed_microphone(
        self, scenario, phone_device, emission_spec
    ):
        microphone = _CountingMicrophone(phone_device.microphone.config)
        device = _device(phone_device, microphone=microphone)
        group = TrialGroup(scenario, device, emission_spec, 2)

        def run(batch):
            with ExperimentEngine(jobs=1, batch=batch) as engine:
                return engine.run_trial_groups(
                    [group], np.random.default_rng(9)
                )[0]

        assert outcomes_identical(run(True), run(False))
        assert microphone.calls == 4


class TestEngineBatchFlag:
    def test_non_boolean_batch_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentEngine(jobs=1, batch="yes")

    def test_batch_defaults_on(self):
        assert ExperimentEngine(jobs=1).batch is True

    def test_per_call_override(
        self, scenario, phone_device, emission_spec
    ):
        group = TrialGroup(scenario, phone_device, emission_spec, 2)
        with ExperimentEngine(jobs=1, batch=False) as engine:
            default_off = engine.run_trial_groups(
                [group], np.random.default_rng(21)
            )[0]
            forced_on = engine.run_trial_groups(
                [group], np.random.default_rng(21), batch=True
            )[0]
        assert outcomes_identical(default_off, forced_on)


class TestAllExperimentsEquivalence:
    """Chunk size is invisible to every table: chunks of 16 == of 1."""

    @pytest.fixture(scope="class")
    def chunk_one_tables(self):
        with ExperimentEngine(jobs=1, batch=False) as engine:
            return {
                name: module.run(quick=True, seed=0, engine=engine)
                for name, module in ALL_EXPERIMENTS.items()
            }

    @pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
    def test_chunk_sizes_render_identically(
        self, name, experiment_tables, chunk_one_tables
    ):
        assert (
            experiment_tables[name].render()
            == chunk_one_tables[name].render()
        )
