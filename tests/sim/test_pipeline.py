"""Unit and property tests for the declarative trial pipeline.

Three groups of guarantees:

* **stage ordering** — :func:`build_pipeline` declares the canonical
  list (transmit -> motion-gain -> [interference] -> ambient ->
  microphone -> adc -> recognize), conditionally shaped by the
  scenario's data and the caller's options, and there is no second
  statement of that order anywhere;
* **per-row adapters** — a subclassed microphone, nonlinearity or
  channel gets a stage that calls its overridden per-trial method on
  each row of a chunk, with that row's own generator;
* **executor equivalence** — for *arbitrary* stage lists (hypothesis:
  random compositions of deterministic and draw-consuming stages) the
  chunked executor reproduces a row-at-a-time reference bitwise, at
  every trial count and chunk size.

The executor's stage spans (``mode``/``trials`` attributes, reduced
by :func:`repro.obs.report.stage_rows`) and the batched recogniser's
agreement with the per-trial reference are pinned at the end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import reference_trials
from repro.acoustics.channel import AcousticChannel
from repro.errors import ExperimentError
from repro.experiments._emissions import ATTACKER_POSITION, single_full
from repro.hardware.microphone import Microphone
from repro.obs.report import render_stage_rows, stage_rows
from repro.obs.trace import Tracer, activate
from repro.sim.cache import EmissionCache
from repro.sim.engine import EmissionSpec, TrialGroup
from repro.sim.pipeline import (
    CHUNK_TRIALS,
    Stage,
    TrialContext,
    TrialPipeline,
    build_pipeline,
    level_stage,
)
from repro.sim.scenario import Scenario, VictimDevice
from repro.sim.spec import get_scenario


@pytest.fixture(scope="module")
def phone_device():
    return VictimDevice.phone(commands=("ok_google",), seed=91)


@pytest.fixture(scope="module")
def emission_sources():
    return list(EmissionSpec(single_full, ("ok_google", 5)).sources())


class TestStageOrdering:
    def test_free_field_stage_list(self, phone_device):
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        pipeline = build_pipeline(scenario, phone_device)
        assert pipeline.stage_names() == (
            "transmit",
            "motion-gain",
            "ambient",
            "microphone",
            "adc",
            "recognize",
        )

    def test_interference_scene_inserts_interference_stage(
        self, phone_device
    ):
        scenario = get_scenario("tv_interference").build("ok_google", 2.0)
        pipeline = build_pipeline(scenario, phone_device)
        assert pipeline.stage_names() == (
            "transmit",
            "motion-gain",
            "interference",
            "ambient",
            "microphone",
            "adc",
            "recognize",
        )

    def test_recording_pipeline_ends_at_the_adc(self, phone_device):
        scenario = get_scenario("living_room").build("ok_google", 2.0)
        pipeline = build_pipeline(
            scenario, phone_device.microphone, recognize=False
        )
        assert pipeline.stage_names()[-1] == "adc"
        assert "recognize" not in pipeline.stage_names()

    def test_gain_stage_inserted_after_transmit(self, phone_device):
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        pipeline = build_pipeline(
            scenario,
            phone_device.microphone,
            recognize=False,
            gain_stage=level_stage(55.0, 68.0, 60.0),
        )
        names = pipeline.stage_names()
        assert names.index("talker-level") == names.index("transmit") + 1

    def test_bare_microphone_cannot_recognize(self, phone_device):
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        with pytest.raises(ExperimentError, match="cannot recognise"):
            build_pipeline(scenario, phone_device.microphone)

    def test_duplicate_stage_names_rejected(self):
        stage = Stage("x", lambda ctx, v, rngs: v)
        with pytest.raises(ExperimentError, match="unique"):
            TrialPipeline([stage, stage])

    def test_empty_stage_list_rejected(self):
        with pytest.raises(ExperimentError, match="at least one"):
            TrialPipeline([])


class _RecordingChannel(AcousticChannel):
    """A channel subclass noting which generator each draw came from."""

    seen: list = []

    def add_ambient(self, total, rng):
        self.seen.append(rng)
        return super().add_ambient(total, rng)


class _RecordingChannelScenario(Scenario):
    def channel(self):
        stock = super().channel()
        return _RecordingChannel(
            room=stock.room,
            propagation=stock.propagation,
            ambient_noise_spl=stock.ambient_noise_spl,
        )


def _custom_device(phone_device, microphone):
    return VictimDevice(
        name="custom",
        microphone=microphone,
        recognizer=phone_device.recognizer,
    )


class TestAdapterStages:
    def test_stock_pipeline_has_no_adapter_stage(self, phone_device):
        scenario = get_scenario("living_room").build("ok_google", 2.0)
        names = build_pipeline(scenario, phone_device).stage_names()
        assert "record" not in names
        assert names[-3:] == ("microphone", "adc", "recognize")

    def test_stage_carries_one_kernel(self):
        stage = Stage("x", lambda ctx, v, rngs: v)
        assert stage.kernel(None, 3.0, []) == 3.0
        with pytest.raises(TypeError):
            Stage("x", lambda ctx, v, rngs: v, lambda ctx, v, rng: v)

    def test_subclassed_microphone_collapses_to_record_stage(
        self, phone_device
    ):
        class _CustomMicrophone(Microphone):
            pass

        scenario = get_scenario("free_field").build("ok_google", 2.0)
        device = _custom_device(
            phone_device, _CustomMicrophone(phone_device.microphone.config)
        )
        pipeline = build_pipeline(scenario, device)
        assert "record" in pipeline.stage_names()
        assert "adc" not in pipeline.stage_names()

    def test_unenrolled_command_rejected_at_construction(
        self, phone_device
    ):
        # phone_device only enrolled "ok_google": an attack pipeline
        # for "alexa" can never run, but its recording-only pipeline
        # builds, because recording does not need the template.
        scenario = get_scenario("free_field").build("alexa", 2.0)
        with pytest.raises(ExperimentError, match="no template"):
            build_pipeline(scenario, phone_device)
        pipeline = build_pipeline(
            scenario, phone_device.microphone, recognize=False
        )
        assert pipeline.stage_names()[-1] == "adc"

    def test_adapter_rows_draw_from_their_own_generators(
        self, phone_device, emission_sources
    ):
        stock = get_scenario("free_field").build("ok_google", 2.0)
        scenario = _RecordingChannelScenario(
            command=stock.command,
            attacker_position=stock.attacker_position,
            victim_position=stock.victim_position,
        )
        pipeline = build_pipeline(
            scenario, phone_device.microphone, recognize=False
        )
        ctx = pipeline.context(emission_sources)
        rngs = np.random.default_rng(3).spawn(5)
        _RecordingChannel.seen.clear()
        pipeline.run_trials(ctx, rngs, chunk_trials=2)
        assert [id(rng) for rng in _RecordingChannel.seen] == [
            id(rng) for rng in rngs
        ]

    def test_adapter_stage_is_chunk_size_invariant(
        self, phone_device, emission_sources
    ):
        class _CustomMicrophone(Microphone):
            pass

        scenario = get_scenario("walking_attacker").build("ok_google", 2.0)
        device = _custom_device(
            phone_device, _CustomMicrophone(phone_device.microphone.config)
        )
        pipeline = build_pipeline(scenario, device)
        ctx = pipeline.context(emission_sources)
        runs = [
            pipeline.run_trials(
                ctx, np.random.default_rng(3).spawn(3), chunk_trials=chunk
            )
            for chunk in (1, 2, CHUNK_TRIALS)
        ]
        for other in runs[1:]:
            for x, y in zip(runs[0], other):
                assert x.distance == y.distance
                assert np.array_equal(
                    x.recording.samples, y.recording.samples
                )


class TestInvariantPrecompute:
    def test_interference_bed_cached_and_bounded(
        self, phone_device, emission_sources
    ):
        scenario = get_scenario("tv_interference").build("ok_google", 2.0)
        pipeline = build_pipeline(scenario, phone_device)
        assert isinstance(pipeline.invariants, EmissionCache)
        assert pipeline.invariants.max_entries <= 8  # bounded
        ctx_a = pipeline.context(emission_sources)
        ctx_b = pipeline.context(emission_sources)
        # One transmission of the bed, shared by every later context.
        assert pipeline.invariants.stats.misses == 1
        assert pipeline.invariants.stats.hits == 1
        assert ctx_a.clean_interference is ctx_b.clean_interference

    def test_each_pipeline_gets_a_private_bounded_cache(
        self, phone_device
    ):
        scenario = get_scenario("tv_interference").build("ok_google", 2.0)
        a = build_pipeline(scenario, phone_device)
        b = build_pipeline(scenario, phone_device)
        assert a.invariants is not b.invariants
        assert a.invariants.max_entries <= 8
        assert b.invariants.max_entries <= 8

    def test_free_field_context_skips_the_bed(
        self, phone_device, emission_sources
    ):
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(emission_sources)
        assert ctx.clean_interference is None
        assert len(pipeline.invariants) == 0

    def test_empty_sources_rejected(self, phone_device):
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        pipeline = build_pipeline(scenario, phone_device)
        with pytest.raises(ExperimentError, match="at least one source"):
            pipeline.context([])

    def test_synthetic_pipeline_has_no_context(self):
        pipeline = TrialPipeline(
            [Stage("x", lambda ctx, v, rngs: [0.0] * len(rngs))]
        )
        with pytest.raises(ExperimentError, match="context builder"):
            pipeline.context([object()])


# ----------------------------------------------------------------------
# Executor equivalence on randomized stage lists
# ----------------------------------------------------------------------

_BASE = np.linspace(-1.0, 1.0, 64)


def _inject() -> Stage:
    return Stage(
        "inject", lambda ctx, v, rngs: np.tile(_BASE, (len(rngs), 1))
    )


def _scale(index: int, factor: float) -> Stage:
    return Stage(f"scale-{index}", lambda ctx, v, rngs: v * factor)


def _offset(index: int, amount: float) -> Stage:
    return Stage(f"offset-{index}", lambda ctx, v, rngs: v + amount)


def _noise(index: int) -> Stage:
    """A draw-consuming stage: one normal vector per trial generator."""

    def kernel(ctx, v, rngs):
        out = np.empty_like(v)
        for row, rng in enumerate(rngs):
            out[row] = v[row] + rng.normal(0.0, 1.0, v.shape[-1])
        return out

    return Stage(f"noise-{index}", kernel)


def _build_random_stages(spec: list[tuple[str, float]]) -> list[Stage]:
    stages = [_inject()]
    for index, (kind, parameter) in enumerate(spec):
        if kind == "scale":
            stages.append(_scale(index, parameter))
        elif kind == "offset":
            stages.append(_offset(index, parameter))
        else:
            stages.append(_noise(index))
    return stages


def _one_trial(spec: list[tuple[str, float]], rng) -> np.ndarray:
    """The same stage list written out for one trial, no executor."""
    value = _BASE.copy()
    for kind, parameter in spec:
        if kind == "scale":
            value = value * parameter
        elif kind == "offset":
            value = value + parameter
        else:
            value = value + rng.normal(0.0, 1.0, value.shape[-1])
    return value


class TestExecutorEquivalence:
    @given(
        spec=st.lists(
            st.tuples(
                st.sampled_from(["scale", "offset", "noise"]),
                st.floats(
                    min_value=-2.0,
                    max_value=2.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            min_size=0,
            max_size=6,
        ),
        n_trials=st.integers(min_value=1, max_value=10),
        chunk_trials=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_executor_bitwise_equals_one_trial_reference(
        self, spec, n_trials, chunk_trials, seed
    ):
        """Chunked executor == row-at-a-time reference, any stage list."""
        pipeline = TrialPipeline(_build_random_stages(spec))
        ctx = TrialContext(clean_attack=None)
        reference = [
            _one_trial(spec, rng)
            for rng in np.random.default_rng(seed).spawn(n_trials)
        ]
        batched = pipeline.run_trials(
            ctx,
            np.random.default_rng(seed).spawn(n_trials),
            chunk_trials=chunk_trials,
        )
        assert len(batched) == n_trials
        for row, expected in zip(batched, reference):
            assert np.array_equal(row, expected)

    def test_run_trials_rejects_empty_generators(self):
        pipeline = TrialPipeline([_inject()])
        with pytest.raises(ExperimentError, match=">= 1"):
            pipeline.run_trials(TrialContext(None), [])

    def test_run_trials_rejects_bad_chunking(self):
        pipeline = TrialPipeline([_inject()])
        with pytest.raises(ExperimentError, match="chunk_trials"):
            pipeline.run_trials(
                TrialContext(None),
                np.random.default_rng(0).spawn(2),
                chunk_trials=0,
            )

    def test_final_stage_must_produce_rows(self):
        pipeline = TrialPipeline(
            [
                Stage(
                    "broken", lambda ctx, v, rngs: 1.0  # not per-trial
                )
            ]
        )
        with pytest.raises(ExperimentError, match="final stage"):
            pipeline.run_trials(
                TrialContext(None), np.random.default_rng(0).spawn(2)
            )

    def test_row_count_mismatch_rejected(self):
        pipeline = TrialPipeline(
            [
                Stage(
                    "short", lambda ctx, v, rngs: [1.0]  # one row short
                )
            ]
        )
        with pytest.raises(ExperimentError, match="rows"):
            pipeline.run_trials(
                TrialContext(None), np.random.default_rng(0).spawn(2)
            )


class TestLevelStage:
    def test_inverted_range_rejected(self):
        with pytest.raises(ExperimentError, match="inverted"):
            level_stage(70.0, 60.0, 60.0)

    def test_capture_receives_levels_in_trial_order(self, phone_device):
        from repro.attack.baselines import AudiblePlaybackAttacker
        from repro.sim.spec import RIG_POSITION
        from repro.speech.commands import synthesize_command

        voice = synthesize_command(
            "ok_google", np.random.default_rng(0)
        )
        sources = list(
            AudiblePlaybackAttacker(RIG_POSITION).emit(voice).sources
        )
        scenario = get_scenario("free_field").build("ok_google", 1.0)
        captured_batch: list[float] = []
        captured_single: list[float] = []
        outcomes = {}
        for label, capture, chunk_trials in (
            ("batch", captured_batch, CHUNK_TRIALS),
            ("single", captured_single, 1),
        ):
            pipeline = build_pipeline(
                scenario,
                phone_device.microphone,
                recognize=False,
                gain_stage=level_stage(
                    55.0, 68.0, 60.0, capture=capture
                ),
            )
            outcomes[label] = pipeline.run_trials(
                pipeline.context(sources),
                np.random.default_rng(7).spawn(4),
                chunk_trials=chunk_trials,
            )
        assert captured_batch == captured_single
        assert len(captured_batch) == 4
        assert all(55.0 <= spl <= 68.0 for spl in captured_batch)
        for x, y in zip(outcomes["batch"], outcomes["single"]):
            assert np.array_equal(x.samples, y.samples)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        command="ok_google",
        attacker_position=ATTACKER_POSITION,
        victim_position=ATTACKER_POSITION.translated(2.0, 0.0, 0.0),
    )


@pytest.fixture(scope="module")
def group(scenario, phone_device):
    return TrialGroup(
        scenario,
        phone_device,
        EmissionSpec(single_full, ("ok_google", 5)),
        4,
    )


def _traced_rows(pipeline, ctx, n_trials, chunk_sizes):
    """Stage rows of one traced ``run_trials`` per chunk size."""
    tracer = Tracer()
    with activate(tracer):
        for chunk_trials in chunk_sizes:
            rngs = np.random.default_rng(7).spawn(n_trials)
            pipeline.run_trials(ctx, rngs, chunk_trials=chunk_trials)
    return stage_rows(tracer.spans)


class TestStageRows:
    def test_every_chunk_size_is_one_mode(
        self, scenario, phone_device, group
    ):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.resolve_sources())
        rows = _traced_rows(
            pipeline, ctx, group.n_trials, (1, CHUNK_TRIALS)
        )
        assert {row["mode"] for row in rows} == {"batch"}
        assert [row["stage"] for row in rows] == list(
            pipeline.stage_names()
        )
        for row in rows:
            # n_trials one-trial chunks, then one chunk of them all.
            assert row["calls"] == group.n_trials + 1
            assert row["trials"] == 2 * group.n_trials

    def test_trial_counts_and_rows(self, scenario, phone_device, group):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.resolve_sources())
        rows = _traced_rows(pipeline, ctx, group.n_trials, (CHUNK_TRIALS,))
        for row in rows:
            assert set(row) == {
                "mode", "stage", "seconds", "calls", "trials",
                "seconds_per_trial",
            }
            assert row["mode"] == "batch"
            assert row["calls"] == 1
            assert row["trials"] == group.n_trials
            assert row["seconds"] >= 0.0
            assert row["seconds_per_trial"] == pytest.approx(
                row["seconds"] / row["trials"]
            )
        rendered = render_stage_rows(rows)
        for row in rows:
            assert row["stage"] in rendered

    def test_rows_accumulate_across_runs(
        self, scenario, phone_device, group
    ):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.resolve_sources())
        rows = _traced_rows(
            pipeline, ctx, group.n_trials, (CHUNK_TRIALS, CHUNK_TRIALS)
        )
        for row in rows:
            assert row["calls"] == 2
            assert row["trials"] == 2 * group.n_trials


class TestOnePrecision:
    """float64 is the only precision; the float32 knobs are gone."""

    def test_recordings_are_float64_at_every_chunk_size(
        self, scenario, phone_device, group
    ):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.resolve_sources())
        for chunk_trials in (1, CHUNK_TRIALS):
            rngs = np.random.default_rng(7).spawn(group.n_trials)
            for outcome in pipeline.run_trials(
                ctx, rngs, chunk_trials=chunk_trials
            ):
                assert outcome.recording.samples.dtype == np.float64

    def test_fast_math_environment_is_ignored(
        self, monkeypatch, scenario, phone_device, group
    ):
        # The retired REPRO_FAST_MATH flag must not change a single
        # sample: a stale setting in a shell or CI job is inert.
        results = {}
        for flag in (None, "1"):
            if flag is None:
                monkeypatch.delenv("REPRO_FAST_MATH", raising=False)
            else:
                monkeypatch.setenv("REPRO_FAST_MATH", flag)
            pipeline = build_pipeline(scenario, phone_device)
            ctx = pipeline.context(group.resolve_sources())
            rngs = np.random.default_rng(7).spawn(group.n_trials)
            results[flag] = pipeline.run_trials(ctx, rngs)
        for plain, flagged in zip(results[None], results["1"]):
            assert plain.success == flagged.success
            assert plain.distance == flagged.distance
            assert np.array_equal(
                plain.recording.samples, flagged.recording.samples
            )

    @pytest.mark.parametrize(
        "entry", ["build_pipeline", "engine", "build_dataset"]
    )
    def test_precision_keyword_is_rejected(
        self, entry, scenario, phone_device
    ):
        # Callers still passing precision="float32" fail loudly rather
        # than silently getting float64 at float64 speed.
        from repro.defense.dataset import DatasetConfig, build_dataset
        from repro.sim.engine import ExperimentEngine

        calls = {
            "build_pipeline": lambda: build_pipeline(
                scenario, phone_device, precision="float32"
            ),
            "engine": lambda: ExperimentEngine(
                jobs=1, precision="float32"
            ),
            "build_dataset": lambda: build_dataset(
                DatasetConfig(commands=("ok_google",)),
                precision="float32",
            ),
        }
        with pytest.raises(TypeError, match="precision"):
            calls[entry]()


class TestRecognizeBatch:
    def test_bitwise_equal_to_scalar(self, scenario, phone_device, group):
        rngs = np.random.default_rng(11).spawn(6)
        reference = reference_trials(
            scenario, phone_device, group.resolve_sources(), rngs
        )
        recognizer = phone_device.recognizer
        recordings = [outcome.recording for outcome in reference]
        batched = recognizer.recognize_batch(recordings)
        for outcome, result in zip(reference, batched):
            assert result.command == outcome.recognized_command
            assert result.distance == outcome.distance
