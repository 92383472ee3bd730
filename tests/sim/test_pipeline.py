"""Unit and property tests for the declarative trial pipeline.

Three groups of guarantees:

* **stage ordering** — :func:`build_pipeline` declares the canonical
  list (transmit -> motion-gain -> [interference] -> ambient ->
  microphone -> adc -> recognize), conditionally shaped by the
  scenario's data and the caller's options, and there is no second
  statement of that order anywhere;
* **BatchSupport folding** — whether a pipeline may take the batched
  path is the fold of its stages' verdicts: the first stage lacking a
  batch kernel, or refusing at construction time, decides and its
  reason survives to the caller;
* **executor equivalence** — for *arbitrary* stage lists (hypothesis:
  random compositions of deterministic and draw-consuming stages) the
  batched executor reproduces the scalar walk bitwise, at every trial
  count and chunk size, because both fold the same stages.

The executor's stage spans (``mode``/``trials`` attributes, reduced
by :func:`repro.obs.report.stage_rows`) and the batched recogniser's
agreement with the scalar walk are pinned at the end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.experiments._emissions import ATTACKER_POSITION, single_full
from repro.hardware.microphone import Microphone
from repro.obs.report import render_stage_rows, stage_rows
from repro.obs.trace import Tracer, activate
from repro.sim.cache import EmissionCache
from repro.sim.engine import EmissionSpec, TrialGroup
from repro.sim.pipeline import (
    BatchSupport,
    Stage,
    TrialContext,
    TrialPipeline,
    build_pipeline,
    level_stage,
)
from repro.sim.runner import ScenarioRunner
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
        stage = Stage(name="x", scalar=lambda ctx, v, rng: v)
        with pytest.raises(ExperimentError, match="unique"):
            TrialPipeline([stage, stage])

    def test_empty_stage_list_rejected(self):
        with pytest.raises(ExperimentError, match="at least one"):
            TrialPipeline([])


class TestBatchSupportFold:
    def test_stock_pipeline_fully_batchable(self, phone_device):
        scenario = get_scenario("living_room").build("ok_google", 2.0)
        support = build_pipeline(scenario, phone_device).batch_support()
        assert support
        assert support.reason is None

    def test_stage_without_batch_kernel_refuses_with_name(self):
        stages = [
            Stage(
                name="ok",
                scalar=lambda ctx, v, rng: 1.0,
                batch=lambda ctx, v, rngs: [1.0] * len(rngs),
            ),
            Stage(name="scalar-only", scalar=lambda ctx, v, rng: v),
        ]
        support = TrialPipeline(stages).batch_support()
        assert not support
        assert "scalar-only" in support.reason
        assert "no batch kernel" in support.reason

    def test_first_refusal_wins(self):
        stages = [
            Stage(
                name="refused-early",
                scalar=lambda ctx, v, rng: v,
                batch=lambda ctx, v, rngs: v,
                support=BatchSupport.refused("early reason"),
            ),
            Stage(name="refused-late", scalar=lambda ctx, v, rng: v),
        ]
        support = TrialPipeline(stages).batch_support()
        assert support.reason == "early reason"

    def test_subclassed_microphone_collapses_to_record_stage(
        self, phone_device
    ):
        class _CustomMicrophone(Microphone):
            pass

        scenario = get_scenario("free_field").build("ok_google", 2.0)
        device = VictimDevice(
            name="custom",
            microphone=_CustomMicrophone(phone_device.microphone.config),
            recognizer=phone_device.recognizer,
        )
        pipeline = build_pipeline(scenario, device)
        assert "record" in pipeline.stage_names()
        assert "adc" not in pipeline.stage_names()
        support = pipeline.batch_support()
        assert not support
        assert "_CustomMicrophone" in support.reason

    def test_supports_batch_is_a_verdict_even_when_unenrolled(
        self, phone_device, emission_sources
    ):
        """Batchability and runnability are separate questions."""
        from repro.sim.engine import TrialGroup
        from repro.sim.batch import run_group_batch, supports_batch

        # phone_device only enrolled "ok_google"; the group can never
        # run, but supports_batch must still answer, as it always has.
        scenario = get_scenario("free_field").build("alexa", 2.0)
        group = TrialGroup(scenario, phone_device, emission_sources, 2)
        support = supports_batch(group)
        assert support
        assert support.reason is None
        # Running it is what fails, with the enrollment message.
        with pytest.raises(ExperimentError, match="no template"):
            run_group_batch(group, np.random.default_rng(0).spawn(2))

    def test_fallback_inside_run_trials_matches_scalar(
        self, phone_device, emission_sources
    ):
        """batch=True on a scalar-only pipeline silently walks scalar."""
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        reference = build_pipeline(scenario, phone_device)
        # Same stage list, minus every batch kernel.
        crippled = TrialPipeline(
            [
                Stage(name=stage.name, scalar=stage.scalar)
                for stage in reference.stages
            ],
        )
        ctx = reference.context(emission_sources)
        rngs_a = np.random.default_rng(3).spawn(3)
        rngs_b = np.random.default_rng(3).spawn(3)
        batched = crippled.run_trials(ctx, rngs_a, batch=True)
        scalar = [reference.run_scalar(ctx, rng) for rng in rngs_b]
        for x, y in zip(batched, scalar):
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

    def test_runner_shares_the_bounded_cache(self, phone_device):
        scenario = get_scenario("tv_interference").build("ok_google", 2.0)
        runner = ScenarioRunner(scenario, phone_device)
        assert runner.pipeline.invariants.max_entries <= 8

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
            [Stage(name="x", scalar=lambda ctx, v, rng: 0.0)]
        )
        with pytest.raises(ExperimentError, match="context builder"):
            pipeline.context([object()])


# ----------------------------------------------------------------------
# Executor equivalence on randomized stage lists
# ----------------------------------------------------------------------

_BASE = np.linspace(-1.0, 1.0, 64)


def _inject() -> Stage:
    return Stage(
        name="inject",
        scalar=lambda ctx, v, rng: _BASE.copy(),
        batch=lambda ctx, v, rngs: np.tile(_BASE, (len(rngs), 1)),
    )


def _scale(index: int, factor: float) -> Stage:
    return Stage(
        name=f"scale-{index}",
        scalar=lambda ctx, v, rng: v * factor,
        batch=lambda ctx, v, rngs: v * factor,
    )


def _offset(index: int, amount: float) -> Stage:
    return Stage(
        name=f"offset-{index}",
        scalar=lambda ctx, v, rng: v + amount,
        batch=lambda ctx, v, rngs: v + amount,
    )


def _noise(index: int) -> Stage:
    """A draw-consuming stage: one normal vector per trial generator."""

    def scalar(ctx, v, rng):
        return v + rng.normal(0.0, 1.0, v.shape[-1])

    def batch(ctx, v, rngs):
        out = np.empty_like(v)
        for row, rng in enumerate(rngs):
            out[row] = v[row] + rng.normal(0.0, 1.0, v.shape[-1])
        return out

    return Stage(name=f"noise-{index}", scalar=scalar, batch=batch)


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
    def test_batch_executor_bitwise_equals_scalar(
        self, spec, n_trials, chunk_trials, seed
    ):
        """Scalar walk == chunked batch walk, for any stage list."""
        pipeline = TrialPipeline(_build_random_stages(spec))
        ctx = TrialContext(clean_attack=None)
        scalar_rngs = np.random.default_rng(seed).spawn(n_trials)
        batch_rngs = np.random.default_rng(seed).spawn(n_trials)
        scalar = [
            pipeline.run_scalar(ctx, rng) for rng in scalar_rngs
        ]
        batched = pipeline.run_trials(
            ctx, batch_rngs, batch=True, chunk_trials=chunk_trials
        )
        assert len(batched) == n_trials
        for row, reference in zip(batched, scalar):
            assert np.array_equal(row, reference)

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
                    name="broken",
                    scalar=lambda ctx, v, rng: 1.0,
                    batch=lambda ctx, v, rngs: 1.0,  # not per-trial
                )
            ]
        )
        with pytest.raises(ExperimentError, match="final batch stage"):
            pipeline.run_trials(
                TrialContext(None), np.random.default_rng(0).spawn(2)
            )

    def test_row_count_mismatch_rejected(self):
        pipeline = TrialPipeline(
            [
                Stage(
                    name="short",
                    scalar=lambda ctx, v, rng: 1.0,
                    batch=lambda ctx, v, rngs: [1.0],  # one row short
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
        captured_scalar: list[float] = []
        outcomes = {}
        for label, capture, batch in (
            ("batch", captured_batch, True),
            ("scalar", captured_scalar, False),
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
                batch=batch,
            )
        assert captured_batch == captured_scalar
        assert len(captured_batch) == 4
        assert all(55.0 <= spl <= 68.0 for spl in captured_batch)
        for x, y in zip(outcomes["batch"], outcomes["scalar"]):
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


def _traced_rows(pipeline, ctx, n_trials, modes):
    """Stage rows of one traced ``run_trials`` per entry of ``modes``."""
    tracer = Tracer()
    with activate(tracer):
        for batch in modes:
            rngs = np.random.default_rng(7).spawn(n_trials)
            pipeline.run_trials(ctx, rngs, batch=batch)
    return stage_rows(tracer.spans)


class TestStageRows:
    def test_attributes_both_modes(self, scenario, phone_device, group):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.resolve_sources())
        rows = _traced_rows(pipeline, ctx, group.n_trials, (False, True))
        modes = {row["mode"] for row in rows}
        assert modes == {"scalar", "batch"}
        for mode in modes:
            stages = [row["stage"] for row in rows if row["mode"] == mode]
            assert stages == list(pipeline.stage_names())

    def test_trial_counts_and_rows(self, scenario, phone_device, group):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.resolve_sources())
        rows = _traced_rows(pipeline, ctx, group.n_trials, (True,))
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
        rows = _traced_rows(pipeline, ctx, group.n_trials, (True, True))
        for row in rows:
            assert row["calls"] == 2
            assert row["trials"] == 2 * group.n_trials


class TestOnePrecision:
    """float64 is the only precision; the float32 knobs are gone."""

    def test_recordings_are_float64_in_both_modes(
        self, scenario, phone_device, group
    ):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.resolve_sources())
        for batch in (False, True):
            rngs = np.random.default_rng(7).spawn(group.n_trials)
            for outcome in pipeline.run_trials(ctx, rngs, batch=batch):
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
            results[flag] = pipeline.run_trials(ctx, rngs, batch=True)
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
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.resolve_sources())
        rngs = np.random.default_rng(11).spawn(6)
        scalar = [pipeline.run_scalar(ctx, rng) for rng in rngs]
        recognizer = phone_device.recognizer
        recordings = [outcome.recording for outcome in scalar]
        batched = recognizer.recognize_batch(recordings)
        for outcome, result in zip(scalar, batched):
            assert result.command == outcome.recognized_command
            assert result.distance == outcome.distance
