"""Unit tests for fault models, plan validation, and spec parsing."""

import pytest

from repro.errors import ConfigError
from repro.faults import (
    FaultPlan,
    MachineCrash,
    RetryPolicy,
    RuntimeNoise,
    StragglerModel,
    TransientFaults,
    parse_fault_spec,
    random_crash_plan,
)


class TestModels:
    def test_crash_validation(self):
        with pytest.raises(ConfigError, match="at least one slot"):
            MachineCrash(0, 10, (0, 0))
        with pytest.raises(ConfigError, match="after the crash"):
            MachineCrash(0, 10, (2, 2), recover_at=10)
        crash = MachineCrash(0, 10, (2, 2), recover_at=40)
        assert crash.capacity == (2, 2)

    def test_transient_probability_range(self):
        with pytest.raises(ConfigError):
            TransientFaults(probability=1.0)
        assert TransientFaults(0.5).probability == 0.5

    def test_straggler_slowdown_floor(self):
        with pytest.raises(ConfigError, match="slowdown"):
            StragglerModel(probability=0.1, slowdown=0.5)

    @pytest.mark.parametrize("slowdown", [float("inf"), float("nan")])
    def test_straggler_slowdown_is_finite(self, slowdown):
        with pytest.raises(ConfigError, match="slowdown must be finite"):
            StragglerModel(probability=0.5, slowdown=slowdown)

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")])
    def test_noise_scale_is_finite(self, scale):
        with pytest.raises(ConfigError, match="noise scale must be finite"):
            RuntimeNoise(scale=scale)

    def test_noise_kinds(self):
        with pytest.raises(ConfigError, match="kind"):
            RuntimeNoise(kind="gamma")
        with pytest.raises(ConfigError, match="uniform"):
            RuntimeNoise(kind="uniform", scale=1.5)

    def test_retry_backoff_caps(self):
        retry = RetryPolicy(max_attempts=5, backoff_base=2, backoff_cap=10)
        assert [retry.delay(k) for k in (1, 2, 3, 4)] == [2, 4, 8, 10]
        with pytest.raises(ConfigError, match="1-based"):
            retry.delay(0)


class TestFaultPlan:
    def test_null_plan(self):
        assert FaultPlan().is_null
        assert not FaultPlan(transient=TransientFaults(0.1)).is_null

    def test_validate_rejects_oversubscribed_loss(self):
        plan = FaultPlan(
            crashes=(
                MachineCrash(0, 5, (6, 6)),
                MachineCrash(1, 6, (6, 6)),
            )
        )
        with pytest.raises(ConfigError, match="removes 12 slots"):
            plan.validate_against((10, 10))

    def test_validate_accepts_staggered_loss(self):
        plan = FaultPlan(
            crashes=(
                MachineCrash(0, 5, (6, 6), recover_at=10),
                MachineCrash(1, 10, (6, 6), recover_at=20),
            )
        )
        plan.validate_against((10, 10))  # recovery at 10 frees the slots

    def test_validate_rejects_dim_mismatch(self):
        plan = FaultPlan(crashes=(MachineCrash(0, 5, (2, 2, 2)),))
        with pytest.raises(ConfigError, match="dims"):
            plan.validate_against((10, 10))


class TestRandomCrashPlan:
    def test_deterministic_and_staggered(self):
        a = random_crash_plan(3, (20, 20), horizon=400, seed=5)
        b = random_crash_plan(3, (20, 20), horizon=400, seed=5)
        assert a == b
        for prev, nxt in zip(a, a[1:]):
            assert nxt.at > prev.recover_at

    def test_fraction_sets_loss(self):
        (crash,) = random_crash_plan(1, (20, 8), horizon=100, fraction=0.25)
        assert crash.capacity == (5, 2)

    def test_survivable(self):
        plan = FaultPlan(crashes=random_crash_plan(4, (20, 20), horizon=1000))
        plan.validate_against((20, 20))


class TestParseFaultSpec:
    def test_full_spec(self):
        plan = parse_fault_spec(
            "crashes=2,outage=30,transient=0.05,straggler=0.1,slowdown=3,"
            "noise=0.2,noise_kind=uniform,max_attempts=6,backoff=2,seed=9",
            capacities=(20, 20),
            horizon=400,
        )
        assert len(plan.crashes) == 2
        assert plan.transient.probability == 0.05
        assert plan.straggler.slowdown == 3.0
        assert plan.noise.kind == "uniform" and plan.noise.scale == 0.2
        assert plan.retry.max_attempts == 6
        assert plan.seed == 9

    def test_empty_spec_is_null(self):
        assert parse_fault_spec("", (20, 20), 100).is_null

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigError, match="fault spec 'meteors=1': unknown key 'meteors'"):
            parse_fault_spec("meteors=1", (20, 20), 100)

    def test_unknown_key_suggests_the_closest(self):
        with pytest.raises(ConfigError, match="did you mean 'crashes'"):
            parse_fault_spec("crashs=1", (20, 20), 100)

    @pytest.mark.parametrize(
        "spec", ["crashes=1,crashes=3", "crashes=1,transient=0.1, crashes =1"]
    )
    def test_repeated_key_raises(self, spec):
        with pytest.raises(ConfigError, match=r"fault spec '.*': repeats key 'crashes'"):
            parse_fault_spec(spec, (20, 20), 100)

    def test_malformed_value_raises(self):
        with pytest.raises(ConfigError, match="not a float"):
            parse_fault_spec("transient=lots", (20, 20), 100)

    def test_non_kv_entry_raises(self):
        with pytest.raises(ConfigError, match="not key=value"):
            parse_fault_spec("crashes", (20, 20), 100)

    def test_noise_zero_is_off_and_any_other_scale_is_checked(self):
        assert parse_fault_spec("noise=0", (20, 20), 100).noise is None
        with pytest.raises(ConfigError, match="noise scale must be > 0"):
            parse_fault_spec("noise=-0.5", (20, 20), 100)
        with pytest.raises(ConfigError, match="noise scale must be finite"):
            parse_fault_spec("noise=nan", (20, 20), 100)

    def test_seed_argument_is_default(self):
        plan = parse_fault_spec("transient=0.1", (20, 20), 100, seed=42)
        assert plan.seed == 42
