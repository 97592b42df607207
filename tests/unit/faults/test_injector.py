"""Unit tests for the deterministic fault injector."""

import pytest

from repro.errors import ConfigError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MachineCrash,
    RuntimeNoise,
    StragglerModel,
    TransientFaults,
)


def plan(**kwargs):
    defaults = dict(
        transient=TransientFaults(0.3),
        straggler=StragglerModel(0.3, slowdown=2.0),
        noise=RuntimeNoise(kind="lognormal", scale=0.3),
        seed=11,
    )
    defaults.update(kwargs)
    return FaultPlan(**defaults)


class TestAttempts:
    def test_pure_function_of_key(self):
        """Same (job, task, attempt) key, same outcome — regardless of the
        order the executor asks in, or how often."""
        injector = FaultInjector(plan())
        keys = [(j, t, a) for j in range(3) for t in range(4) for a in (1, 2)]
        first = {k: injector.attempt(*k, nominal_runtime=10) for k in keys}
        for key in reversed(keys):
            assert injector.attempt(*key, nominal_runtime=10) == first[key]

    def test_different_keys_differ_somewhere(self):
        injector = FaultInjector(plan())
        outcomes = {
            injector.attempt(j, t, 1, nominal_runtime=50)
            for j in range(5)
            for t in range(10)
        }
        assert len(outcomes) > 1

    def test_seed_changes_stream(self):
        a = FaultInjector(plan(seed=1))
        b = FaultInjector(plan(seed=2))
        diffs = sum(
            a.attempt(0, t, 1, 50) != b.attempt(0, t, 1, 50) for t in range(20)
        )
        assert diffs > 0

    def test_null_plan_passthrough(self):
        injector = FaultInjector(FaultPlan())
        attempt = injector.attempt(0, 0, 1, nominal_runtime=7)
        assert attempt == (7, False, False)

    def test_straggler_multiplies_runtime(self):
        sure = plan(
            transient=TransientFaults(0.0),
            straggler=StragglerModel(1.0, slowdown=3.0),
            noise=None,
        )
        attempt = FaultInjector(sure).attempt(0, 0, 1, nominal_runtime=4)
        assert attempt.straggled
        assert attempt.runtime == 12

    def test_runtime_floor_is_one(self):
        noisy = plan(
            transient=TransientFaults(0.0),
            straggler=StragglerModel(0.0),
            noise=RuntimeNoise(kind="uniform", scale=0.9),
        )
        injector = FaultInjector(noisy)
        assert all(
            injector.attempt(0, t, 1, nominal_runtime=1).runtime >= 1
            for t in range(50)
        )

    def test_a_runtime_not_below_2_63_slots_names_its_cause(self):
        # Noise that overflows (``exp`` itself, at this scale) is refused
        # where a draw would realize it; a draw toward zero floors at 1.
        loud = FaultInjector(
            plan(straggler=StragglerModel(1.0, slowdown=2.0),
                 noise=RuntimeNoise(scale=1e308))
        )
        outcomes = []
        for task in range(20):
            try:
                outcomes.append(loud.attempt(0, task, 1, 5).runtime)
            except ConfigError as exc:
                assert str(exc).startswith("noise=1e+308 makes attempt 1 of ")
                assert str(exc).endswith("not below 2**63")
                outcomes.append("refused")
        assert set(outcomes) == {1, "refused"}
        slow = FaultInjector(
            plan(straggler=StragglerModel(1.0, slowdown=1e300), noise=None)
        )
        with pytest.raises(ConfigError, match=r"^slowdown=1e\+300 makes attempt 2"):
            slow.attempt(0, 3, 2, 5)

    def test_argument_validation(self):
        injector = FaultInjector(plan())
        with pytest.raises(ConfigError, match="1-based"):
            injector.attempt(0, 0, 0, 5)
        with pytest.raises(ConfigError, match="runtime"):
            injector.attempt(0, 0, 1, 0)


class TestTimeline:
    def test_ordered_with_recoveries_first(self):
        p = FaultPlan(
            crashes=(
                MachineCrash(0, 5, (2, 2), recover_at=10),
                MachineCrash(1, 10, (3, 3), recover_at=20),
            )
        )
        timeline = FaultInjector(p).timeline()
        assert [(e.time, e.kind) for e in timeline] == [
            (5, "crash"),
            (10, "recovery"),  # machine 0 recovers before machine 1 crashes
            (10, "crash"),
            (20, "recovery"),
        ]

    def test_permanent_crash_has_no_recovery(self):
        p = FaultPlan(crashes=(MachineCrash(0, 5, (2, 2)),))
        timeline = FaultInjector(p).timeline()
        assert [e.kind for e in timeline] == ["crash"]

    def test_backoff_delegates_to_policy(self):
        injector = FaultInjector(plan())
        assert injector.backoff(1) == injector.plan.retry.delay(1)
        assert injector.max_attempts == injector.plan.retry.max_attempts
