"""Unit tests for spec-string parsing, the compose stack, and the
context-aware Scheduler API (ScheduleRequest / plan / wrappers)."""

import copy
import pickle

import pytest

from repro.dag import chain_dag
from repro.errors import ConfigError, ScheduleError
from repro.metrics.schedule import Schedule
from repro.schedulers import (
    ClusterSnapshot,
    ReschedulingScheduler,
    Scheduler,
    SchedulerWrapper,
    ScheduleRequest,
    TelemetryScheduler,
    VerifyingScheduler,
    available_schedulers,
    compose_scheduler,
    make_scheduler,
    parse_scheduler_spec,
    scheduler_options,
)


class TestParseSpec:
    def test_bare_name(self):
        assert parse_scheduler_spec("tetris") == ("tetris", {})

    def test_options_stay_raw_strings(self):
        name, opts = parse_scheduler_spec("mcts:budget=200, seed=3")
        assert name == "mcts"
        assert opts == {"budget": "200", "seed": "3"}

    def test_empty_name_raises(self):
        with pytest.raises(ConfigError, match="unknown scheduler ''"):
            parse_scheduler_spec(":budget=1")

    def test_non_kv_entry_raises(self):
        with pytest.raises(ConfigError, match="not key=value"):
            parse_scheduler_spec("mcts:budget")

    def test_duplicate_key_raises(self):
        with pytest.raises(ConfigError, match="repeats key"):
            parse_scheduler_spec("mcts:seed=1,seed=2")


class TestMakeScheduler:
    def test_unknown_name_lists_available(self, env_config):
        with pytest.raises(ConfigError, match="unknown scheduler"):
            make_scheduler("warp", env_config)

    def test_unknown_option_lists_known(self, env_config):
        with pytest.raises(ConfigError, match="known:.*verify"):
            make_scheduler("tetris:speed=11", env_config)

    def test_random_draws_from_one_generator_seeded_zero(self):
        # Two instances plan alike; one instance's successive plans draw
        # on from where the last one stopped.
        from repro import WorkloadConfig, random_layered_dag

        graph = random_layered_dag(WorkloadConfig(num_tasks=30), seed=4)

        def plans(scheduler):
            return [scheduler.plan(ScheduleRequest(graph)).placements for _ in "ab"]

        first = plans(make_scheduler("random"))
        assert plans(make_scheduler("random")) == first
        assert first[0] != first[1]

    def test_typed_coercion_failure(self, env_config):
        with pytest.raises(ConfigError, match="max_nodes='many' is not an int"):
            make_scheduler("optimal:max_nodes=many", env_config)

    def test_bool_coercion_strict(self, env_config):
        with pytest.raises(ConfigError, match="not a bool"):
            make_scheduler("tetris:verify=maybe", env_config)

    def test_spec_options_reach_factory(self, env_config, chain3):
        scheduler = make_scheduler("mcts:budget=30,min_budget=10,seed=1", env_config)
        schedule = scheduler.plan(ScheduleRequest(chain3))
        assert schedule.makespan >= 6  # serial chain of 2+3+1

    def test_programmatic_options_merge_over_spec(self, env_config):
        # budget from kwargs (already typed) overrides nothing but coexists
        scheduler = make_scheduler("mcts:seed=2", env_config, budget=25, min_budget=10)
        assert scheduler is not None

    def test_wrapper_keys_build_stack(self, env_config):
        scheduler = make_scheduler(
            "cp:verify=true,telemetry=true,fallback=fifo,replan_budget=5",
            env_config,
        )
        assert isinstance(scheduler, TelemetryScheduler)
        assert isinstance(scheduler.inner, VerifyingScheduler)
        assert isinstance(scheduler.inner.inner, ReschedulingScheduler)
        assert scheduler.inner.inner.fallback.name == "fifo"
        assert scheduler.inner.inner.replan_budget == 5.0
        assert scheduler.name == "cp"  # wrappers are name-transparent

    def test_available_and_options_listings(self):
        names = available_schedulers()
        assert {"tetris", "heft", "mcts", "spear"} <= set(names)
        opts = scheduler_options()
        assert opts["mcts"]["budget"] == "int"
        assert opts["spear"]["network"] == "checkpoint"


class TestComposeScheduler:
    def test_nesting_order(self, env_config):
        stacked = compose_scheduler(
            "heft", env_config, verify=True, telemetry=True, reschedule=True
        )
        assert isinstance(stacked, TelemetryScheduler)
        assert isinstance(stacked.inner, VerifyingScheduler)
        assert isinstance(stacked.inner.inner, ReschedulingScheduler)

    def test_fallback_implies_reschedule(self, env_config):
        stacked = compose_scheduler("heft", env_config, fallback="fifo")
        assert isinstance(stacked, ReschedulingScheduler)

    def test_noop_returns_bare_scheduler(self, env_config):
        scheduler = compose_scheduler("tetris", env_config)
        assert not isinstance(scheduler, SchedulerWrapper)


class _Broken(Scheduler):
    """A scheduler that emits garbage."""

    name = "broken"

    def plan(self, request):
        return Schedule(placements=(), scheduler=self.name)


class _Failing(Scheduler):
    name = "failing"

    def plan(self, request):
        raise ScheduleError("planner exploded")


class TestScheduleRequestApi:
    def test_snapshot_validation(self):
        with pytest.raises(ConfigError, match="capacities must be >= 0"):
            ClusterSnapshot(capacities=(10, -1))

    def test_plan_required_somewhere(self):
        class Nothing(Scheduler):
            pass

        with pytest.raises(TypeError, match="abstract"):
            Nothing()


class TestWrapperGetattr:
    def test_forwarding(self, env_config):
        inner = make_scheduler("tetris", env_config)
        wrapper = VerifyingScheduler(inner, env_config)
        assert wrapper.name == "tetris"
        assert wrapper.inner is inner

    def test_missing_attribute_is_clean(self, env_config):
        wrapper = VerifyingScheduler(make_scheduler("tetris", env_config), env_config)
        with pytest.raises(AttributeError):
            wrapper.does_not_exist

    def test_half_constructed_wrapper_does_not_recurse(self):
        # copy/pickle probe dunders before __init__ ever runs; this used
        # to recurse infinitely through __getattr__ -> _inner -> __getattr__.
        shell = VerifyingScheduler.__new__(VerifyingScheduler)
        with pytest.raises(AttributeError):
            shell._inner
        copy.copy(shell)  # must not raise RecursionError

    def test_pickle_roundtrip(self, env_config):
        wrapper = VerifyingScheduler(make_scheduler("tetris", env_config), env_config)
        clone = pickle.loads(pickle.dumps(wrapper))
        assert clone.name == "tetris"


class TestReschedulingScheduler:
    def test_verifier_rejects_broken_schedules(self, env_config, chain3):
        wrapper = VerifyingScheduler(_Broken(), env_config)
        with pytest.raises(ScheduleError, match="dependency|placement|missing"):
            wrapper.plan(ScheduleRequest(chain3))

    def test_planner_error_degrades_to_fallback(self, env_config, chain3):
        fallback = make_scheduler("fifo", env_config)
        wrapper = ReschedulingScheduler(_Failing(), fallback=fallback)
        schedule = wrapper.plan(ScheduleRequest(chain3))
        assert schedule.makespan == 6
        assert wrapper.degraded
        assert wrapper.fallback_replans == 1
        # Once degraded, the fallback serves directly.
        wrapper.plan(ScheduleRequest(chain3))
        assert wrapper.fallback_replans == 2

    def test_planner_error_without_fallback_propagates(self, chain3):
        wrapper = ReschedulingScheduler(_Failing())
        with pytest.raises(ScheduleError, match="exploded"):
            wrapper.plan(ScheduleRequest(chain3))

    def test_budget_overrun_degrades_after_result(self, env_config, chain3):
        fallback = make_scheduler("fifo", env_config)
        planner = make_scheduler("cp", env_config)
        wrapper = ReschedulingScheduler(
            planner, fallback=fallback, replan_budget=1e-12
        )
        schedule = wrapper.plan(ScheduleRequest(chain3))  # over budget but still valid
        assert schedule.makespan == 6
        assert wrapper.degraded
        assert wrapper.fallback_replans == 0
        wrapper.plan(ScheduleRequest(chain3))
        assert wrapper.fallback_replans == 1

    def test_reset_clears_degradation(self, env_config, chain3):
        wrapper = ReschedulingScheduler(
            make_scheduler("cp", env_config),
            fallback=make_scheduler("fifo", env_config),
            replan_budget=1e-12,
        )
        wrapper.plan(ScheduleRequest(chain3))
        assert wrapper.degraded
        wrapper.reset()
        assert not wrapper.degraded
        assert wrapper.replans == 0

    def test_invalid_budget_raises(self, env_config):
        with pytest.raises(ConfigError, match="replan_budget"):
            ReschedulingScheduler(
                make_scheduler("cp", env_config), replan_budget=0
            )
