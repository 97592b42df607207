"""The registered benchmark suite: three calls no perfbench row can price.

perfbench (``python3 -m perfbench``) times whole workloads layer by
layer; every layer it has a row for is measured there and nowhere else.
What stays here prices one call at a fixed state:

* ``telemetry.span_disabled`` — the no-op every guarded span pays;
  perfbench runs with telemetry off and prices no span.
* ``observation.build`` — one featurisation of a mid-episode state; in
  a Spear plan the policy memo serves repeats, so perfbench's
  ``obs.build`` row counts only memo misses.
* ``rl.policy_select`` — the unmemoised single-state policy step.

Every ``setup`` builds its own inputs from ``SEED``.
"""

from __future__ import annotations

from typing import Callable, List

from ..config import EnvConfig, WorkloadConfig
from ..dag.generators import random_layered_dags
from ..env.actions import PROCESS
from ..env.scheduling_env import SchedulingEnv
from ..experiments.scale import resolve_scale
from .runner import BenchmarkSpec

__all__ = ["default_suite"]

#: Seed of every generated input.
SEED = 0


def _env() -> SchedulingEnv:
    """The first fig6 DAG at laptop scale, even under REPRO_PAPER_SCALE."""
    scale = resolve_scale(False)
    workload = WorkloadConfig(num_tasks=scale.num_tasks)
    graph = random_layered_dags(workload, scale.num_dags, SEED)[0]
    return SchedulingEnv(graph, EnvConfig(process_until_completion=True))


def _setup_telemetry_span_disabled() -> Callable[[], None]:
    """The no-op span of the disabled pipeline, as an MCTS decision opens it."""
    from ..telemetry import runtime

    tm = runtime.DISABLED

    def thunk() -> None:
        span = tm.span
        for _ in range(1000):
            with span("mcts.decision", depth=1, budget=50):
                pass

    return thunk


def _setup_observation_build() -> Callable[[], None]:
    from ..env.observation import ObservationBuilder

    env = _env()
    builder = ObservationBuilder(env.graph, env.config)
    # Mid-episode state: schedule whatever fits, process once.
    while True:
        actions = [a for a in env.legal_actions() if a != PROCESS]
        if not actions:
            break
        env.step(actions[0])
    env.step(PROCESS)

    def thunk() -> None:
        build = builder.build
        for _ in range(100):
            build(env)

    return thunk


def _setup_rl_policy_select() -> Callable[[], None]:
    """``NetworkPolicy.select`` over one sampled episode's states.

    The unfused, unmemoised reference step that the fused-playout tests
    compare against; Spear's rollouts take the fused, memoised playout,
    and the trainers the fused playout with a recorder attached.  Forced
    states (one candidate: no observation, no forward)
    and unforced ones occur in their real mix.
    """
    from ..core.pipeline import default_network

    env = _env()
    network = default_network(env.config, seed=SEED)
    policy = network.make_policy(mode="sample", seed=SEED)
    states = []
    sim = env.clone()
    while not sim.done:
        states.append(sim.clone())
        sim.step(policy.select(sim))

    def thunk() -> None:
        select = policy.select
        for state in states:
            select(state)

    thunk.ops = len(states)  # type: ignore[attr-defined]
    return thunk


def default_suite() -> List[BenchmarkSpec]:
    """All registered benchmarks, in display order."""
    return [
        BenchmarkSpec(
            "telemetry.span_disabled",
            _setup_telemetry_span_disabled,
            inner_ops=1000,
        ),
        BenchmarkSpec("observation.build", _setup_observation_build, inner_ops=100),
        BenchmarkSpec("rl.policy_select", _setup_rl_policy_select),
    ]
