"""The Spear scheduler (Sec. III): MCTS + DRL guidance.

Spear is :class:`repro.mcts.MctsScheduler` with the random expansion and
rollout policies replaced by the trained network — nothing else changes,
which is exactly the paper's framing: "we replace random expansion and
random rollout in MCTS, and adopt a trained DRL model to choose actions
like an expert".

The headline consequence (Fig. 8(a)): Spear with a budget of 100 matches
pure MCTS with a budget of 1000 — a 10x search-budget reduction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from ..config import EnvConfig, MctsConfig
from ..errors import ConfigError
from ..mcts.search import MctsScheduler
from ..rl.gnn import GraphPolicyNetwork
from ..rl.network import PolicyNetwork
from ..utils.rng import SeedLike, as_generator
from .guidance import NetworkExpansion, NetworkRollout

AnyPolicyNetwork = Union[PolicyNetwork, GraphPolicyNetwork]

__all__ = ["SpearScheduler"]


class SpearScheduler(MctsScheduler):
    """Network-guided MCTS scheduling.

    Args:
        network: a trained policy network (see
            :func:`repro.core.pipeline.train_spear_network`) — the
            windowed MLP (its ``max_ready`` must match
            ``env_config.max_ready``) or a scale-invariant
            :class:`~repro.rl.gnn.GraphPolicyNetwork`.
        config: search parameters.  The paper uses a much smaller budget
            than pure MCTS (100/50 on the production trace); pass your own
            :class:`MctsConfig` to control it.
        env_config: cluster shape (event-skipping PROCESS by default).
        seed: RNG seed for rollout sampling.
        rollout_mode: ``"sample"`` (paper behaviour) or ``"greedy"``.
    """

    def __init__(
        self,
        network: AnyPolicyNetwork,
        config: MctsConfig | None = None,
        env_config: EnvConfig | None = None,
        seed: SeedLike = None,
        rollout_mode: str = "sample",
    ) -> None:
        cfg = config if config is not None else MctsConfig()
        rng = as_generator(seed)
        expansion = NetworkExpansion(
            network, work_conserving=cfg.use_expansion_filters
        )
        rollout = NetworkRollout(
            network,
            seed=rng,
            mode=rollout_mode,
            work_conserving=cfg.use_expansion_filters,
        )
        # One network, so one distribution per state: expansion and
        # rollout read and fill the same per-plan memo.
        rollout.memo = expansion.memo
        super().__init__(
            config=cfg,
            env_config=env_config,
            expansion=expansion,
            rollout=rollout,
            seed=rng,
            name="spear",
        )
        self.network = network


# ---------------------------------------------------------------------- #
# registry factories (spec-string construction)
# ---------------------------------------------------------------------- #


def _mcts_config(budget: Optional[int], min_budget: Optional[int]) -> MctsConfig:
    cfg = MctsConfig()
    if budget is not None:
        cfg = replace(cfg, initial_budget=budget)
    if min_budget is not None:
        cfg = replace(cfg, min_budget=min_budget)
    return cfg


def _make_mcts(
    env_config: EnvConfig,
    budget: Optional[int] = None,
    min_budget: Optional[int] = None,
    seed: int = 0,
) -> MctsScheduler:
    """Registry factory: ``make_scheduler("mcts:budget=200,seed=3")``."""
    return MctsScheduler(
        _mcts_config(budget, min_budget), env_config, seed=seed
    )


def checkpoint(raw: str) -> str:
    """Option type for ``spear``'s ``network`` key: a checkpoint path.

    Spec strings carry the path; programmatic ``make_scheduler`` calls
    may pass a live :class:`~repro.rl.network.PolicyNetwork` instead.
    """
    return raw


def _make_spear(
    env_config: EnvConfig,
    budget: Optional[int] = None,
    min_budget: Optional[int] = None,
    seed: int = 0,
    network: Union[str, AnyPolicyNetwork, None] = None,
    rollout_mode: str = "sample",
) -> SpearScheduler:
    """Registry factory: ``make_scheduler("spear:budget=100,fallback=heft")``.

    ``network`` is a checkpoint path (spec) or a live network
    (programmatic); omitted, a freshly initialized network is used —
    functional for wiring/fault tests, but untrained (use
    :func:`repro.core.pipeline.train_spear_network` or
    :func:`repro.experiments.cached_network` for paper-faithful guidance).
    Spear defaults to the paper's reduced budget (100/20) rather than
    pure MCTS's 1000/100.
    """
    if isinstance(network, str):
        from ..rl.checkpoints import load_policy_checkpoint

        net = load_policy_checkpoint(network)
    elif network is None:
        from .pipeline import default_network

        net = default_network(env_config, seed=seed)
    elif isinstance(network, (PolicyNetwork, GraphPolicyNetwork)):
        net = network
    else:
        raise ConfigError(
            f"spear: network must be a checkpoint path or a policy "
            f"network, got {type(network).__name__}"
        )
    cfg = _mcts_config(
        budget if budget is not None else 100,
        min_budget if min_budget is not None else 20,
    )
    return SpearScheduler(
        net,
        config=cfg,
        env_config=env_config,
        seed=seed,
        rollout_mode=rollout_mode,
    )


def _register() -> None:
    from ..schedulers.registry import register

    register(
        "mcts",
        _make_mcts,
        options={"budget": int, "min_budget": int, "seed": int},
    )
    register(
        "spear",
        _make_spear,
        options={
            "budget": int,
            "min_budget": int,
            "seed": int,
            "network": checkpoint,
            "rollout_mode": str,
        },
    )


_register()
