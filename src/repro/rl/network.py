"""The policy network of Sec. IV, in pure NumPy.

Architecture: ``input -> 256 -> 32 -> 32 -> num_actions`` with ReLU hidden
activations and a masked softmax output ("a 3 hidden layer neural network
with widths of 256, 32, and 32 ... at the output layer, a softmax function
will be used").

The layer math lives in :mod:`repro.rl.modules` (shared with the value
network and the graph policy); this class adds the action-space contract
both trainers need:

* :meth:`probabilities` — masked action distribution for a batch of
  states;
* :meth:`backward_from_dlogits` — gradients of any loss whose derivative
  w.r.t. the logits the caller supplies.  Both the cross-entropy loss of
  imitation learning and the REINFORCE policy-gradient loss have the form
  ``dlogits = weight * (probs - onehot(action))``, so a single backward
  covers both.

Action masking: illegal logits are driven to ``-inf`` before the softmax,
so illegal actions have exactly zero probability and receive exactly zero
gradient.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import NetworkConfig
from ..errors import ConfigError
from ..utils.rng import SeedLike, as_generator
from .modules import MLPStack, policy_gradient_dlogits, replace_params
from .modules import masked_softmax as _masked_softmax

__all__ = ["PolicyNetwork", "StepWeights"]

#: Per-step loss weights of a policy-gradient batch: one float per step,
#: or a function ``(positions, chosen_probabilities) -> weights`` that
#: the network calls between a forward pass and its backward pass with
#: the batch positions that pass covered and ``pi(action | state)`` at
#: each of them.
StepWeights = Union[
    Sequence[float], Callable[[np.ndarray, np.ndarray], np.ndarray]
]


class PolicyNetwork:
    """Masked-softmax MLP policy.

    Args:
        input_size: observation dimensionality.
        config: architecture (hidden widths, action count).
        seed: weight-initialization seed (He initialization for ReLU).
    """

    #: Checkpoint/model-registry discriminator (see ``rl.checkpoints``).
    kind = "policy_mlp"

    def __init__(
        self,
        input_size: int,
        config: NetworkConfig | None = None,
        seed: SeedLike = None,
    ) -> None:
        if input_size < 1:
            raise ConfigError(f"input_size must be >= 1, got {input_size}")
        self.config = config if config is not None else NetworkConfig()
        self.input_size = input_size
        self.num_actions = self.config.num_actions
        rng = as_generator(seed)

        sizes = [input_size, *self.config.hidden_sizes, self.num_actions]
        self._stack = MLPStack(sizes, rng)
        #: Shared live parameter dict (the optimizer mutates it in place).
        self.params: Dict[str, np.ndarray] = self._stack.params
        self.num_layers = self._stack.num_layers

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #

    def logits(self, states: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        """Raw (unmasked) logits for a batch of states ``(B, input_size)``.

        With ``keep_cache=True`` the layer activations are retained for a
        subsequent :meth:`backward_from_dlogits`.
        """
        x = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if x.shape[1] != self.input_size:
            raise ConfigError(
                f"state has {x.shape[1]} features, network expects "
                f"{self.input_size}"
            )
        return self._stack.forward(x, keep_cache)

    masked_softmax = staticmethod(_masked_softmax)

    def probabilities(
        self,
        states: np.ndarray,
        masks: np.ndarray,
        keep_cache: bool = False,
    ) -> np.ndarray:
        """Masked action distribution ``(B, A)`` for a batch of states."""
        return self.masked_softmax(self.logits(states, keep_cache), masks)

    # ------------------------------------------------------------------ #
    # backward
    # ------------------------------------------------------------------ #

    def backward_from_dlogits(self, dlogits: np.ndarray) -> Dict[str, np.ndarray]:
        """Backpropagate ``dLoss/dlogits`` through the cached forward pass.

        Returns:
            Gradient arrays keyed like :attr:`params`.  The cache is
            consumed (one backward per forward).

        Raises:
            ConfigError: if no forward pass with ``keep_cache=True``
                preceded this call.
        """
        if not self._stack.has_cache:
            raise ConfigError("no cached forward pass; call logits(keep_cache=True)")
        grads = self._stack.backward(np.asarray(dlogits, dtype=np.float64))
        assert isinstance(grads, dict)
        return grads

    def policy_gradient(
        self,
        states: np.ndarray,
        masks: np.ndarray,
        actions: Sequence[int],
        weights: StepWeights,
        total: Optional[int] = None,
    ) -> Tuple[Dict[str, np.ndarray], float]:
        """Gradients of ``-sum_i weights_i * log pi(actions_i | states_i)``
        divided by ``total`` (default: the batch size ``B``).

        With ``weights = advantages`` this is the REINFORCE update of
        Eq. (3); with ``weights = 1`` it is the imitation cross-entropy.
        ``weights`` may also be a function ``(positions,
        chosen_probabilities) -> weights``, called once between the
        forward and the backward pass with ``positions = arange(B)`` and
        ``pi(actions_i | states_i)`` — for losses such as PPO's clipped
        surrogate whose (detached) weights depend on the current
        probabilities, so they need no forward pass of their own.

        A ``total`` above ``B`` stands for steps left out of the batch
        because their terms are exactly 0 (forced steps, DESIGN.md
        Sec. 16.3): the result is that of the whole batch.

        Returns:
            ``(grads, negative_log_likelihood / total)``.
        """
        probs = self.probabilities(states, masks, keep_cache=True)
        dlogits, nll = policy_gradient_dlogits(probs, actions, weights, total)
        return self.backward_from_dlogits(dlogits), nll

    # ------------------------------------------------------------------ #
    # trainer-facing batch interface (shared with GraphPolicyNetwork)
    # ------------------------------------------------------------------ #

    def make_policy(
        self,
        mode: str = "sample",
        seed: SeedLike = None,
        work_conserving: bool = True,
    ):
        """A :class:`repro.rl.agent.NetworkPolicy` driving this network."""
        from .agent import NetworkPolicy

        return NetworkPolicy(
            self, mode=mode, seed=seed, work_conserving=work_conserving
        )

    def _stack_steps(self, steps: Sequence) -> Tuple[np.ndarray, np.ndarray]:
        if not steps:  # a batch whose every step was forced
            return (
                np.empty((0, self.input_size)),
                np.empty((0, self.num_actions), dtype=bool),
            )
        states = np.stack([step.observation for step in steps])
        masks = np.stack([step.mask for step in steps])
        return states, masks

    def policy_gradient_steps(
        self,
        steps: Sequence,
        actions: Sequence[int],
        weights: StepWeights,
        total: Optional[int] = None,
    ) -> Tuple[Dict[str, np.ndarray], float]:
        """:meth:`policy_gradient` over recorded trajectory steps."""
        states, masks = self._stack_steps(steps)
        return self.policy_gradient(states, masks, actions, weights, total)

    def step_probabilities(self, steps: Sequence) -> np.ndarray:
        """``(B, num_actions)`` action distributions for recorded steps."""
        states, masks = self._stack_steps(steps)
        return self.probabilities(states, masks)

    def entropy_gradient_steps(
        self, steps: Sequence, total: Optional[int] = None
    ) -> Dict[str, np.ndarray]:
        """Gradients of the policy entropy summed over recorded steps and
        divided by ``total`` (default: their number; see
        :meth:`policy_gradient`)."""
        from .modules import entropy_dlogits

        states, masks = self._stack_steps(steps)
        probs = self.probabilities(states, masks, keep_cache=True)
        return self.backward_from_dlogits(entropy_dlogits(probs, total))

    #: Critic input width (the PPO value head trains on these features).
    @property
    def value_feature_size(self) -> int:
        return self.input_size

    def value_features(self, observations: Sequence) -> np.ndarray:
        """``(B, value_feature_size)`` critic inputs for recorded
        observations — for the window model, the observation itself."""
        return np.stack(observations)

    # ------------------------------------------------------------------ #
    # parameter plumbing
    # ------------------------------------------------------------------ #

    def get_params(self) -> Dict[str, np.ndarray]:
        """Copies of all parameter arrays."""
        return {k: v.copy() for k, v in self.params.items()}

    def set_params(self, params: Dict[str, np.ndarray]) -> None:
        """Load parameters (shapes must match exactly, values be finite)."""
        replace_params(self.params, params)

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(v.size for v in self.params.values())
