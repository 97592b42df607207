"""A ReLU MLP trunk with a linear output layer.

This is the shared implementation behind ``PolicyNetwork`` and
``ValueNetwork``.  It reproduces the historical hand-rolled layer loop
exactly — same He-init RNG draw order (``W0, W1, ...``, biases zero),
same forward operation sequence (``z = h @ W + b``; ReLU between hidden
layers only), same backward (``grads[W] = act.T @ delta``;
``delta = (delta @ W.T) * (pre > 0)``) — so fixed-seed numerics are
bit-identical to the pre-refactor implementations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ...errors import ConfigError
from .activations import ReLU
from .base import Module
from .linear import Linear, init_linear

__all__ = ["MLPStack"]


class MLPStack:
    """Linear/ReLU stack over a shared parameter dict.

    Args:
        sizes: layer widths ``[input, *hidden, output]``.
        rng: weight-init generator (ignored if ``params`` already holds
            every layer, e.g. when rebuilding from a checkpoint).
        params: shared parameter dict to populate/read; a fresh dict is
            created when omitted.
        prefix: parameter-name prefix (``f"{prefix}W{i}"`` /
            ``f"{prefix}b{i}"``), so several stacks can share one dict.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        params: Optional[Dict[str, np.ndarray]] = None,
        prefix: str = "",
    ) -> None:
        sizes = list(sizes)
        if len(sizes) < 2:
            raise ConfigError("an MLP needs at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ConfigError(f"layer sizes must be positive, got {sizes}")
        self.sizes = sizes
        self.params: Dict[str, np.ndarray] = params if params is not None else {}
        self.prefix = prefix
        self.num_layers = len(sizes) - 1
        self._modules: List[Module] = []
        for layer, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            weight, bias = f"{prefix}W{layer}", f"{prefix}b{layer}"
            if weight not in self.params:
                if rng is None:
                    raise ConfigError(
                        f"no rng and no existing parameters for {weight!r}"
                    )
                init_linear(self.params, weight, bias, fan_in, fan_out, rng)
            self._modules.append(Linear(self.params, weight, bias))
            if layer < self.num_layers - 1:
                self._modules.append(ReLU())
        self._has_cache = False

    # ------------------------------------------------------------------ #

    @property
    def input_size(self) -> int:
        return self.sizes[0]

    @property
    def has_cache(self) -> bool:
        """True iff a ``keep_cache`` forward awaits its backward."""
        return self._has_cache

    def forward(self, x: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        """Stacked forward pass over a batch ``(B, input_size)``."""
        h = x
        for module in self._modules:
            h = module.forward(h, keep_cache)
        if keep_cache:
            self._has_cache = True
        return h

    def backward(
        self,
        dout: np.ndarray,
        grads: Optional[Dict[str, np.ndarray]] = None,
        need_dx: bool = False,
    ) -> Union[Dict[str, np.ndarray], np.ndarray]:
        """Backprop ``dLoss/doutput`` through the cached forward.

        Returns the gradient dict (keyed like :attr:`params`), or — with
        ``need_dx=True`` — the input gradient, with the parameter
        gradients written into the caller-supplied ``grads``.  The cache
        is consumed (one backward per forward).
        """
        if not self._has_cache:
            raise ConfigError(
                "no cached forward pass; call forward(keep_cache=True)"
            )
        self._has_cache = False
        out_grads: Dict[str, np.ndarray] = grads if grads is not None else {}
        delta: np.ndarray = np.asarray(dout, dtype=np.float64)
        last = len(self._modules) - 1
        for position, module in enumerate(reversed(self._modules)):
            if position == last and isinstance(module, Linear) and not need_dx:
                # The input gradient of the bottom layer is only needed
                # when the stack feeds another differentiable stage;
                # skip the (often large) ``delta @ W0.T`` otherwise.
                module.backward_params_only(delta, out_grads)
            else:
                delta = module.backward(delta, out_grads)
        return delta if need_dx else out_grads
