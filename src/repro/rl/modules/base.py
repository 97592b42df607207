"""The module protocol: explicit forward/backward over a shared param dict."""

from __future__ import annotations

import abc
from typing import Dict, Mapping

import numpy as np

from ...errors import ConfigError

__all__ = ["Module", "replace_params"]


def replace_params(
    params: Dict[str, np.ndarray], new: Mapping[str, np.ndarray]
) -> None:
    """Rebind every entry of the shared dict ``params`` to a float64 copy
    of ``new``'s entry of that name.

    Raises:
        ConfigError: if a name is missing, a shape differs, or a value is
            NaN or infinite (a poisoned weight would otherwise surface
            only as a sampling error deep inside a rollout — or, in the
            states where the policy step skips the forward, not at all).
    """
    for key, value in params.items():
        if key not in new:
            raise ConfigError(f"missing parameter {key}")
        if new[key].shape != value.shape:
            raise ConfigError(
                f"parameter {key}: shape {new[key].shape} != {value.shape}"
            )
        if not np.all(np.isfinite(new[key])):
            raise ConfigError(f"parameter {key} holds a non-finite value")
    for key in params:
        params[key] = np.asarray(new[key], dtype=np.float64).copy()


class Module(abc.ABC):
    """One differentiable transformation.

    A module reads its parameters (if any) out of a shared name->array
    dict at call time and accumulates parameter gradients into a dict
    the caller provides.  ``forward(..., keep_cache=True)`` retains
    whatever intermediate state ``backward`` needs; the cache is
    consumed by the matching ``backward`` (one backward per forward).
    """

    @abc.abstractmethod
    def forward(self, x: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        """Compute the module's output for ``x``."""

    @abc.abstractmethod
    def backward(
        self, dout: np.ndarray, grads: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """Given ``dLoss/dout``, write parameter gradients into ``grads``
        (keyed like the shared parameter dict) and return ``dLoss/dx``."""
