"""A tiny differentiable module stack in pure NumPy.

Every learned model in ``repro.rl`` — the MLP policy, the value
regressor and the graph policy — is expressed over this package instead
of hand-rolling its own layer math.  The design constraints:

* **Explicit forward/backward.**  Each module computes its output and,
  given the loss gradient at its output, the gradient at its input plus
  the gradients of its own parameters.  No autograd tape: the call
  graphs here are short and static, and explicitness keeps the numerics
  auditable (the golden-trace tests pin them bit-for-bit).
* **Shared parameter dict with stable names.**  Modules do not own their
  arrays; they read them out of a caller-provided ``Dict[str, ndarray]``
  at call time.  This keeps three invariants the rest of the package
  relies on: the optimizer's in-place update (``param -= ...``) is
  visible to the module, ``set_params`` may rebind dict entries, and
  checkpoints serialize the dict as-is under stable keys.
* **Bit-compatibility.**  :class:`MLPStack` reproduces the exact
  floating-point operation sequence (and He-init RNG draw order) of the
  original hand-rolled ``PolicyNetwork``/``ValueNetwork`` layer loops,
  so re-expressing those classes over the stack changed no observable
  number.
"""

from .base import Module, replace_params
from .linear import Linear, init_linear
from .activations import ReLU
from .softmax import (
    masked_softmax,
    masked_softmax_row,
    normalized_cdf,
    sample_index,
    entropy_dlogits,
    policy_entropy,
    policy_gradient_dlogits,
)
from .mlp import MLPStack
from .message_passing import EdgeList

__all__ = [
    "Module",
    "replace_params",
    "Linear",
    "init_linear",
    "ReLU",
    "masked_softmax",
    "masked_softmax_row",
    "normalized_cdf",
    "sample_index",
    "entropy_dlogits",
    "policy_entropy",
    "policy_gradient_dlogits",
    "MLPStack",
    "EdgeList",
]
