"""Masked softmax and the entropy/cross-entropy logit gradients.

These are functions, not stateful modules: both trainers differentiate
losses of the form ``dLoss/dlogits = f(probs)``, so the probability
computation and the closed-form logit gradients are all that is needed.
Illegal entries are driven to an effective ``-inf`` before the softmax,
giving them exactly zero probability and exactly zero gradient.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...errors import ConfigError

__all__ = [
    "masked_softmax",
    "masked_softmax_row",
    "normalized_cdf",
    "sample_index",
    "entropy_dlogits",
    "policy_entropy",
    "policy_gradient_dlogits",
]

_NEG_INF = -1e30


def masked_softmax(logits: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Row-wise softmax with illegal entries forced to probability 0.

    Args:
        logits: ``(B, A)`` raw scores.
        masks: ``(B, A)`` booleans, True = legal.  Every row must have
            at least one legal action.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.shape != logits.shape:
        raise ConfigError(
            f"mask shape {masks.shape} != logits shape {logits.shape}"
        )
    if not np.all(masks.any(axis=1)):
        raise ConfigError("a state has no legal action")
    masked = np.where(masks, logits, _NEG_INF)
    shifted = masked - masked.max(axis=1, keepdims=True)
    exp = np.exp(shifted) * masks
    return exp / exp.sum(axis=1, keepdims=True)


def masked_softmax_row(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """:func:`masked_softmax` for one state.

    Same operations in the same order as one row of the batch form (so
    the same bits), minus the per-call batch bookkeeping: the policy
    step runs this once per rollout decision.

    Args:
        logits: ``(A,)`` raw scores.
        mask: ``(A,)`` booleans, True = legal, at least one True.
    """
    if mask.shape != logits.shape:
        raise ConfigError(
            f"mask shape {mask.shape} != logits shape {logits.shape}"
        )
    row = np.where(mask, logits, _NEG_INF)
    row -= row.max()
    np.exp(row, out=row)
    row *= mask
    total = row.sum()
    # The largest legal entry contributes exp(0) = 1, so a zero sum can
    # only mean that nothing was legal.
    if total == 0.0:
        raise ConfigError("a state has no legal action")
    row /= total
    return row


def normalized_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative distribution of ``probs``, normalized by its last entry.

    Raises:
        ValueError: if ``probs`` holds a NaN or infinity, or sums to 0.
    """
    cdf = probs.cumsum()
    total = cdf[-1]
    if not 0.0 < total < np.inf:
        raise ValueError(
            f"probabilities must be finite with a positive sum, got {total}"
        )
    cdf /= total
    return cdf


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from the distribution ``probs`` with one uniform.

    Inverse-CDF sampling, draw for draw what ``Generator.choice(n,
    p=probs)`` does internally (cumulative sum, normalize by its last
    entry, one ``rng.random()``, right-sided binary search) without that
    call's argument validation — so swapping one for the other changes
    neither the sampled index nor the generator's state.

    Raises:
        ValueError: if ``probs`` holds a NaN or infinity, or sums to 0.
    """
    return int(normalized_cdf(probs).searchsorted(rng.random(), side="right"))


def policy_entropy(probs: np.ndarray, rows: Optional[int] = None) -> float:
    """Per-row entropy of a batch of distributions (0 log 0 = 0), summed
    and divided by ``rows`` (default: the batch's rows, i.e. the mean).

    A ``rows`` above the batch's counts rows left out because their
    distribution is one-hot, whose entropy is exactly 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
    rows = probs.shape[0] if rows is None else rows
    return float(-plogp.sum(axis=1).sum() / rows)


def policy_gradient_dlogits(
    probs: np.ndarray,
    actions,
    weights,
    total: Optional[int] = None,
) -> Tuple[np.ndarray, float]:
    """``dLoss/dlogits`` and ``NLL / total`` of the weighted NLL
    ``-sum_i weights_i * log probs[i, actions_i] / total`` (default
    ``total``: the batch's rows).

    ``weights`` is one float per row or a function ``(rows,
    chosen_probabilities) -> weights``, called once here (see
    :data:`repro.rl.network.StepWeights`).

    Raises:
        ConfigError: if actions or weights do not align with the rows,
            or an action has probability 0.
    """
    batch = probs.shape[0]
    total = batch if total is None else total
    rows = np.arange(batch)
    actions = np.asarray(actions, dtype=int)
    if actions.shape[0] != batch:
        raise ConfigError("steps, actions and weights must align")
    chosen = probs[rows, actions]
    if np.any(chosen <= 0.0):
        raise ConfigError("an illegal (zero-probability) action was taken")
    weights_arr = np.asarray(
        weights(rows, chosen) if callable(weights) else weights,
        dtype=np.float64,
    )
    if weights_arr.shape != (batch,):
        raise ConfigError("steps, actions and weights must align")
    onehot = np.zeros_like(probs)
    onehot[rows, actions] = 1.0
    # d(-w log pi_a)/dlogits = w * (probs - onehot); average over total.
    dlogits = weights_arr[:, None] * (probs - onehot) / total
    return dlogits, float(-np.log(chosen).sum() / total)


def entropy_dlogits(probs: np.ndarray, rows: Optional[int] = None) -> np.ndarray:
    """``d(summed entropy / rows)/dlogits`` for a batch of masked
    distributions (default ``rows``: the batch's, i.e. the mean).

    Zero-probability (masked) entries receive exactly zero gradient, and
    so does every entry of a one-hot row.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(probs > 0, np.log(probs), 0.0)
    inner = -(logp + 1.0)
    expected = (probs * inner).sum(axis=1, keepdims=True)
    rows = probs.shape[0] if rows is None else rows
    return probs * (inner - expected) / rows
