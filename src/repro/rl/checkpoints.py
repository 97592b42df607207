"""Checkpointing trained networks to ``.npz`` files.

The checkpoint records the weights plus the metadata needed to rebuild an
identical network (input size, hidden sizes, action count), so loading
never silently mismatches an observation layout.

Schema v2 adds a ``meta_kind`` discriminator (``policy_mlp`` /
``policy_gnn``) so one loader can route any policy
checkpoint to the right model class and mismatches fail with a clear
:class:`~repro.errors.CheckpointError` instead of a shape error deep in
``set_params``.  v1 files (no ``meta_kind``) are still read and treated
as ``policy_mlp`` — that is the only model the v1 writer ever existed
for.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from ..config import GnnConfig, NetworkConfig
from ..errors import CheckpointError
from .gnn import GraphPolicyNetwork
from .network import PolicyNetwork

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "load_policy_checkpoint",
]

_FORMAT_VERSION = 2

#: Model kinds the policy writer knows how to serialize.
_POLICY_KINDS = ("policy_mlp", "policy_gnn")


def save_checkpoint(
    network: Union[PolicyNetwork, GraphPolicyNetwork], path: Union[str, Path]
) -> None:
    """Write ``network`` (weights + architecture metadata) to ``path``.

    Accepts either policy model; the file records its ``kind`` so the
    loaders can verify they are rebuilding what was saved.
    """

    kind = getattr(network, "kind", None)
    if kind not in _POLICY_KINDS:
        raise CheckpointError(
            f"cannot checkpoint model kind {kind!r}; expected one of "
            f"{_POLICY_KINDS}"
        )
    payload = {f"param_{k}": v for k, v in network.params.items()}
    payload["meta_version"] = np.asarray([_FORMAT_VERSION])
    payload["meta_kind"] = np.asarray([kind])
    if kind == "policy_mlp":
        payload["meta_input_size"] = np.asarray([network.input_size])
        payload["meta_hidden_sizes"] = np.asarray(network.config.hidden_sizes)
        payload["meta_max_ready"] = np.asarray([network.config.max_ready])
    else:
        payload["meta_num_resources"] = np.asarray([network.num_resources])
        cfg = network.config
        payload["meta_gnn"] = np.asarray(
            [cfg.hidden_size, cfg.rounds, cfg.head_hidden, cfg.global_hidden]
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **payload)


def _read_kind(data) -> str:
    """The stored model kind; v1 files predate ``meta_kind``."""
    version = int(data["meta_version"][0])
    if version > _FORMAT_VERSION or version < 1:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if version == 1:
        return "policy_mlp"
    return str(data["meta_kind"][0])


def _load_params(network, data) -> None:
    network.set_params(
        {
            key[len("param_") :]: data[key]
            for key in data.files
            if key.startswith("param_")
        }
    )


def _rebuild_mlp(data) -> PolicyNetwork:
    input_size = int(data["meta_input_size"][0])
    hidden_sizes = tuple(int(h) for h in data["meta_hidden_sizes"])
    max_ready = int(data["meta_max_ready"][0])
    config = NetworkConfig(hidden_sizes=hidden_sizes, max_ready=max_ready)
    network = PolicyNetwork(input_size, config, seed=0)
    _load_params(network, data)
    return network


def _rebuild_gnn(data) -> GraphPolicyNetwork:
    num_resources = int(data["meta_num_resources"][0])
    hidden_size, rounds, head_hidden, global_hidden = (
        int(v) for v in data["meta_gnn"]
    )
    config = GnnConfig(
        hidden_size=hidden_size,
        rounds=rounds,
        head_hidden=head_hidden,
        global_hidden=global_hidden,
    )
    network = GraphPolicyNetwork(num_resources, config, seed=0)
    _load_params(network, data)
    return network


def load_policy_checkpoint(
    path: Union[str, Path],
) -> Union[PolicyNetwork, GraphPolicyNetwork]:
    """Rebuild whichever policy model is stored at ``path``.

    Dispatches on the stored ``meta_kind`` (v1 files are ``policy_mlp``
    by definition), so callers that accept any policy — the scheduler
    registry, the CLI — need no model-specific branches.

    Raises:
        CheckpointError: on missing files, unknown kinds/versions,
            corrupted payloads or non-finite parameters.
    """

    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        with np.load(path) as data:
            kind = _read_kind(data)
            if kind == "policy_mlp":
                return _rebuild_mlp(data)
            if kind == "policy_gnn":
                return _rebuild_gnn(data)
            raise CheckpointError(
                f"checkpoint {path} holds unknown model kind {kind!r}"
            )
    except (KeyError, ValueError, OSError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc


def load_checkpoint(path: Union[str, Path]) -> PolicyNetwork:
    """Rebuild the MLP policy network stored at ``path``.

    The historical single-model loader: a checkpoint holding any other
    model kind raises a clear error pointing at
    :func:`load_policy_checkpoint`.

    Raises:
        CheckpointError: on missing files, wrong model kinds, wrong
            format versions or corrupted payloads.
    """

    network = load_policy_checkpoint(path)
    if network.kind != "policy_mlp":
        raise CheckpointError(
            f"checkpoint {path} holds model kind {network.kind!r}, expected "
            f"'policy_mlp'; use load_policy_checkpoint() for other models"
        )
    return network
