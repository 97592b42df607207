"""Regenerate ``spear_mlp.npz``, the policy checkpoint ``spear_plan`` loads.

The checkpoint is committed so that ``spear_plan`` plans with the same
network whatever later changes do to the trainers: a faster or different
trainer must not change the planning benchmark's inputs.  It is the
laptop-scale recipe of ``repro.experiments`` (12 examples x 12 tasks,
30 imitation epochs, 20 REINFORCE epochs x 6 rollouts, batch 4), seed 0,
checkpoint schema v2.

Run from the repository root::

    python3 perfbench/data/make_checkpoint.py

It rewrites ``spear_mlp.npz`` and ``spear_mlp.sha256`` next to this file.
The hash is over the parameter arrays, not the ``.npz`` container (zip
members carry timestamps), and is what ``perfbench.workloads`` verifies
before planning.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread: the summation order, and so the weights, must not
# depend on how many cores the machine has.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parents[1]))


def main() -> int:
    from perfbench.checks import params_digest
    from repro.config import EnvConfig, TrainingConfig, WorkloadConfig
    from repro.core.pipeline import train_spear_network
    from repro.rl.checkpoints import load_policy_checkpoint, save_checkpoint

    training = TrainingConfig(
        num_examples=12,
        example_num_tasks=12,
        epochs=20,
        rollouts_per_example=6,
        supervised_epochs=30,
        batch_size=4,
    )
    network, history = train_spear_network(
        env_config=EnvConfig(process_until_completion=True),
        training=training,
        workload=WorkloadConfig(),
        seed=0,
    )
    path = HERE / "spear_mlp.npz"
    save_checkpoint(network, path)
    digest = params_digest(load_policy_checkpoint(path).params)
    (HERE / "spear_mlp.sha256").write_text(digest + "\n")
    print(f"wrote {path.name}: {len(history)} epochs, params sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
