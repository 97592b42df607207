"""Action encoding for the scheduling MDP.

The paper defines the action set ``{-1, 1, 2, ..., n}`` for ``n`` ready
tasks: ``-1`` processes the cluster (time moves forward) and ``i``
schedules the ``i``-th ready task (time does not move).  We encode the
same set 0-based: ``PROCESS == -1`` and ``0 <= a < n`` schedules the
``a``-th *visible* ready task.  This keeps the action space at ``n + 1``
instead of ``2^n`` — the paper's key search-space reduction.
"""

from __future__ import annotations

__all__ = ["PROCESS", "Action"]

#: The processing action: advance time; all running tasks make progress.
PROCESS: int = -1

#: An action is just an int: PROCESS or a visible-ready-list index.
Action = int
