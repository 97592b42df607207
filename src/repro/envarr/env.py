"""Import-path alias only: ``perfbench/trace.py`` TARGETS (frozen for this
change) still name ``repro.envarr.env:ArraySchedulingEnv``.  Delete this
module together with those entries; nothing in ``repro`` uses it."""

from ..env.scheduling_env import SchedulingEnv

__all__ = ["ArraySchedulingEnv"]

ArraySchedulingEnv = SchedulingEnv
