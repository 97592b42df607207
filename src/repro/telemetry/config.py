"""Telemetry configuration.

:class:`TelemetryConfig` is a frozen value object, like every other
config in :mod:`repro.config`: it describes *what* a telemetry pipeline
captures and where events go and never holds run-time state.  Its one
consumer is :func:`repro.telemetry.runtime.session`, which builds the
pipeline for a ``with`` block; components never take a config of their
own.

The default is **disabled**: a session opened with the default config
installs the no-op pipeline, and instrumented code pays only a flag
check, which is what keeps the hot paths inside the bench budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError

__all__ = ["TelemetryConfig"]


@dataclass(frozen=True)
class TelemetryConfig:
    """Shape of one telemetry pipeline.

    Attributes:
        enabled: master switch.  ``False`` (the default) makes every
            instrumentation point a no-op.
        jsonl_path: stream every event to this JSONL file (see
            :mod:`repro.telemetry.analyze` for the reader).  ``None``
            keeps events in memory only.
        capture_memory: keep events in an in-memory ring (required for
            :meth:`repro.telemetry.runtime.Telemetry.events` and for
            post-run export when no ``jsonl_path`` is set).
        max_events: capacity of the in-memory ring; the oldest events are
            dropped first once it is full.
    """

    enabled: bool = False
    jsonl_path: Optional[str] = None
    capture_memory: bool = True
    max_events: int = 200_000

    def __post_init__(self) -> None:
        if self.max_events < 1:
            raise ConfigError("max_events must be >= 1")
        if self.enabled and not (self.capture_memory or self.jsonl_path):
            raise ConfigError(
                "enabled telemetry needs at least one sink "
                "(capture_memory or jsonl_path)"
            )
