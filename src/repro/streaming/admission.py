"""Admission control (a part of every engine shard), re-exported from
:mod:`repro.online.admission`."""

from ..online.admission import (
    ADMIT,
    QUEUE,
    REJECT,
    AdmissionConfig,
    AdmissionController,
    QueuedJob,
)

__all__ = ["ADMIT", "QUEUE", "REJECT", "AdmissionConfig", "AdmissionController", "QueuedJob"]
