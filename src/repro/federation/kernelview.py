"""Shard-local kernel views: re-exported from :mod:`repro.online.kernelview`."""

from ..online.kernelview import ShardKernelView

__all__ = ["ShardKernelView"]
