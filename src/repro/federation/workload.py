"""The arrival -> route layer of :mod:`repro.online.workload`, re-exported."""

from ..online.workload import ROUTE_KIND, ArrivalLayer as FederationWorkloadLayer

__all__ = ["ROUTE_KIND", "FederationWorkloadLayer"]
