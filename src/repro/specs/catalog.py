"""Declarative option schemas for the fixed spec families.

Scheduler schemas are *dynamic* — declared per name at
:func:`repro.schedulers.registry.register` time — but the arrival-process
and federation-router grammars have a closed set of kinds, so their
schemas live here as plain literals.  Two consumers read them:

* the parsers (:func:`repro.streaming.arrivals.parse_arrival_spec`,
  :func:`repro.federation.routing.parse_router_spec`) validate option
  keys and coerce values against these tables;
* ``repro.specs.grammar`` derives did-you-mean suggestions and the
  ``expected ...`` phrase of unknown-kind errors from the insertion
  order.

Keep kinds in their documented order — error messages enumerate them in
insertion order.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "ARRIVAL_SPEC_SCHEMAS",
    "ARRIVAL_REQUIRED_KEYS",
    "ROUTER_SPEC_SCHEMAS",
]

#: Arrival-process kinds (``repro.streaming.arrivals``): option key -> type.
ARRIVAL_SPEC_SCHEMAS: Dict[str, Dict[str, type]] = {
    "poisson": {"rate": float, "n": int},
    "uniform": {"interarrival": int, "n": int},
    "trace": {"path": str, "mean": float, "interarrival": int},
}

#: Keys a kind cannot parse without.  ``trace`` additionally requires
#: exactly one of ``mean``/``interarrival``, which a flat table cannot
#: express; the parser enforces that choice.
ARRIVAL_REQUIRED_KEYS: Dict[str, Tuple[str, ...]] = {
    "poisson": ("rate", "n"),
    "uniform": ("interarrival", "n"),
    "trace": ("path",),
}

#: Federation router policies (``repro.federation.routing``).
ROUTER_SPEC_SCHEMAS: Dict[str, Dict[str, type]] = {
    "round-robin": {},
    "least-load": {"metric": str},
    "hash": {"salt": int},
    "affinity": {"spill": int},
}
