"""One grammar for every ``name:key=value,...`` spec string.

``repro.specs`` unifies the three spec families users type at the CLI —
scheduler specs, arrival-process specs and federation-router specs —
behind a single tokenizer, typed option schemas and uniform
:class:`~repro.errors.ConfigError` messages with did-you-mean
suggestions.  The family entry points keep their historical homes and
signatures:

* :func:`repro.schedulers.registry.parse_scheduler_spec`
* :func:`repro.streaming.arrivals.parse_arrival_spec`
* :func:`repro.federation.routing.parse_router_spec`

Import from here to *extend* a grammar (a new arrival kind, a new router
policy) or to build a new spec family on the shared machinery.
"""

from .catalog import (
    ARRIVAL_REQUIRED_KEYS,
    ARRIVAL_SPEC_SCHEMAS,
    ROUTER_SPEC_SCHEMAS,
)
from .grammar import (
    ARRIVAL_GRAMMAR,
    FALSE_WORDS,
    ROUTER_GRAMMAR,
    SCHEDULER_GRAMMAR,
    TRUE_WORDS,
    SpecGrammar,
    coerce_option,
    pop_option,
    reject_unknown_options,
    suggest,
    tokenize_spec,
    unknown_kind_error,
)

__all__ = [
    "SpecGrammar",
    "SCHEDULER_GRAMMAR",
    "ARRIVAL_GRAMMAR",
    "ROUTER_GRAMMAR",
    "tokenize_spec",
    "coerce_option",
    "pop_option",
    "reject_unknown_options",
    "unknown_kind_error",
    "suggest",
    "TRUE_WORDS",
    "FALSE_WORDS",
    "ARRIVAL_SPEC_SCHEMAS",
    "ARRIVAL_REQUIRED_KEYS",
    "ROUTER_SPEC_SCHEMAS",
]
