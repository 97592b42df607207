"""One parser for every spec string.

Users type four families of spec strings: scheduler specs
(``mcts:budget=200,seed=3``), arrival specs (``poisson:rate=0.05,n=1000``),
router specs (``least-load:metric=tasks``) and fault specs
(``crashes=2,transient=0.05``, which name no kind).  Each family declares
a :class:`Schema` per kind next to its constructor; this module splits a
spec with one tokenizer and checks and types its options with one
function, so every family rejects the same mistakes — an entry that is
not ``key=value``, a repeated, unknown or missing key, a value of the
wrong type, an unknown kind — with one wording::

    arrival spec 'poisson:rate=abc,n=5': rate='abc' is not a float

An unknown kind or key lists what is known and suggests the closest.
The family entry points are
:func:`repro.schedulers.registry.make_scheduler`,
:func:`repro.streaming.parse_arrival_spec`,
:func:`repro.federation.parse_router_spec` and
:func:`repro.faults.parse_fault_spec`.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import ConfigError

__all__ = [
    "Schema",
    "OptionType",
    "tokenize",
    "typed_options",
    "parse_spec",
    "spec_error",
    "unknown",
]

#: How an option's raw string becomes its value: ``int``, ``float``,
#: ``bool``, ``str``, or any one-argument callable.
OptionType = Callable[[str], Any]

#: Spellings accepted for boolean option values (case-insensitive).
TRUE_WORDS = ("1", "true", "yes", "on")
FALSE_WORDS = ("0", "false", "no", "off")

#: What a value that fails its type is said not to be.
_TYPE_NAMES: Dict[Any, str] = {
    int: "an int",
    float: "a float",
    bool: "a bool (true/false)",
    str: "a str",
}


class Schema(Dict[str, OptionType]):
    """The options of one spec kind, ``key -> type``, and the keys it requires."""

    def __init__(
        self,
        types: Optional[Mapping[str, OptionType]] = None,
        required: Tuple[str, ...] = (),
    ) -> None:
        super().__init__(types or {})
        self.required = required


def spec_error(family: str, spec: str, problem: str) -> ConfigError:
    """A one-line error naming the family and the spec, then the problem."""
    return ConfigError(f"{family} spec {spec!r}: {problem}")


def unknown(
    family: str, spec: str, what: str, word: str, known: Iterable[str]
) -> ConfigError:
    """An unknown kind or key, with what is known and the closest match."""
    names = list(known)
    close = difflib.get_close_matches(word, names, n=1, cutoff=0.6)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return spec_error(family, spec, f"unknown {what} {word!r}; known: {names}{hint}")


def tokenize(
    family: str, spec: str, kinded: bool = True
) -> Tuple[str, Dict[str, str]]:
    """Split ``"kind:key=value,..."`` into the kind and the raw values.

    A spec of a family without kinds (not ``kinded``) is all options and
    splits to ``("", options)``.  Whitespace around names and values is
    dropped, and so are empty entries (``"kind:,x=1,"``).

    Raises:
        ConfigError: on an entry that is not ``key=value`` or a repeated key.
    """
    kind, _, rest = spec.partition(":") if kinded else ("", "", spec)
    options: Dict[str, str] = {}
    for part in rest.split(","):
        part = part.strip()
        if not part:
            continue
        key, equals, raw = part.partition("=")
        key = key.strip()
        if not equals:
            raise spec_error(family, spec, f"entry {part!r} is not key=value")
        if key in options:
            raise spec_error(family, spec, f"repeats key {key!r}")
        options[key] = raw.strip()
    return kind.strip(), options


def _coerce(family: str, spec: str, key: str, value: Any, typ: OptionType) -> Any:
    """One option value as its declared type.

    A programmatic option arrives typed: it passes as it is when it has
    its type or a type this module does not check, and an int is widened
    where a float is declared.
    """
    if isinstance(value, str):
        if typ is bool:
            if value.lower() in TRUE_WORDS:
                return True
            if value.lower() in FALSE_WORDS:
                return False
        else:
            try:
                return typ(value)
            except (TypeError, ValueError):
                pass
    elif typ not in _TYPE_NAMES:
        return value
    elif typ is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    elif isinstance(value, typ):  # type: ignore[arg-type]
        return value
    name = _TYPE_NAMES.get(typ, f"a {typ.__name__}")
    raise spec_error(family, spec, f"{key}={value!r} is not {name}")


def typed_options(
    family: str, spec: str, options: Mapping[str, Any], schema: Schema
) -> Dict[str, Any]:
    """Check ``options`` against ``schema`` and type their values.

    Raises:
        ConfigError: on a key the schema does not declare, a value that is
            not of its key's type, or a missing required key.
    """
    typed: Dict[str, Any] = {}
    for key, value in options.items():
        if key not in schema:
            raise unknown(family, spec, "key", key, schema)
        typed[key] = _coerce(family, spec, key, value, schema[key])
    for key in schema.required:
        if key not in typed:
            raise spec_error(family, spec, f"missing required key {key!r}")
    return typed


def parse_spec(
    family: str, spec: str, schemas: Union[Schema, Mapping[str, Schema]]
) -> Tuple[str, Dict[str, Any]]:
    """Parse a spec into its kind and typed options.

    ``schemas`` maps each kind of the family to its schema, or is the one
    schema of a family without kinds (whose kind parses as ``""``).

    Raises:
        ConfigError: on an unknown kind, or as :func:`tokenize` and
            :func:`typed_options` do.
    """
    if isinstance(schemas, Schema):
        kind, options = tokenize(family, spec, kinded=False)
        return kind, typed_options(family, spec, options, schemas)
    kind, options = tokenize(family, spec)
    if kind not in schemas:
        raise unknown(family, spec, family, kind, schemas)
    return kind, typed_options(family, spec, options, schemas[kind])
