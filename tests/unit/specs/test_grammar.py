"""The one ``kind:key=value,...`` spec parser (repro.specs).

One tokenizer, one typed-options function and one error wording for the
scheduler, arrival, router and fault spec families.
"""

import pytest

from repro.errors import ConfigError
from repro.faults.plan import FAULT_SPEC_SCHEMA
from repro.federation.routing import ROUTER_SPEC_SCHEMAS, parse_router_spec
from repro.schedulers.registry import parse_scheduler_spec
from repro.specs import Schema, parse_spec, tokenize, typed_options, unknown
from repro.streaming.arrivals import ARRIVAL_SPEC_SCHEMAS

FAMILIES = ("scheduler", "arrival", "router", "fault")

SCHEMA = Schema({"rate": float, "n": int, "path": str, "on": bool}, required=("n",))


class TestTokenizer:
    def test_bare_name(self):
        assert tokenize("scheduler", "heft") == ("heft", {})

    def test_options_split_and_strip(self):
        name, opts = tokenize("scheduler", " mcts : budget = 200 , seed=3 ")
        assert name == "mcts"
        assert opts == {"budget": "200", "seed": "3"}

    def test_empty_entries_skipped(self):
        assert tokenize("arrival", "a:,x=1,") == ("a", {"x": "1"})

    def test_empty_name_rejected_when_required(self):
        # A scheduler spec always names a scheduler.
        with pytest.raises(ConfigError, match="unknown scheduler ''"):
            parse_scheduler_spec(":budget=1")

    def test_empty_name_tolerated_for_kind_families(self):
        # The tokenizer passes an empty kind on; the family reports it
        # as an unknown kind.
        assert tokenize("router", ":x=1")[0] == ""
        with pytest.raises(ConfigError, match="unknown router ''"):
            parse_spec("router", ":x=1", ROUTER_SPEC_SCHEMAS)

    def test_duplicate_key_rejected_in_every_family(self):
        for family in FAMILIES:
            with pytest.raises(
                ConfigError, match=rf"^{family} spec 'name:a=1,a=2': repeats key 'a'$"
            ):
                tokenize(family, "name:a=1,a=2")

    def test_family_phrasing_preserved(self):
        # Every family words an error the same way, naming itself.
        for family in FAMILIES:
            with pytest.raises(
                ConfigError, match=rf"^{family} spec 'hash:x': entry 'x' is not key=value$"
            ):
                tokenize(family, "hash:x")

    def test_a_spec_without_kinds_is_all_options(self):
        assert tokenize("fault", "crashes=1, seed=2", kinded=False) == (
            "",
            {"crashes": "1", "seed": "2"},
        )


class TestPopOption:
    """Typing tokenized options against a schema."""

    def test_typed_pop(self):
        opts = {"rate": "0.5", "n": "10", "path": "t.json"}
        assert typed_options("arrival", "s", opts, SCHEMA) == {
            "rate": 0.5, "n": 10, "path": "t.json",
        }

    def test_missing_required(self):
        with pytest.raises(
            ConfigError, match=r"^arrival spec 's': missing required key 'n'$"
        ):
            typed_options("arrival", "s", {"rate": "0.5"}, SCHEMA)

    def test_missing_optional_returns_default(self):
        # An absent optional key is absent; the family applies its default.
        assert typed_options("router", "s", {"n": "1"}, SCHEMA) == {"n": 1}
        assert parse_router_spec("hash").salt == 0

    def test_bad_integer_and_number(self):
        with pytest.raises(ConfigError, match=r"^arrival spec 's': n='x' is not an int$"):
            typed_options("arrival", "s", {"n": "x"}, SCHEMA)
        with pytest.raises(
            ConfigError, match=r"^arrival spec 's': rate='x' is not a float$"
        ):
            typed_options("arrival", "s", {"rate": "x"}, SCHEMA)

    def test_bool_words(self):
        for word, value in (("yes", True), ("ON", True), ("0", False), ("off", False)):
            assert typed_options("s", "s", {"on": word, "n": "1"}, SCHEMA)["on"] is value
        with pytest.raises(ConfigError, match=r"on='maybe' is not a bool \(true/false\)"):
            typed_options("s", "s", {"on": "maybe"}, SCHEMA)


class TestCoerceOption:
    """Programmatic options arrive typed."""

    def test_string_coercion(self):
        schema = Schema({"budget": int, "verify": bool})
        assert typed_options("scheduler", "mcts", {"budget": "50", "verify": "true"},
                             schema) == {"budget": 50, "verify": True}

    def test_pretyped_passthrough_and_widening(self):
        typed = typed_options("scheduler", "s", {"n": 50, "rate": 2}, SCHEMA)
        assert typed == {"n": 50, "rate": 2.0}
        assert type(typed["rate"]) is float
        marker = object()
        schema = Schema({"network": lambda raw: f"<{raw}>"})
        assert typed_options("scheduler", "s", {"network": "a.npz"}, schema) == {
            "network": "<a.npz>"
        }
        assert typed_options("scheduler", "s", {"network": marker}, schema) == {
            "network": marker
        }

    def test_mismatch_message(self):
        with pytest.raises(ConfigError, match=r"^scheduler spec 's': n=2.5 is not an int$"):
            typed_options("scheduler", "s", {"n": 2.5}, SCHEMA)
        with pytest.raises(ConfigError, match=r"on=1 is not a bool"):
            typed_options("scheduler", "s", {"on": 1, "n": 1}, SCHEMA)


class TestDidYouMean:
    def test_suggest_close_and_far(self):
        kinds = ["poisson", "uniform"]
        assert str(unknown("arrival", "s", "arrival", "poison", kinds)).endswith(
            "; did you mean 'poisson'?"
        )
        assert str(unknown("arrival", "s", "arrival", "zzz", kinds)) == (
            "arrival spec 's': unknown arrival 'zzz'; known: ['poisson', 'uniform']"
        )

    def test_unknown_kind_enumerates_in_order(self):
        with pytest.raises(ConfigError) as error:
            parse_spec("arrival", "poison:rate=1", ARRIVAL_SPEC_SCHEMAS)
        assert str(error.value) == (
            "arrival spec 'poison:rate=1': unknown arrival 'poison'; "
            "known: ['poisson', 'uniform', 'trace']; did you mean 'poisson'?"
        )
        with pytest.raises(
            ConfigError, match=r"known: \['round-robin', 'least-load', 'hash', 'affinity'\]"
        ):
            parse_spec("router", "xx", ROUTER_SPEC_SCHEMAS)

    def test_reject_unknown_suggests(self):
        with pytest.raises(
            ConfigError,
            match=r"^router spec 'hash:salty=3': unknown key 'salty'; "
            r"known: \['salt'\]; did you mean 'salt'\?$",
        ):
            parse_spec("router", "hash:salty=3", ROUTER_SPEC_SCHEMAS)


class TestCatalog:
    def test_required_keys_are_schema_subsets(self):
        for schema in ARRIVAL_SPEC_SCHEMAS.values():
            assert set(schema.required) <= set(schema)

    def test_parsers_agree_with_catalog(self):
        # Every router policy parses with its full key set, and a spec
        # without kinds parses to the empty kind.
        parse_router_spec("round-robin")
        parse_router_spec("least-load:metric=tasks")
        parse_router_spec("hash:salt=7")
        parse_router_spec("affinity:spill=4")
        assert parse_spec("fault", "crashes=2", FAULT_SPEC_SCHEMA) == ("", {"crashes": 2})
