"""Project-graph construction: imports, symbols, call resolution."""

import textwrap

from repro.analysis.modgraph import ProjectGraph, dotted_name


def graph(**sources):
    return ProjectGraph.from_sources(
        {
            path.replace("__", "/") + ".py": textwrap.dedent(src)
            for path, src in sources.items()
        }
    )


class TestModuleNaming:
    def test_src_prefix_stripped(self):
        g = graph(src__pkg__mod="X = 1\n")
        assert "pkg.mod" in g.modules

    def test_init_becomes_package(self):
        g = ProjectGraph.from_sources({"pkg/__init__.py": "X = 1\n"})
        assert "pkg" in g.modules


class TestImports:
    def test_plain_import_alias(self):
        g = graph(pkg__a="import numpy as np\n")
        assert g.modules["pkg.a"].imports["np"] == "numpy"

    def test_from_import(self):
        g = graph(pkg__a="from numpy.random import default_rng\n")
        assert (
            g.modules["pkg.a"].imports["default_rng"]
            == "numpy.random.default_rng"
        )

    def test_relative_import_resolves_against_package(self):
        g = graph(pkg__sub__a="from ..helpers import poke\n")
        assert g.modules["pkg.sub.a"].imports["poke"] == "pkg.helpers.poke"


class TestSymbols:
    SRC = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Snapshot:
        x: int

    @dataclass
    class Mutable:
        x: int

    class Plain:
        def method(self):
            return self.x

    def helper():
        return 1
    """

    def test_functions_and_methods_indexed(self):
        g = graph(pkg__a=self.SRC)
        assert "pkg.a.helper" in g.functions
        assert "pkg.a.Plain.method" in g.functions
        assert g.functions["pkg.a.Plain.method"].class_name == "Plain"


class TestResolveCall:
    def test_dotted_chain_through_import(self):
        import ast

        g = graph(pkg__a="import numpy as np\nnp.random.default_rng()\n")
        mod = g.modules["pkg.a"]
        call = next(n for n in ast.walk(mod.tree) if isinstance(n, ast.Call))
        assert g.resolve_call(mod, call.func) == "numpy.random.default_rng"

    def test_imported_function_and_local_function(self):
        import ast

        g = graph(
            pkg__helpers="def poke():\n    pass\n",
            pkg__a="from .helpers import poke\n\ndef own():\n    poke()\n    own()\n",
        )
        mod = g.modules["pkg.a"]
        calls = [n for n in ast.walk(mod.tree) if isinstance(n, ast.Call)]
        resolved = {g.resolve_call(mod, c.func) for c in calls}
        assert resolved == {"pkg.helpers.poke", "pkg.a.own"}

    def test_self_method_resolution(self):
        import ast

        g = graph(
            pkg__a="class C:\n    def f(self):\n        self.g()\n    def g(self):\n        pass\n"
        )
        mod = g.modules["pkg.a"]
        call = next(n for n in ast.walk(mod.tree) if isinstance(n, ast.Call))
        assert g.resolve_call(mod, call.func, self_class="pkg.a.C") == "pkg.a.C.g"

    def test_class_lookup_follows_init(self):
        g = graph(
            pkg__a="class C:\n    def __init__(self, x):\n        self.x = x\n"
        )
        fn = g.function("pkg.a.C")
        assert fn is not None and fn.name == "__init__"

    def test_local_type_inference(self):
        g = graph(
            pkg__a="class C:\n    def run(self):\n        pass\n\ndef use():\n    c = C()\n    c.run()\n"
        )
        fn = g.functions["pkg.a.use"]
        assert g.infer_local_types(fn) == {"c": "pkg.a.C"}

    def test_unknown_target_is_none(self):
        import ast

        g = graph(pkg__a="mystery()\n")
        mod = g.modules["pkg.a"]
        call = next(n for n in ast.walk(mod.tree) if isinstance(n, ast.Call))
        assert g.resolve_call(mod, call.func) is None


class TestDottedName:
    def test_chain(self):
        import ast

        expr = ast.parse("a.b.c", mode="eval").body
        assert dotted_name(expr) == "a.b.c"

    def test_non_name_root(self):
        import ast

        expr = ast.parse("f().b", mode="eval").body
        assert dotted_name(expr) is None
