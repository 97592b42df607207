"""Project import graph and per-module symbol tables.

:class:`ProjectGraph` is the whole-program view every lint rule starts
from: all modules of a package parsed once, imports resolved to dotted
targets, functions and methods indexed by qualified name, and a
project-local call graph with just enough local type inference
(``x = SomeClass(...)`` makes ``x.method()`` resolvable) to trace
contracts through helpers.

Resolution is deliberately *syntactic* and conservative: a call that
cannot be resolved to a project symbol simply contributes no edge, so
analyses built on top under-approximate reachability rather than guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

__all__ = ["ModuleInfo", "FunctionInfo", "ClassInfo", "ProjectGraph", "dotted_name"]


def dotted_name(expr: ast.expr) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains to ``"a.b.c"`` (else ``None``)."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One function or method, addressable by qualified name."""

    qualname: str  #: ``pkg.mod.func`` or ``pkg.mod.Class.method``
    module: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    class_name: Optional[str] = None  #: enclosing class simple name, if a method

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    """One class: qualified name and its methods by simple name."""

    qualname: str
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module plus its resolved symbol tables."""

    name: str  #: dotted module name, e.g. ``repro.utils.rng``
    path: str  #: source path as given to the builder (what violations display)
    tree: ast.Module
    source: str
    #: local alias -> dotted target (``np`` -> ``numpy``,
    #: ``as_generator`` -> ``repro.utils.rng.as_generator``).
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: names assigned at module level (the module's state).
    module_assigns: Set[str] = field(default_factory=set)

    def resolve_local(self, name: str) -> Optional[str]:
        """Resolve a bare name used in this module to a dotted target."""
        if name in self.imports:
            return self.imports[name]
        if name in self.functions:
            return f"{self.name}.{name}"
        if name in self.classes:
            return f"{self.name}.{name}"
        if name in self.module_assigns:
            return f"{self.name}.{name}"
        return None


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """Resolve ``from ..x import y`` relative to ``module``'s package."""
    # ``module`` is the dotted module name; its package drops the last part.
    parts = module.split(".")
    # level 1 = current package, level 2 = parent package, ...
    base = parts[: len(parts) - level]
    if target:
        base = base + target.split(".")
    return ".".join(base)


def _collect_imports(module: str, tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(module, node.level, node.module)
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


def _index_module(name: str, path: str, source: str, tree: ast.Module) -> ModuleInfo:
    info = ModuleInfo(
        name=name,
        path=path,
        tree=tree,
        source=source,
        imports=_collect_imports(name, tree),
    )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(
                qualname=f"{name}.{node.name}", module=name, node=node
            )
        elif isinstance(node, ast.ClassDef):
            cls = ClassInfo(qualname=f"{name}.{node.name}")
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = FunctionInfo(
                        qualname=f"{name}.{node.name}.{item.name}",
                        module=name,
                        node=item,
                        class_name=node.name,
                    )
            info.classes[node.name] = cls
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    info.module_assigns.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                info.module_assigns.add(node.target.id)
    return info


class ProjectGraph:
    """All modules of a project, indexed for whole-program queries."""

    def __init__(
        self,
        modules: Iterable[ModuleInfo],
        unparsable: Iterable[Tuple[str, Exception]] = (),
    ) -> None:
        self.modules: Dict[str, ModuleInfo] = {m.name: m for m in modules}
        #: ``(path, error)`` of every source that failed to parse.
        self.unparsable: List[Tuple[str, Exception]] = list(unparsable)
        self._by_path: Dict[str, ModuleInfo] = {m.path: m for m in self.modules.values()}
        #: every function/method by qualified name.
        self.functions: Dict[str, FunctionInfo] = {}
        #: every class by qualified name.
        self.classes: Dict[str, ClassInfo] = {}
        for mod in self.modules.values():
            for fn in mod.functions.values():
                self.functions[fn.qualname] = fn
            for cls in mod.classes.values():
                self.classes[cls.qualname] = cls
                for method in cls.methods.values():
                    self.functions[method.qualname] = method

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "ProjectGraph":
        """Build a graph from ``{path: source}``.

        The dotted module name is derived from the path with any leading
        ``src/`` stripped: ``"src/pkg/mod.py"`` and ``"pkg/mod.py"``
        both become ``pkg.mod``.  A source that does not parse is left
        out of the graph and recorded in :attr:`unparsable` (the linter
        reports it as ``REP000``); the rules run on what parses.
        """
        modules: List[ModuleInfo] = []
        unparsable: List[Tuple[str, Exception]] = []
        for path, source in sources.items():
            try:
                tree = ast.parse(source)
            except (SyntaxError, ValueError) as exc:  # ValueError: NUL bytes, 3.10
                unparsable.append((path, exc))
                continue
            modules.append(
                _index_module(_module_name(Path(path)), path, source, tree)
            )
        return cls(modules, unparsable)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def module_for_path(self, path: Union[str, Path]) -> Optional[ModuleInfo]:
        return self._by_path.get(str(path))

    def resolve_call(
        self,
        module: ModuleInfo,
        func: ast.expr,
        local_types: Optional[Mapping[str, str]] = None,
        self_class: Optional[str] = None,
    ) -> Optional[str]:
        """Resolve a call's function expression to a dotted target name.

        Handles bare names (via imports and module symbols), dotted
        chains rooted at an import (``np.random.default_rng``),
        ``self.method()`` inside a known class, and ``var.method()``
        where ``var`` was locally bound to a project-class construction
        (``local_types`` maps var -> class qualname).  Returns ``None``
        when the target is unknown.
        """
        if isinstance(func, ast.Name):
            return module.resolve_local(func.id)
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and self_class:
                    return f"{self_class}.{func.attr}"
                if local_types and base.id in local_types:
                    return f"{local_types[base.id]}.{func.attr}"
            name = dotted_name(func)
            if name is None:
                return None
            head, _, rest = name.partition(".")
            resolved_head = module.resolve_local(head)
            if resolved_head is None:
                return None
            return f"{resolved_head}.{rest}" if rest else resolved_head
        return None

    def function(self, qualname: str) -> Optional[FunctionInfo]:
        """Look up a function, following ``Class`` -> ``Class.__init__``."""
        fn = self.functions.get(qualname)
        if fn is not None:
            return fn
        cls = self.classes.get(qualname)
        if cls is not None:
            return cls.methods.get("__init__")
        return None

    def infer_local_types(self, fn: FunctionInfo) -> Dict[str, str]:
        """Map local names to project-class qualnames for obvious bindings.

        Only the transparent case is handled: ``x = SomeClass(...)``
        where ``SomeClass`` resolves to a project class.  Enough to
        follow ``scheduler = MctsScheduler(...); scheduler.plan(request)``.
        """
        module = self.modules[fn.module]
        types: Dict[str, str] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                target_names = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                if not target_names:
                    continue
                resolved = self.resolve_call(module, node.value.func)
                if resolved in self.classes:
                    for name in target_names:
                        types[name] = resolved
        return types


def _module_name(path: Path) -> str:
    """Derive a dotted module name from a file path.

    Walks up through package directories (those containing
    ``__init__.py``) when the file exists on disk; for in-memory paths it
    uses the path parts with a leading ``src`` component stripped.
    """
    path = Path(path)
    if path.exists():
        parts = [path.stem] if path.stem != "__init__" else []
        parent = path.parent
        while (parent / "__init__.py").exists():
            parts.append(parent.name)
            parent = parent.parent
        if parts:
            return ".".join(reversed(parts))
    parts_t: Tuple[str, ...] = path.parts
    if parts_t and parts_t[0] in ("src", "."):
        parts_t = parts_t[1:]
    stem = [Path(parts_t[-1]).stem] if parts_t else [path.stem]
    if stem == ["__init__"]:
        stem = []
    return ".".join(list(parts_t[:-1]) + stem) if parts_t else path.stem
