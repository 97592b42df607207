"""REP205 — shared-state escape from process-parallel entry points.

Root-parallel MCTS fans work out with ``multiprocessing.Pool.map``:
each worker runs in a *forked/spawned process*, so any write it makes
to module-level state is silently thrown away when the worker exits —
on the parent it looks like a cache that never fills, a counter stuck
at zero, or (worse) results that differ between ``workers=1`` and
``workers=8``.  Nothing crashes; the numbers are just wrong.

This rule finds the worker entry points statically — project functions
passed to ``map``/``imap``/``imap_unordered``/``starmap``/``apply``/
``apply_async`` on a ``multiprocessing.Pool`` (or ``submit`` on a
``ProcessPoolExecutor``) — walks every project function reachable from
them through the call graph, and flags writes to module-level state
inside that worker closure:

* ``global NAME`` rebinding;
* item/attribute writes on a module-level name
  (``_CACHE[key] = ...``);
* in-place mutator calls on a module-level name
  (``_RESULTS.append(...)``) — unless the name is shadowed by a local
  binding, in which case it is the worker's own object.

Thread pools are exempt on purpose: threads share memory, so the same
write is *visible* (merely racy, which is REP-future territory).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..modgraph import FunctionInfo, ModuleInfo, ProjectGraph
from .base import LintViolation, Rule

__all__ = ["ParallelEscapeRule"]

#: dotted constructors whose instances dispatch to *processes*.
_POOL_TYPES = frozenset(
    {
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
        "multiprocessing.get_context",  # ctx.Pool() chains resolve here
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
    }
)

#: pool methods whose first argument is the worker callable.
_DISPATCH_METHODS = frozenset(
    {"map", "imap", "imap_unordered", "starmap", "apply", "apply_async", "submit"}
)

#: method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "sort",
        "reverse",
    }
)


def _pool_locals(
    project: ProjectGraph, module: ModuleInfo, fn: FunctionInfo
) -> Set[str]:
    """Local names bound to a process-pool construction in ``fn``.

    Covers ``pool = multiprocessing.Pool(n)`` and
    ``with multiprocessing.Pool(n) as pool:`` (the repo's idiom).
    """
    names: Set[str] = set()

    def _is_pool_call(expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        target = project.resolve_call(module, expr.func)
        return target is not None and (
            target in _POOL_TYPES
            or any(target.startswith(t + ".") for t in ("multiprocessing",))
            and target.endswith(".Pool")
        )

    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and _is_pool_call(node.value):
            names.update(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _is_pool_call(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    names.add(item.optional_vars.id)
    return names


def _local_bindings(fn: FunctionInfo) -> Set[str]:
    """Every name bound locally in ``fn`` (params + stores)."""
    args = fn.node.args
    bound = {
        a.arg
        for a in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
    }
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    return bound


class ParallelEscapeRule(Rule):
    rule_id = "REP205"
    description = (
        "write to module-level state reachable from a process-pool worker; "
        "the write dies with the worker process"
    )

    def check(self, project: ProjectGraph) -> Iterable[LintViolation]:
        entries = self._entry_points(project)
        violations: List[LintViolation] = []
        reported: Set[Tuple[str, int, str]] = set()
        for entry in sorted(entries):
            for fn in self._reachable(project, entry):
                for violation in self._check_worker_fn(project, fn, entry):
                    key = (violation.path, violation.line, violation.message)
                    if key in reported:
                        continue
                    reported.add(key)
                    violations.append(violation)
        return violations

    # ------------------------------------------------------------------ #
    # entry-point discovery + reachability
    # ------------------------------------------------------------------ #

    def _entry_points(self, project: ProjectGraph) -> Set[str]:
        entries: Set[str] = set()
        for fn in project.functions.values():
            module = project.modules[fn.module]
            pools = _pool_locals(project, module, fn)
            if not pools:
                continue
            self_class = (
                f"{fn.module}.{fn.class_name}" if fn.class_name else None
            )
            local_types = project.infer_local_types(fn)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in _DISPATCH_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in pools
                    and node.args
                ):
                    continue
                worker = project.resolve_call(
                    module, node.args[0], local_types, self_class
                )
                if worker is not None and project.function(worker) is not None:
                    entries.add(project.function(worker).qualname)
        return entries

    def _reachable(
        self, project: ProjectGraph, entry: str
    ) -> Iterable[FunctionInfo]:
        seen: Set[str] = set()
        queue: List[str] = [entry]
        while queue:
            qualname = queue.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            fn = project.functions.get(qualname)
            if fn is None:
                continue
            yield fn
            module = project.modules[fn.module]
            self_class = (
                f"{fn.module}.{fn.class_name}" if fn.class_name else None
            )
            local_types = project.infer_local_types(fn)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                target = project.resolve_call(
                    module, node.func, local_types, self_class
                )
                if target is None:
                    continue
                callee = project.function(target)
                if callee is not None and callee.qualname not in seen:
                    queue.append(callee.qualname)

    # ------------------------------------------------------------------ #
    # per-worker-function checks
    # ------------------------------------------------------------------ #

    def _check_worker_fn(
        self, project: ProjectGraph, fn: FunctionInfo, entry: str
    ) -> Iterable[LintViolation]:
        module = project.modules[fn.module]
        module_state = module.module_assigns
        locals_ = _local_bindings(fn)
        globals_declared: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        shadowed = locals_ - globals_declared
        violations: List[LintViolation] = []

        def _shared(name: str) -> bool:
            return name in module_state and name not in shadowed

        via = (
            f"in process-pool worker {fn.qualname} (entry point {entry})"
            if fn.qualname != entry
            else f"in process-pool worker {fn.qualname}"
        )
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)
                and node.id in globals_declared
                and node.id in module_state
            ):
                violations.append(
                    self.violation(
                        node,
                        module.path,
                        f"global {node.id!r} rebound {via}; the write is "
                        "lost when the worker process exits",
                    )
                )
            elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                base = node.value
                if isinstance(base, ast.Name) and _shared(base.id):
                    violations.append(
                        self.violation(
                            node,
                            module.path,
                            f"write to module-level {base.id!r} {via}; "
                            "worker processes do not share memory — return "
                            "results instead",
                        )
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATORS
                    and isinstance(func.value, ast.Name)
                    and _shared(func.value.id)
                ):
                    violations.append(
                        self.violation(
                            node,
                            module.path,
                            f"in-place {func.attr}() on module-level "
                            f"{func.value.id!r} {via}; worker processes do "
                            "not share memory — return results instead",
                        )
                    )
        return violations
