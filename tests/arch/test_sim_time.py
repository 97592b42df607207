"""Sim time is an integer slot count, and the sim packages read no wall clock.

The discrete-event kernel orders events by ``(time, class, seq)`` with
exact equality, and every layer above it (``repro.online``,
``repro.cluster``, ``repro.streaming``, ``repro.federation``) counts
slots.  One wall-clock read, or one float leaking into time arithmetic,
silently brings back the nondeterminism the kernel removed: bit-identical
replays stop replaying.  Wall-clock measurement belongs in
``repro.utils.timing``, which schedulers use for planning budgets,
outside sim time.

Inside those packages this check flags, one AST walk per module:

* calls that read a wall clock (``time.time()``, ``time.monotonic()``,
  ``datetime.now()``, ...), resolved through the module's own import
  table, so an alias (``from time import monotonic as mono``) is caught;
* true division (``/``) of a time-named operand (``now``, ``clock.now``,
  ``sim_time``, ...), and ``+ - *`` combining one with a float literal.
"""

import ast
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
SIM_PACKAGES = ("sim", "online", "cluster", "streaming", "federation")

#: dotted call targets that read a wall clock.
WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: names that denote a sim-time value when used in arithmetic.
TIME_NAMES = frozenset({"now", "sim_time", "current_time", "clock"})


def in_scope(path):
    """Whether ``path`` (``repro/<package>/...``) is a sim-package module."""
    parts = Path(path).parts
    return len(parts) > 2 and parts[0] == "repro" and parts[1] in SIM_PACKAGES


def import_table(tree):
    """Local name -> dotted target of every absolute import in ``tree``."""
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                table[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def call_target(func, imports):
    """The dotted name a call's function expression resolves to, if any."""
    attrs = []
    while isinstance(func, ast.Attribute):
        attrs.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in imports:
        return None
    return ".".join([imports[func.id], *reversed(attrs)])


def time_name(expr):
    if isinstance(expr, ast.Name) and expr.id in TIME_NAMES:
        return expr.id
    if isinstance(expr, ast.Attribute) and expr.attr in TIME_NAMES:
        return expr.attr
    return None


def is_float_literal(expr):
    while isinstance(expr, ast.UnaryOp) and isinstance(expr.op, (ast.USub, ast.UAdd)):
        expr = expr.operand
    return isinstance(expr, ast.Constant) and isinstance(expr.value, float)


def breaches(path, source):
    """``line: message`` of every sim-time breach in module ``path``."""
    if not in_scope(path):
        return []
    tree = ast.parse(source)
    imports = import_table(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = call_target(node.func, imports)
            if target in WALL_CLOCK:
                found.append(f"{node.lineno}: wall-clock read {target}()")
        elif isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            name = time_name(node.left) or time_name(node.right)
            if name is None:
                continue
            if isinstance(node.op, ast.Div):
                found.append(f"{node.lineno}: true division on sim-time {name!r}")
            elif is_float_literal(node.left) or is_float_literal(node.right):
                found.append(f"{node.lineno}: float literal with sim-time {name!r}")
    return found


def test_sim_packages_read_no_wall_clock_and_keep_time_integral():
    modules = [
        path.relative_to(SRC)
        for path in sorted((SRC / "repro").rglob("*.py"))
        if in_scope(path.relative_to(SRC))
    ]
    assert len(modules) > 30, modules
    found = [
        f"{path}:{hit}"
        for path in modules
        for hit in breaches(path, (SRC / path).read_text(encoding="utf-8"))
    ]
    assert not found, found


#: each shape the check must flag, with a fragment of its message...
FLAGGED = [
    pytest.param(
        "repro/sim/engine.py",
        """
        import time

        def step():
            return time.time()
        """,
        "wall-clock read time.time()",
        id="time_time_in_sim",
    ),
    pytest.param(
        "repro/online/executor.py",
        """
        from time import monotonic as mono

        def step():
            return mono()
        """,
        "time.monotonic()",
        id="aliased_import",
    ),
    pytest.param(
        "repro/cluster/state.py",
        """
        import datetime

        def stamp():
            return datetime.datetime.now()
        """,
        "datetime.datetime.now()",
        id="datetime_now",
    ),
    pytest.param(
        "repro/cluster/state.py",
        """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """,
        "datetime.datetime.now()",
        id="datetime_now_from_import",
    ),
    pytest.param(
        "repro/streaming/service.py",
        """
        import time

        def tick():
            return int(time.time())
        """,
        "wall-clock read time.time()",
        id="wall_clock_in_streaming",
    ),
    pytest.param(
        # Timestamping batches off the wall clock is the classic leak an
        # asyncio loop invites; serving ticks must stay logical.
        "repro/streaming/service.py",
        """
        from time import monotonic

        def stamp_batch(batch):
            return monotonic(), batch
        """,
        "time.monotonic()",
        id="loop_time_shim",
    ),
    pytest.param(
        "repro/streaming/engine.py",
        """
        def sample(now):
            return now + 0.5
        """,
        "float literal",
        id="float_drift_on_streaming_clock",
    ),
    pytest.param(
        "repro/federation/stealing.py",
        """
        import time

        def steal_deadline():
            return time.time()
        """,
        "wall-clock read time.time()",
        id="wall_clock_in_federation",
    ),
    pytest.param(
        # A "soft" steal threshold as a fractional instant is exactly the
        # drift the integer-slot discipline forbids.
        "repro/federation/engine.py",
        """
        def steal_at(now):
            return now + 0.5
        """,
        "float literal",
        id="float_drift_on_federation_clock",
    ),
    pytest.param(
        "repro/federation/routing.py",
        """
        from time import monotonic

        def route_stamp(index):
            return index, monotonic()
        """,
        "time.monotonic()",
        id="monotonic_in_router",
    ),
    pytest.param(
        "repro/sim/kernel.py",
        """
        def advance(now):
            return now + 1.5
        """,
        "float literal",
        id="float_literal_on_now",
    ),
    pytest.param(
        "repro/sim/kernel.py",
        """
        def half(sim_time):
            return sim_time / 2
        """,
        "true division",
        id="true_division_on_time",
    ),
    pytest.param(
        "repro/sim/kernel.py",
        """
        def drift(clock):
            return clock.now + 0.1
        """,
        "float literal",
        id="attribute_time_name",
    ),
]

#: ...and each shape it must leave alone.
CLEAN = [
    pytest.param(
        # Out of scope: repro.utils.timing is where wall-clock measurement
        # belongs.
        "repro/utils/timing.py",
        """
        import time

        def elapsed(start):
            return time.monotonic() - start
        """,
        id="wall_clock_outside_scope",
    ),
    pytest.param(
        # The shape of the real daemon: asyncio plumbing, logical ticks
        # incremented per batch, client sim-times passed through verbatim.
        "repro/streaming/service.py",
        """
        import asyncio

        async def worker(queue, plan):
            tick = 0
            while True:
                head = await queue.get()
                batch = [head]
                while True:
                    try:
                        batch.append(queue.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                tick += 1
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, plan, batch, tick)
        """,
        id="serve_loop_without_wall_clock",
    ),
    pytest.param(
        "repro/streaming/engine.py",
        """
        def cutoff(now, horizon):
            return now + horizon

        def delay(admit_at, arrival):
            return admit_at - arrival
        """,
        id="streaming_integer_time_math",
    ),
    pytest.param(
        # The shape of the real stealer/engine: integer loads and instants.
        "repro/federation/stealing.py",
        """
        def gap(loads):
            return max(loads) - min(loads)

        def settle(now, horizon):
            return now + horizon
        """,
        id="integer_federation_time_math",
    ),
    pytest.param(
        "repro/sim/kernel.py",
        """
        def advance(now, delta):
            return now + delta

        def half(now):
            return now // 2
        """,
        id="integer_arithmetic",
    ),
    pytest.param(
        "repro/sim/kernel.py",
        """
        def score(weight):
            return weight * 0.5
        """,
        id="float_math_on_non_time_names",
    ),
]


@pytest.mark.parametrize("path, source, fragment", FLAGGED)
def test_flagged(path, source, fragment):
    found = breaches(path, textwrap.dedent(source))
    assert len(found) == 1 and fragment in found[0], found


@pytest.mark.parametrize("path, source", CLEAN)
def test_clean(path, source):
    assert not breaches(path, textwrap.dedent(source))
