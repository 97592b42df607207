"""Outside-in tracer: spans around ``repro``'s public callables.

The benchmark may not edit the program it measures, so the per-layer
numbers are taken from the outside: during the traced pass (and only
then) each callable named in :data:`TARGETS` is replaced, by plain
attribute assignment on its class or module, with a wrapper that records
a span.  A span has a name (the *boundary*, one per layer), a start, an
end and the span that was open on the same thread when it began.  A
boundary's **self time** is the time spent inside its spans but outside
any span nested in them, so the rows of the table never count an
interval twice and, together with the residual row, add up to the wall
time of the traced pass.

Three properties the rest of the benchmark relies on:

* every replaced attribute is put back, also when the traced code
  raises (:meth:`Tracer.__exit__`);
* span stacks are per thread — the serve workload plans in an executor
  thread while the event loop keeps decoding frames;
* a target that no longer resolves (a class renamed, a backend deleted)
  is skipped and listed in :attr:`Tracer.missing_targets`; the benchmark
  keeps running and the row reads zero.

A module-level function can only be intercepted where callers look it up
through its module at call time (``protocol.decode_frame(...)``); a
caller that did ``from m import f`` keeps the original.  The targets
below were checked against how ``repro`` calls them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = ["TARGETS", "Tracer", "SpanTable"]

#: boundary -> callables wrapped during the traced pass, written
#: ``module:Class.method`` or ``module:function``.  ``#rows=N`` makes the
#: wrapper also add up the leading dimension of positional argument ``N``
#: (``self`` is argument 0) under ``<boundary>.rows``.
TARGETS: Dict[str, Tuple[str, ...]] = {
    # -- search ------------------------------------------------------- #
    "mcts.plan": ("repro.mcts.search:MctsScheduler.plan",),
    "mcts.select": ("repro.mcts.node:Node.best_child",),
    "core.prioritize": (
        "repro.core.guidance:NetworkExpansion.prioritize",
        "repro.mcts.policies:RandomExpansion.prioritize",
    ),
    "core.rollout": (
        "repro.core.guidance:NetworkRollout.rollout",
        "repro.core.guidance:NetworkRollout.rollout_many",
        "repro.mcts.policies:RandomRollout.rollout",
    ),
    "env.step": (
        "repro.env.scheduling_env:SchedulingEnv.step",
        "repro.envarr.env:ArraySchedulingEnv.step",
    ),
    "env.apply": (
        "repro.env.scheduling_env:SchedulingEnv.apply",
        "repro.envarr.env:ArraySchedulingEnv.apply",
    ),
    "env.undo": (
        "repro.env.scheduling_env:SchedulingEnv.undo",
        "repro.envarr.env:ArraySchedulingEnv.undo",
    ),
    "env.clone": (
        "repro.env.scheduling_env:SchedulingEnv.clone",
        "repro.envarr.env:ArraySchedulingEnv.clone",
    ),
    "env.playout": (
        "repro.env.scheduling_env:SchedulingEnv.random_playout",
        "repro.envarr.env:ArraySchedulingEnv.random_playout",
    ),
    "env.actions": (
        "repro.env.scheduling_env:SchedulingEnv.expansion_actions",
        "repro.envarr.env:ArraySchedulingEnv.expansion_actions",
    ),
    "envarr.batch": (
        "repro.envarr.batch:BatchedPlayouts.run",
        "repro.envarr.batch:BatchedPlayouts.states_from_envs",
    ),
    "metrics.validate": ("repro.metrics:validate_schedule",),
    # -- learned policy ----------------------------------------------- #
    "rl.select": (
        "repro.rl.agent:NetworkPolicy.select",
        "repro.rl.agent:NetworkPolicy.action_probabilities",
        "repro.rl.agent:NetworkPolicy.select_with_trace",  # the trainers' path
        "repro.rl.gnn:GraphNetworkPolicy.select",
        "repro.rl.gnn:GraphNetworkPolicy.action_probabilities",
        "repro.rl.gnn:GraphNetworkPolicy.select_with_trace",
    ),
    "rl.forward": (
        "repro.rl.network:PolicyNetwork.logits#rows=1",
        "repro.rl.gnn:GraphPolicyNetwork.forward_group#rows=3",
    ),
    "rl.evaluator": (
        "repro.rl.evaluator:PolicyEvaluator.distributions",
        "repro.rl.evaluator:PolicyEvaluator.rollout_many",
    ),
    "obs.build": (
        "repro.env.observation:ObservationBuilder.build",
        "repro.envarr.observation:BatchObservationBuilder.build",
        "repro.envarr.observation:BatchObservationBuilder.build_batch",
        "repro.rl.gnn:GraphObservationBuilder.build",
    ),
    # -- training ----------------------------------------------------- #
    "rl.epoch": ("repro.rl.trainer:Trainer.train_epoch",),
    "rl.sample": ("repro.rl.trainer:Trainer.sample_trajectories",),
    "rl.backward": (
        "repro.rl.network:PolicyNetwork.policy_gradient_steps",
        "repro.rl.network:PolicyNetwork.entropy_gradient_steps",
        "repro.rl.gnn:GraphPolicyNetwork.policy_gradient_steps",
        "repro.rl.gnn:GraphPolicyNetwork.entropy_gradient_steps",
    ),
    "rl.optim": ("repro.rl.optimizers:RmsProp.step",),
    "rl.value": (
        "repro.rl.value_network:ValueNetwork.fit",
        "repro.rl.value_network:ValueNetwork.predict",
    ),
    # -- simulation --------------------------------------------------- #
    "streaming.run": ("repro.streaming.engine:StreamingSimulator.run",),
    "federation.run": ("repro.federation.engine:FederatedStreamingSimulator.run",),
    "online.run": ("repro.online.simulator:OnlineSimulator.run",),
    "sim.kernel": (
        "repro.sim.kernel:SimKernel.tick_to",
        "repro.sim.kernel:SimKernel.drain_due",
    ),
    "online.dispatch": ("repro.online.policy:PolicyLayer.dispatch_round",),
    "online.execution": (
        "repro.online.execution:ExecutionLayer.advance_to",
        "repro.online.execution:ExecutionLayer.admit",
        "repro.online.execution:ExecutionLayer.start_attempt",
    ),
    "online.reporting": (
        "repro.online.reporting:ReportingLayer.account",
        "repro.online.reporting:ReportingLayer.gauges",
        "repro.online.reporting:ReportingLayer.record_completion",
        "repro.online.reporting:ReportingLayer.finalize",
    ),
    "cluster.advance": ("repro.cluster.sim_adapter:ClusterProcess.advance_to",),
    "streaming.admission": (
        "repro.streaming.admission:AdmissionController.offer",
        "repro.streaming.admission:AdmissionController.release",
    ),
    "federation.route": ("repro.federation.routing:LeastLoadedRouter.route",),
    "federation.steal": (
        "repro.federation.stealing:WorkStealer.maybe_rebalance",
        "repro.federation.stealing:WorkStealer.rescue",
    ),
    "faults.inject": (
        "repro.faults.injector:FaultInjector.attempt",
        "repro.faults.injector:TimelineCursor.drain",
    ),
    # -- serving ------------------------------------------------------ #
    "streaming.decode": ("repro.streaming.protocol:decode_frame",),
    "streaming.parse": ("repro.streaming.protocol:parse_schedule",),
    "streaming.reply": ("repro.streaming.protocol:reply_frame",),
    "streaming.encode": ("repro.streaming.protocol:encode_frame",),
    "schedulers.plan": ("repro.schedulers.base:PolicyScheduler.plan",),
    # -- the benchmark's own spans and the residual rows ---------------- #
    "bench.client": (),  # client-side codec of the serve workload
    "streaming.service": (),  # serve residual: asyncio, queue, executor hop
    "bench.other": (),  # residual everywhere else: the benchmark's own code
}

#: Stored spans per thread before the tracer keeps aggregating but stops
#: storing (22 bytes a span; the cap bounds memory at ~90 MB a thread).
_MAX_STORED_SPANS = 4_000_000

_MISSING = object()


class _ThreadState:
    """One thread's open-span stack, totals and stored spans."""

    __slots__ = (
        "thread", "stack", "self_s", "calls", "rows",
        "names", "starts", "ends", "parents", "dropped",
    )

    def __init__(self, num_names: int) -> None:
        self.thread = threading.current_thread().name
        #: open spans: [name_id, start, child_seconds, stored_index]
        self.stack: List[list] = []
        self.self_s = [0.0] * num_names
        self.calls = [0] * num_names
        self.rows = [0] * num_names
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.dropped = 0


class SpanTable:
    """Self-time table of one traced pass.

    ``rows`` maps boundary -> ``{"self_s", "calls"}`` (plus ``"rows"``
    where counted); ``residual`` names the row that received ``wall_s``
    minus every other row, so the rows add up to ``wall_s`` by
    construction unless spans on different threads overlapped by more
    than the idle time (``overlap_s`` > 0, residual clipped at zero).
    """

    def __init__(
        self,
        rows: Dict[str, Dict[str, float]],
        wall_s: float,
        residual: str,
        overlap_s: float,
    ) -> None:
        self.rows = rows
        self.wall_s = wall_s
        self.residual = residual
        self.overlap_s = overlap_s

    @property
    def total_self_s(self) -> float:
        return sum(row["self_s"] for row in self.rows.values())


class Tracer:
    """Install wrappers, collect spans, restore, report.

    Use as a context manager around the traced pass::

        with Tracer() as tracer:
            run_the_segments()
        table = tracer.table(wall_s)
    """

    def __init__(self, targets: Optional[Mapping[str, Sequence[str]]] = None) -> None:
        self._targets = dict(TARGETS if targets is None else targets)
        self._name_ids: Dict[str, int] = {}
        self._names: List[str] = []
        for name in self._targets:
            self._intern(name)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        #: (owner, attribute, original static value or _MISSING)
        self._patched: List[Tuple[Any, str, Any]] = []
        self._resolved: Optional[List[Tuple[Any, str, Any]]] = None
        self.missing_targets: List[str] = []
        self.installed = False

    # ------------------------------------------------------------------ #
    # names and per-thread state
    # ------------------------------------------------------------------ #

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(len(self._names))
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #

    def _enter(self, state: _ThreadState, name_id: int) -> list:
        stack = state.stack
        if len(state.names) < _MAX_STORED_SPANS:
            index = len(state.names)
            state.names.append(name_id)
            state.parents.append(stack[-1][3] if stack else -1)
            state.ends.append(0.0)
            start = time.perf_counter()
            state.starts.append(start)
        else:
            index = -1
            state.dropped += 1
            start = time.perf_counter()
        frame = [name_id, start, 0.0, index]
        stack.append(frame)
        return frame

    def _exit(self, state: _ThreadState, frame: list) -> None:
        end = time.perf_counter()
        name_id, start, child_s, index = frame
        stack = state.stack
        stack.pop()
        duration = end - start
        state.self_s[name_id] += duration - child_s
        state.calls[name_id] += 1
        if stack:
            stack[-1][2] += duration
        if index >= 0:
            state.ends[index] = end

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own code (``bench.client`` ...).

        Names must be declared before threads start recording: pass them
        in ``targets`` (an empty tuple of callables is fine).
        """
        name_id = self._name_ids[name]
        state = self._state()
        frame = self._enter(state, name_id)
        try:
            yield
        finally:
            self._exit(state, frame)

    def _wrap(self, name_id: int, fn: Callable, rows_arg: Optional[int]) -> Callable:
        get_state, enter, leave = self._state, self._enter, self._exit

        if rows_arg is None:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                state = get_state()
                frame = enter(state, name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(state, frame)

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                state = get_state()
                if len(args) > rows_arg:
                    shape = getattr(args[rows_arg], "shape", None)
                    state.rows[name_id] += (
                        shape[0] if shape is not None and len(shape) > 1 else 1
                    )
                frame = enter(state, name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(state, frame)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------------ #
    # install / restore
    # ------------------------------------------------------------------ #

    @staticmethod
    def _resolve(target: str) -> Tuple[Any, str]:
        """``(owner, attribute)`` for a target; raises if it is gone."""
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *holders, attribute = path.split(".")
        for holder in holders:
            owner = getattr(owner, holder)
        inspect.getattr_static(owner, attribute)  # AttributeError if gone
        return owner, attribute

    def _replacements(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, attribute, wrapper)`` per resolvable target; built on
        the first install (resolving imports every module named)."""
        if self._resolved is None:
            self._resolved = []
            for boundary, targets in self._targets.items():
                name_id = self._name_ids[boundary]
                for spec in targets:
                    target, _, option = spec.partition("#")
                    rows_arg = int(option[len("rows="):]) if option else None
                    try:
                        owner, attribute = self._resolve(target)
                    except (ImportError, AttributeError):
                        self.missing_targets.append(target)
                        continue
                    static = inspect.getattr_static(owner, attribute)
                    if isinstance(static, (staticmethod, classmethod)):
                        wrapper: Any = type(static)(
                            self._wrap(name_id, static.__func__, rows_arg)
                        )
                    elif callable(static):
                        wrapper = self._wrap(name_id, static, rows_arg)
                    else:
                        self.missing_targets.append(target)
                        continue
                    self._resolved.append((owner, attribute, wrapper))
        return self._resolved

    def install(self) -> None:
        """Replace every resolvable target with its recording wrapper."""
        if self.installed:
            raise RuntimeError("tracer is already installed")
        self.installed = True
        for owner, attribute, wrapper in self._replacements():
            self._patched.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Put every replaced attribute back (inherited ones are deleted
        from the class they were shadowed on)."""
        while self._patched:
            owner, attribute, own = self._patched.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        self.installed = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def table(self, wall_s: float, residual: str = "bench.other") -> SpanTable:
        """Fold every thread's totals into one self-time table."""
        rows: Dict[str, Dict[str, float]] = {}
        for name, name_id in self._name_ids.items():
            row = {
                "self_s": sum(s.self_s[name_id] for s in self._states),
                "calls": sum(s.calls[name_id] for s in self._states),
            }
            counted = sum(s.rows[name_id] for s in self._states)
            if counted:
                row["rows"] = counted
            rows[name] = row
        covered = sum(row["self_s"] for name, row in rows.items() if name != residual)
        rest = wall_s - covered
        base = rows.setdefault(residual, {"self_s": 0.0, "calls": 0})
        base["self_s"] = max(rest, 0.0)
        return SpanTable(rows, wall_s, residual, max(-rest, 0.0))

    @property
    def span_count(self) -> int:
        return sum(len(s.names) for s in self._states)

    @property
    def dropped_spans(self) -> int:
        return sum(s.dropped for s in self._states)

    def write(self, directory: Path, stem: str, table: SpanTable) -> Path:
        """Write the stored spans (``<stem>.spans.npz``: per thread the
        ``name``/``start``/``end``/``parent`` columns, parent -1 for a
        root) and the table (``<stem>.trace.json``); returns the JSON path."""
        import numpy as np

        directory.mkdir(parents=True, exist_ok=True)
        columns: Dict[str, Any] = {}
        for number, state in enumerate(self._states):
            prefix = f"t{number}_"
            columns[prefix + "name"] = np.frombuffer(state.names, dtype=np.uint16)
            columns[prefix + "start"] = np.frombuffer(state.starts, dtype=np.float64)
            columns[prefix + "end"] = np.frombuffer(state.ends, dtype=np.float64)
            columns[prefix + "parent"] = np.frombuffer(state.parents, dtype=np.int32)
        np.savez(directory / f"{stem}.spans.npz", **columns)
        summary = {
            "names": self._names,
            "threads": [state.thread for state in self._states],
            "wall_s": table.wall_s,
            "residual": table.residual,
            "overlap_s": table.overlap_s,
            "rows": table.rows,
            "spans": self.span_count,
            "dropped_spans": self.dropped_spans,
            "missing_targets": self.missing_targets,
        }
        path = directory / f"{stem}.trace.json"
        path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        return path
