"""Tracer self-tests on a toy call tree (no ``repro`` involved)."""

from __future__ import annotations

import sys
import threading
import time
import types

import pytest

from perfbench.trace import TARGETS, Tracer


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def toy():
    """A module with a three-level call tree of known busy times."""
    module = types.ModuleType("perfbench_toy")

    class Base:
        def leaf(self) -> None:
            _spin(0.004)

    class Engine(Base):
        def middle(self) -> None:
            _spin(0.003)
            self.leaf()
            self.leaf()

        def top(self) -> int:
            _spin(0.002)
            self.middle()
            helper()
            return 7

        @staticmethod
        def static(x: int) -> int:
            return x + 1

        def boom(self) -> None:
            raise ValueError("boom")

    def helper() -> None:
        _spin(0.001)

    def call_helper() -> None:
        module.helper()

    module.Base, module.Engine = Base, Engine
    module.helper, module.call_helper = helper, call_helper
    sys.modules["perfbench_toy"] = module
    yield module
    del sys.modules["perfbench_toy"]


TOY_TARGETS = {
    "toy.top": ("perfbench_toy:Engine.top",),
    "toy.middle": ("perfbench_toy:Engine.middle",),
    # ``leaf`` is inherited: patched on Engine, must be deleted again
    "toy.leaf": ("perfbench_toy:Engine.leaf",),
    "toy.helper": ("perfbench_toy:helper",),
    "toy.static": ("perfbench_toy:Engine.static",),
    "toy.boom": ("perfbench_toy:Engine.boom",),
    "toy.gone": ("perfbench_toy:Engine.renamed_away", "no_such_module_xyz:f"),
    "bench.other": (),
}


def test_rows_sum_to_wall_and_self_times_match(toy):
    engine = toy.Engine()
    tracer = Tracer(TOY_TARGETS)
    with tracer:
        start = time.perf_counter()
        for _ in range(5):
            assert engine.top() == 7
            toy.call_helper()
        wall = time.perf_counter() - start
    table = tracer.table(wall)
    rows = table.rows
    assert rows["toy.top"]["calls"] == 5
    assert rows["toy.middle"]["calls"] == 5
    assert rows["toy.leaf"]["calls"] == 10
    # helper(): top() reaches the closure-bound original, call_helper()
    # looks it up through the module and so reaches the wrapper.
    assert rows["toy.helper"]["calls"] == 5
    assert table.total_self_s == pytest.approx(wall, rel=0.02)
    assert table.overlap_s == 0.0
    # self time excludes children: 5 x (2 + 1) ms top, 3 ms middle, 8 ms leaf
    assert rows["toy.top"]["self_s"] == pytest.approx(0.015, rel=0.25)
    assert rows["toy.middle"]["self_s"] == pytest.approx(0.015, rel=0.25)
    assert rows["toy.leaf"]["self_s"] == pytest.approx(0.040, rel=0.25)
    assert rows["bench.other"]["self_s"] < 0.01 * wall + 0.002


def test_every_patched_attribute_is_restored(toy):
    before = {
        cls: dict(vars(cls)) for cls in (toy.Base, toy.Engine)
    }
    helper = toy.helper
    tracer = Tracer(TOY_TARGETS)
    with tracer:
        assert vars(toy.Engine)["top"] is not before[toy.Engine]["top"]
        assert "leaf" in vars(toy.Engine)
        assert toy.Engine.static(1) == 2
        assert toy.Engine().static(2) == 3
    for cls, attrs in before.items():
        assert dict(vars(cls)) == attrs
    assert "leaf" not in vars(toy.Engine)
    assert toy.helper is helper
    assert isinstance(vars(toy.Engine)["static"], staticmethod)


def test_restored_when_traced_code_raises(toy):
    original = vars(toy.Engine)["boom"]
    tracer = Tracer(TOY_TARGETS)
    with pytest.raises(ValueError):
        with tracer:
            toy.Engine().boom()
    assert vars(toy.Engine)["boom"] is original
    assert not tracer.installed
    assert tracer.table(1.0).rows["toy.boom"]["calls"] == 1


def test_missing_targets_are_listed_not_fatal(toy):
    tracer = Tracer(TOY_TARGETS)
    with tracer:
        toy.Engine().top()
    assert tracer.missing_targets == [
        "perfbench_toy:Engine.renamed_away",
        "no_such_module_xyz:f",
    ]
    assert tracer.table(1.0).rows["toy.gone"]["calls"] == 0


def test_span_stacks_are_per_thread(toy):
    tracer = Tracer(TOY_TARGETS)
    engine = toy.Engine()
    with tracer:
        start = time.perf_counter()
        worker = threading.Thread(target=engine.middle)
        worker.start()
        engine.middle()
        worker.join(timeout=10)
        wall = time.perf_counter() - start
    assert not worker.is_alive()
    rows = tracer.table(wall).rows
    assert rows["toy.middle"]["calls"] == 2
    assert rows["toy.leaf"]["calls"] == 4
    # had the threads shared a stack, a leaf would have been charged to
    # the other thread's middle and some self time would go negative
    assert all(row["self_s"] >= 0.0 for row in rows.values())


def test_spans_are_written_with_parents(toy, tmp_path):
    import numpy as np

    tracer = Tracer(TOY_TARGETS)
    with tracer:
        toy.Engine().top()
    path = tracer.write(tmp_path, "toy", tracer.table(0.02))
    assert path.exists()
    with np.load(tmp_path / "toy.spans.npz") as spans:
        names, parents = spans["t0_name"], spans["t0_parent"]
        assert (spans["t0_end"] >= spans["t0_start"]).all()
    assert len(names) == 4  # top, middle, leaf, leaf (helper was closure-bound)
    assert parents.tolist() == [-1, 0, 1, 1]


def test_every_repro_target_resolves():
    """At this commit nothing is missing; a later refactor may change that
    (and then the row reads zero), but it must be a choice, not an
    accident of this commit."""
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[2] / "src"))
    tracer = Tracer(TARGETS)
    tracer.install()
    try:
        assert tracer.missing_targets == []
    finally:
        tracer.uninstall()
