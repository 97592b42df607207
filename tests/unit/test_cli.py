"""Unit tests for the command-line interface."""

import argparse
import re

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scheduler == "tetris"
        assert args.tasks == 50

    def test_experiment_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_docstring_lists_exactly_the_subcommands(self):
        documented = set(re.findall(r"^\s+repro (\S+)", cli.__doc__, re.MULTILINE))
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert documented == set(subparsers.choices)


class TestCommands:
    def test_motivating(self, capsys):
        assert main(["motivating"]) == 0
        out = capsys.readouterr().out
        assert "optimal" in out
        assert "tetris" in out
        assert "2T" in out and "3T" in out

    def test_simulate_baseline(self, capsys):
        assert main(["simulate", "--scheduler", "sjf", "--tasks", "12"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_simulate_mcts(self, capsys):
        code = main(
            [
                "simulate",
                "--scheduler",
                "mcts",
                "--tasks",
                "10",
                "--budget",
                "10",
                "--min-budget",
                "3",
            ]
        )
        assert code == 0
        assert "mcts" in capsys.readouterr().out

    def test_simulate_unknown_scheduler(self, capsys):
        assert main(["simulate", "--scheduler", "warp"]) == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_trace_stats(self, capsys):
        assert main(["trace", "--jobs", "8", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "8 jobs" in out
        assert "reduce" in out

    def test_trace_write(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        assert main(["trace", "--jobs", "6", "--out", str(out_file)]) == 0
        assert out_file.exists()
        from repro.traces import Trace

        assert len(Trace.load(out_file)) == 6

    def test_train_writes_checkpoint(self, tmp_path, capsys):
        out_file = tmp_path / "net.npz"
        code = main(
            [
                "train",
                "--epochs",
                "1",
                "--examples",
                "2",
                "--example-tasks",
                "6",
                "--rollouts",
                "2",
                "--out",
                str(out_file),
                "--log-every",
                "0",
            ]
        )
        assert code == 0
        assert out_file.exists()
        from repro.rl import load_checkpoint

        assert load_checkpoint(out_file).num_actions == 16

    def test_traced_train_still_logs_every_epoch(self, tmp_path, capsys):
        # --trace-out adds the epoch lines to the trace as log events; it
        # does not take them off stderr.
        trace = tmp_path / "train.jsonl"
        code = main(
            [
                "train",
                "--epochs",
                "3",
                "--examples",
                "2",
                "--example-tasks",
                "5",
                "--rollouts",
                "2",
                "--out",
                str(tmp_path / "net.npz"),
                "--log-every",
                "1",
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        epoch_lines = [line for line in err.splitlines() if line.startswith("epoch ")]
        assert [line.split(":")[0] for line in epoch_lines] == [
            "epoch 0",
            "epoch 1",
            "epoch 2",
        ]
        from repro.telemetry import load_trace

        logged = [
            e.attrs["message"]
            for e in load_trace(trace).events
            if e.name == "reinforce.epoch"
        ]
        assert logged == epoch_lines

    def test_ablation_unknown(self, capsys):
        assert main(["ablation", "nonesuch"]) == 2
        assert "unknown ablation" in capsys.readouterr().err

    def test_compare_runs_tournament(self, capsys):
        code = main(
            [
                "compare",
                "--schedulers",
                "tetris,sjf",
                "--jobs",
                "2",
                "--tasks",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Tournament over 2 jobs" in out
        assert "tetris" in out

    def test_compare_unknown_scheduler(self, capsys):
        assert main(["compare", "--schedulers", "warp"]) == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_online_simulation(self, capsys):
        code = main(
            [
                "online",
                "--jobs",
                "3",
                "--mean-interarrival",
                "15",
                "--rankers",
                "fifo,sjf",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Online: 3 jobs" in out
        assert "mean JCT" in out

    def test_online_unknown_ranker(self, capsys):
        assert main(["online", "--rankers", "quantum"]) == 2
        assert capsys.readouterr().err == (
            "online: unknown ranker 'quantum'; "
            "choose from ['cp', 'fifo', 'sjf', 'tetris']\n"
        )

    def test_online_without_rankers_exits_2(self, capsys):
        assert main(["online", "--rankers", ","]) == 2
        captured = capsys.readouterr()
        assert captured.err == "online: --rankers names no ranker\n"
        assert captured.out == ""


class TestSchedulersCommand:
    def test_lists_registry_and_wrapper_keys(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        assert "tetris" in out and "spear" in out
        assert "wrapper keys" in out
        assert "replan_budget" in out

    def test_json_listing(self, capsys):
        import json

        assert main(["schedulers", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "mcts" in payload["schedulers"]
        assert payload["schedulers"]["mcts"]["budget"] == "int"
        assert "verify" in payload["wrapper_keys"]


class TestSpecStrings:
    def test_simulate_with_spec_options(self, capsys):
        code = main(
            ["simulate", "--scheduler", "mcts:budget=30,min_budget=10", "--tasks", "8"]
        )
        assert code == 0
        assert "makespan" in capsys.readouterr().out

    def test_simulate_bad_spec_option(self, capsys):
        assert main(["simulate", "--scheduler", "tetris:speed=11"]) == 2
        assert "unknown key 'speed'" in capsys.readouterr().err

    def test_compare_with_spec_options(self, capsys):
        code = main(
            [
                "compare",
                "--schedulers",
                "fifo,optimal:max_nodes=20000",
                "--jobs",
                "2",
                "--tasks",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fifo" in out and "optimal" in out


class TestOnlineFaults:
    def test_faulted_run_with_rescheduling(self, capsys):
        code = main(
            [
                "online",
                "--jobs",
                "4",
                "--seed",
                "3",
                "--rankers",
                "fifo",
                "--faults",
                "crashes=1,transient=0.1,noise=0.2",
                "--fault-horizon",
                "40",
                "--reschedule",
                "heft",
                "--fallback",
                "cp",
                "--verify-executed",
                "--check-recoveries",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "crash/recov" in out
        assert "verification: clean" in out

    def test_bad_fault_spec(self, capsys):
        assert main(["online", "--faults", "meteors=1"]) == 2
        assert "fault spec 'meteors=1': unknown key 'meteors'" in capsys.readouterr().err

    def test_repeated_fault_spec_key_exits_2(self, capsys):
        code = main(["stream", "--arrival", "uniform:interarrival=1,n=3",
                     "--faults", "crashes=1,crashes=3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            "stream: fault spec 'crashes=1,crashes=3': repeats key 'crashes'\n"
        )
        assert captured.out == ""

    def test_fallback_requires_reschedule(self, capsys):
        assert main(["online", "--fallback", "cp"]) == 2
        assert "--reschedule" in capsys.readouterr().err

    def test_trace_out_writes_fault_events(self, tmp_path, capsys):
        trace = tmp_path / "faults.jsonl"
        code = main(
            [
                "online",
                "--jobs",
                "3",
                "--seed",
                "5",
                "--rankers",
                "fifo",
                "--faults",
                "transient=0.3,max_attempts=6",
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0
        assert trace.exists()
        capsys.readouterr()


class TestStreamCommand:
    def test_poisson_stream_smoke(self, capsys):
        code = main(
            [
                "stream",
                "--arrival",
                "poisson:rate=0.2,n=10",
                "--seed",
                "3",
                "--ranker",
                "sjf",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Streaming: poisson:rate=0.2,n=10" in out
        assert "arrivals 10" in out
        assert "throughput" in out

    def test_metrics_out_is_byte_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(
                [
                    "stream",
                    "--arrival",
                    "poisson:rate=0.1,n=20",
                    "--seed",
                    "5",
                    "--metrics-out",
                    str(path),
                ]
            )
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        import json

        metrics = json.loads(paths[0].read_text())
        assert metrics["schema"] == 1
        assert metrics["jobs"]["arrivals"] == 20

    def test_verify_executed_clean(self, capsys):
        code = main(
            [
                "stream",
                "--arrival",
                "uniform:interarrival=5,n=6",
                "--seed",
                "1",
                "--verify-executed",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "executed-schedule verification: clean" in out

    def test_gate_p99_failure_exits_nonzero(self, capsys):
        code = main(
            [
                "stream",
                "--arrival",
                "poisson:rate=0.2,n=10",
                "--seed",
                "3",
                "--gate-p99",
                "0.5",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "exceeds the --gate-p99 bound" in captured.err

    def test_admission_limits_reported(self, capsys):
        code = main(
            [
                "stream",
                "--arrival",
                "uniform:interarrival=0,n=8",
                "--tasks",
                "4",
                "--max-concurrent",
                "2",
                "--max-queue",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rejected 4" in out

    def test_unknown_ranker_exits_2(self, capsys):
        assert main(["stream", "--ranker", "warp"]) == 2
        assert capsys.readouterr().err == (
            "stream: unknown ranker 'warp'; "
            "choose from ['cp', 'fifo', 'sjf', 'tetris']\n"
        )

    def test_bad_arrival_spec_exits_2(self, capsys):
        assert main(["stream", "--arrival", "meteors:n=3"]) == 2
        assert "arrival spec 'meteors:n=3': unknown arrival 'meteors'" in (
            capsys.readouterr().err
        )

    def test_fallback_requires_reschedule(self, capsys):
        assert main(["stream", "--fallback", "cp"]) == 2
        assert "--reschedule" in capsys.readouterr().err


class TestServeCommand:
    def test_smoke_round_trip(self, capsys):
        code = main(
            ["serve", "--smoke", "--requests", "3", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serve smoke: 3 replies" in out
        assert "drained clean (3 served, 0 errors)" in out

    def test_smoke_frames_out(self, tmp_path, capsys):
        import json

        frames = tmp_path / "frames.jsonl"
        code = main(
            [
                "serve",
                "--smoke",
                "--requests",
                "2",
                "--frames-out",
                str(frames),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = [json.loads(l) for l in frames.read_text().splitlines()]
        assert [f["type"] for f in lines] == [
            "schedule.reply",
            "schedule.reply",
            "drain.ack",
        ]

    def test_unknown_scheduler_exits_2(self, capsys):
        assert main(["serve", "--smoke", "--scheduler", "warp"]) == 2
        assert capsys.readouterr().err


#: A trace path that names no file.
MISSING_TRACE = "no-such-trace.json"

#: Every command that takes ``--seed``, with the arguments it needs to run.
SEEDED_COMMANDS = (
    ("simulate", ()),
    ("train", ()),
    ("trace", ()),
    ("experiment", ("fig6a",)),
    ("ablation", ("budget-decay",)),
    ("compare", ()),
    ("online", ()),
    ("stream", ()),
    ("federate", ()),
    ("serve", ("--smoke",)),
)


#: A bad spec string of each family, one per kind of error the family
#: can have: only arrival kinds require keys, and the fault spec has no
#: kind.
SPEC_ERRORS = {
    "scheduler-bad-value": ["simulate", "--scheduler", "mcts:budget=x"],
    "scheduler-unknown-key": ["simulate", "--scheduler", "tetris:speed=11"],
    "scheduler-repeated-key": ["simulate", "--scheduler", "mcts:seed=1,seed=2"],
    "scheduler-unknown-kind": ["simulate", "--scheduler", "warp"],
    "scheduler-not-key-value": ["simulate", "--scheduler", "mcts:budget"],
    "arrival-bad-value": ["stream", "--arrival", "poisson:rate=abc,n=5"],
    "arrival-unknown-key": ["stream", "--arrival", "poisson:rate=0.1,n=5,extra=1"],
    "arrival-missing-key": ["stream", "--arrival", "poisson:rate=0.1"],
    "arrival-repeated-key": ["stream", "--arrival", "poisson:rate=0.1,rate=0.2,n=5"],
    "arrival-unknown-kind": ["stream", "--arrival", "meteors:n=3"],
    "arrival-not-key-value": ["stream", "--arrival", "uniform:interarrival"],
    "router-bad-value": ["federate", "--router", "hash:salt=abc"],
    "router-unknown-key": ["federate", "--router", "hash:pepper=1"],
    "router-repeated-key": ["federate", "--router", "hash:salt=1,salt=2"],
    "router-unknown-kind": ["federate", "--router", "random"],
    "router-not-key-value": ["federate", "--router", "hash:salt"],
    "fault-bad-value": ["online", "--faults", "crashes=x"],
    "fault-unknown-key": ["online", "--faults", "meteors=1"],
    "fault-repeated-key": ["online", "--faults", "crashes=1,crashes=3"],
    "fault-not-key-value": ["online", "--faults", "crashes"],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--grad-clip", "-1"],
        ["train", "--examples", "0"],
        ["simulate", "--tasks", "0"],
        ["online", "--jobs", "0"],
        ["compare", "--jobs", "0"],
        *(
            [command, *extra, "--seed", "-1"]
            for command, extra in SEEDED_COMMANDS
        ),
        ["stream", "--arrival", f"trace:path={MISSING_TRACE},mean=5"],
        ["federate", "--arrival", f"trace:path={MISSING_TRACE},mean=5"],
        ["stream", "--arrival", f"trace:path={__file__},mean=5"],
        ["simulate", "--scheduler", "spear:network=no-such-network.npz"],
        ["online", "--mean-interarrival", "1e308"],
        ["online", "--mean-interarrival", "nan"],
        *SPEC_ERRORS.values(),
        ["stream", "--arrival", "poisson:rate=1e-320,n=3"],
        ["stream", "--arrival", "poisson:rate=1e-300,n=3"],
        ["online", "--faults", "noise=inf"],
        ["online", "--faults", "noise=nan"],
        ["online", "--faults", "noise=1e308"],
        ["online", "--faults", "slowdown=inf,straggler=0.5"],
        ["online", "--faults", "slowdown=nan,straggler=0.5"],
        ["serve", "--batch-max", "0"],
        ["serve", "--smoke", "--requests", "0"],
        ["serve", "--smoke", "--batch-max", "0"],
    ],
    ids=["train-grad-clip", "train-examples", "simulate-tasks", "online-jobs",
         "compare-jobs", *(f"{command}-seed" for command, _ in SEEDED_COMMANDS),
         "stream-missing-trace", "federate-missing-trace",
         "stream-malformed-trace", "simulate-missing-network",
         "online-huge-interarrival", "online-nan-interarrival",
         *SPEC_ERRORS, "stream-tiny-rate", "stream-huge-span",
         "online-infinite-noise", "online-nan-noise", "online-overflowing-noise",
         "online-infinite-slowdown", "online-nan-slowdown", "serve-batch-max",
         "serve-smoke-requests", "serve-smoke-batch-max"],
)
def test_invalid_argument_is_a_one_line_error(argv, capsys):
    # A ConfigError from any command, or a named trace or checkpoint that
    # cannot be loaded, is `<command>: <message>`, exit 2; `train` fails
    # on its config before it would write a checkpoint.
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(f"{argv[0]}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--jobs", "0"],
        ["stream", "--ranker", "warp"],
        ["stream", "--arrival", f"trace:path={MISSING_TRACE},mean=5"],
    ],
    ids=["compare-jobs", "stream-ranker", "stream-missing-trace"],
)
def test_invalid_argument_writes_no_trace(argv, tmp_path, capsys):
    # Exit 2 creates no file at --trace-out, leaves an existing one as it
    # was, and claims no trace.
    fresh = tmp_path / "fresh.jsonl"
    assert main([*argv, "--trace-out", str(fresh)]) == 2
    kept = tmp_path / "kept.jsonl"
    kept.write_text("an earlier trace\n", encoding="utf-8")
    assert main([*argv, "--trace-out", str(kept)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith(f"{argv[0]}: ")
    assert "wrote" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["kept.jsonl"]
    assert kept.read_text(encoding="utf-8") == "an earlier trace\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["stream", "--arrival", "poisson:rate=0.3,n=5", "--metrics-out"],
        ["federate", "--arrival", "poisson:rate=0.3,n=5", "--metrics-out"],
        ["serve", "--smoke", "--requests", "1", "--frames-out"],
        ["trace", "--jobs", "3", "--out"],
    ],
    ids=["stream-metrics", "federate-metrics", "serve-frames", "trace-out"],
)
def test_output_file_creates_its_directory(argv, tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "out.json"
    assert main([*argv, str(out)]) == 0
    assert f"to {out}" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").endswith("\n")
