"""Unit tests for the `repro federate` CLI command."""

import json

from repro.cli import build_parser, main


BASE = ["federate", "--arrival", "poisson:rate=0.3,n=20", "--seed", "3"]


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["federate"])
        assert args.shards == 2
        assert args.router == "least-load"
        assert args.steal_threshold is None
        assert args.compare_global is False


class TestFederateCommand:
    def test_basic_run(self, capsys):
        assert main(BASE + ["--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        assert "shard 0" in out and "shard 1" in out

    def test_metrics_out_is_byte_identical_across_runs(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        argv = BASE + [
            "--shards", "4",
            "--router", "least-load",
            "--steal-threshold", "2",
            "--faults", "crashes=1",
        ]
        for path in paths:
            assert main(argv + ["--metrics-out", str(path)]) == 0
        capsys.readouterr()
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1]
        metrics = json.loads(blobs[0])
        assert metrics["schema"] == 1
        assert len(metrics["federation"]["shards"]) == 4

    def test_compare_global_emits_comparison(self, tmp_path, capsys):
        path = tmp_path / "cmp.json"
        code = main(BASE + ["--compare-global", "--metrics-out", str(path)])
        assert code == 0
        assert "delta (federation - global)" in capsys.readouterr().out
        metrics = json.loads(path.read_text())
        assert metrics["mode"] == "federation_vs_global"
        assert set(metrics) == {"schema", "mode", "federation", "global", "delta"}
        assert set(metrics["delta"]) == {
            "p99_jct", "mean_jct", "throughput_jobs_per_slot", "completed",
        }

    def test_per_shard_scheduler_specs(self, capsys):
        argv = BASE + [
            "--shards", "2",
            "--scheduler", "none",
            "--scheduler", "heft",
        ]
        assert main(argv) == 0
        assert "2 shards" in capsys.readouterr().out

    def test_gate_p99_breach_fails(self, capsys):
        assert main(BASE + ["--gate-p99", "0.5"]) == 1
        assert "exceeds the --gate-p99 bound" in capsys.readouterr().err

    def test_gate_p99_pass(self, capsys):
        assert main(BASE + ["--gate-p99", "100000"]) == 0
        capsys.readouterr()


class TestFederateConfigErrors:
    def test_unknown_router_exits_2(self, capsys):
        assert main(BASE + ["--router", "warp"]) == 2
        assert "router spec 'warp': unknown router 'warp'" in capsys.readouterr().err

    def test_unknown_ranker_exits_2(self, capsys):
        assert main(BASE + ["--ranker", "warp"]) == 2
        assert capsys.readouterr().err == (
            "federate: unknown ranker 'warp'; "
            "choose from ['cp', 'fifo', 'sjf', 'tetris']\n"
        )

    def test_too_many_shards_exits_2(self, capsys):
        assert main(BASE + ["--shards", "99"]) == 2
        assert "cannot split" in capsys.readouterr().err

    def test_scheduler_count_mismatch_exits_2(self, capsys):
        assert main(BASE + ["--shards", "3", "--scheduler", "heft",
                            "--scheduler", "none"]) == 2
        assert "--scheduler" in capsys.readouterr().err

    def test_bad_arrival_spec_exits_2(self, capsys):
        assert main(["federate", "--arrival", "meteor"]) == 2
        capsys.readouterr()
