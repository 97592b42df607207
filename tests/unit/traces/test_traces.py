"""Unit tests for the trace substrate (jobs, generator, filters, stats)."""

import json

import pytest

from repro.dag import mapreduce_dag
from repro.errors import ConfigError, TraceError
from repro.traces import (
    Trace,
    TraceConfig,
    TraceJob,
    filter_jobs,
    generate_production_trace,
    synthesize_job,
    trace_statistics,
)
from repro.utils.rng import as_generator


def make_job(job_id=0, num_map=6, num_reduce=7):
    map_runtimes = [3] * num_map
    reduce_runtimes = [5] * num_reduce
    return TraceJob(
        job_id=job_id,
        graph=mapreduce_dag(map_runtimes, reduce_runtimes),
        num_map=num_map,
        num_reduce=num_reduce,
        map_runtimes=tuple(map_runtimes),
        reduce_runtimes=tuple(reduce_runtimes),
    )


class TestTraceJob:
    def test_basic_fields(self):
        job = make_job()
        assert job.num_tasks == 13
        assert job.mean_map_runtime() == 3
        assert job.mean_reduce_runtime() == 5

    def test_metadata_mismatch_rejected(self):
        with pytest.raises(TraceError):
            TraceJob(
                job_id=0,
                graph=mapreduce_dag([1], [1]),
                num_map=2,
                num_reduce=1,
                map_runtimes=(1, 1),
                reduce_runtimes=(1,),
            )

    def test_runtime_count_mismatch_rejected(self):
        with pytest.raises(TraceError):
            TraceJob(
                job_id=0,
                graph=mapreduce_dag([1], [1]),
                num_map=1,
                num_reduce=1,
                map_runtimes=(1, 2),
                reduce_runtimes=(1,),
            )


class TestTraceContainer:
    def test_iteration_and_indexing(self):
        trace = Trace(jobs=[make_job(0), make_job(1)])
        assert len(trace) == 2
        assert trace[1].job_id == 1
        assert [j.job_id for j in trace] == [0, 1]

    def test_graphs(self):
        trace = Trace(jobs=[make_job(0)])
        assert trace.graphs()[0].num_tasks == 13

    def test_json_roundtrip(self, tmp_path):
        trace = Trace(jobs=[make_job(0), make_job(1)], name="test")
        path = tmp_path / "trace.json"
        trace.save(path)
        restored = Trace.load(path)
        assert len(restored) == 2
        assert restored.name == "test"
        assert restored[0].graph == trace[0].graph
        assert restored[1].map_runtimes == trace[1].map_runtimes

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[")
        with pytest.raises(TraceError):
            Trace.load(path)

    def test_wrong_version_rejected(self):
        with pytest.raises(TraceError):
            Trace.from_dict({"version": 9, "jobs": []})

    def test_malformed_job_rejected(self):
        with pytest.raises(TraceError):
            Trace.from_dict({"version": 1, "jobs": [{"job_id": 0}]})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("job_id", '"abc"'),
            ("job_id", "NaN"),
            ("job_id", "Infinity"),
            ("job_id", "2.9"),
            ("num_map", "6.5"),
            ("job_id", "true"),
            ("map_runtimes", '["x", 3, 3, 3, 3, 3]'),
            ("map_runtimes", "[-5, 3, 3, 3, 3, 3]"),
            ("map_runtimes", '"333333"'),
        ],
    )
    def test_numbers_are_checked_not_coerced(self, tmp_path, field, value):
        # Spliced into the JSON text: NaN, Infinity and true reach the
        # loader the way a file on disk delivers them.
        entry = Trace(jobs=[make_job()]).to_dict()["jobs"][0]
        entry[field] = "@"
        text = json.dumps({"version": 1, "jobs": [entry]}).replace('"@"', value)
        path = tmp_path / "trace.json"
        path.write_text(text)
        with pytest.raises(TraceError):
            Trace.load(path)

    def test_generated_trace_roundtrips(self, tmp_path):
        trace = generate_production_trace(TraceConfig(num_jobs=5), seed=3)
        path = tmp_path / "trace.json"
        trace.save(path)
        assert Trace.load(path).to_dict() == trace.to_dict()


class TestSynthesizeJob:
    def test_respects_count_bounds(self):
        cfg = TraceConfig()
        rng = as_generator(0)
        for _ in range(20):
            job = synthesize_job(0, cfg, rng)
            assert cfg.min_map <= job.num_map <= cfg.max_map
            assert cfg.min_reduce <= job.num_reduce <= cfg.max_reduce

    def test_force_small_below_filter(self):
        cfg = TraceConfig()
        rng = as_generator(0)
        job = synthesize_job(0, cfg, rng, force_small=True)
        assert job.num_map <= 5 or job.num_reduce <= 5

    def test_demands_within_bounds(self):
        cfg = TraceConfig()
        rng = as_generator(1)
        job = synthesize_job(0, cfg, rng)
        for task in job.graph:
            assert all(1 <= d <= cfg.max_demand for d in task.demands)

    def test_runtime_scale_compresses(self):
        rng_a, rng_b = as_generator(3), as_generator(3)
        big = synthesize_job(0, TraceConfig(runtime_scale=1.0), rng_a)
        small = synthesize_job(0, TraceConfig(runtime_scale=0.1), rng_b)
        assert sum(small.reduce_runtimes) < sum(big.reduce_runtimes)


class TestGenerateTrace:
    def test_exact_job_count(self):
        trace = generate_production_trace(TraceConfig(num_jobs=12), seed=0)
        assert len(trace) == 12

    def test_all_jobs_pass_filter(self):
        trace = generate_production_trace(TraceConfig(num_jobs=12), seed=0)
        for job in trace:
            assert job.num_map > 5
            assert job.num_reduce > 5

    def test_raw_trace_contains_small_jobs(self):
        raw = generate_production_trace(
            TraceConfig(num_jobs=12, small_job_fraction=0.5),
            seed=0,
            include_filtered=True,
        )
        assert any(j.num_map <= 5 or j.num_reduce <= 5 for j in raw)
        assert len(raw) > 12

    def test_seeded_reproducibility(self):
        a = generate_production_trace(TraceConfig(num_jobs=5), seed=3)
        b = generate_production_trace(TraceConfig(num_jobs=5), seed=3)
        assert [j.graph for j in a] == [j.graph for j in b]

    def test_calibration_close_to_paper(self):
        """The defaults must land near the published statistics."""
        from repro.traces import trace_statistics

        trace = generate_production_trace(seed=0)
        stats = trace_statistics(trace)
        assert stats.num_jobs == 99
        assert 10 <= stats.median_map_count <= 18      # paper: 14
        assert 13 <= stats.median_reduce_count <= 21   # paper: 17
        assert stats.max_map_count <= 29
        assert stats.max_reduce_count <= 38

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            TraceConfig(num_jobs=0)
        with pytest.raises(ConfigError):
            TraceConfig(min_map=10, median_map=5, max_map=20)
        with pytest.raises(ConfigError):
            TraceConfig(runtime_scale=0)


class TestFilters:
    def test_filter_removes_small(self):
        jobs = [make_job(0, num_map=6, num_reduce=7)]
        small = TraceJob(
            job_id=1,
            graph=mapreduce_dag([1] * 3, [1] * 7),
            num_map=3,
            num_reduce=7,
            map_runtimes=(1, 1, 1),
            reduce_runtimes=(1,) * 7,
        )
        trace = Trace(jobs=jobs + [small])
        kept = filter_jobs(trace)
        assert len(kept) == 1
        assert kept[0].job_id == 0

    def test_filter_preserves_input(self):
        trace = Trace(jobs=[make_job(0)])
        filter_jobs(trace, min_map=100)
        assert len(trace) == 1


class TestStatistics:
    def test_headline_numbers(self):
        trace = Trace(jobs=[make_job(0, 6, 7), make_job(1, 10, 9)])
        stats = trace_statistics(trace)
        assert stats.num_jobs == 2
        assert stats.max_map_count == 10
        assert stats.median_reduce_count in (7, 8, 9)
        assert len(stats.map_runtimes) == 16
        assert stats.median_map_runtime == 3
        assert stats.median_reduce_runtime == 5

    def test_cdfs_end_at_one(self):
        trace = Trace(jobs=[make_job(0)])
        stats = trace_statistics(trace)
        for cdf in (*stats.count_cdfs(), *stats.runtime_cdfs()):
            assert cdf[-1][1] == pytest.approx(1.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            trace_statistics(Trace())
