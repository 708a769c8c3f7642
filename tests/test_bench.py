import pytest

from diffqkv import bench
from diffqkv.bench import (
    BENCH_CSV_HEADER,
    BenchReport,
    augq_prefix_independence,
    emit_csv,
    run_bench,
    traffic_ratio,
)
from diffqkv.config import PRESETS
from diffqkv.costmodel import CostGrid
from diffqkv.errors import UsageError

STD = PRESETS["gqa-16"].attention
SIGMA = PRESETS["sigma-1.5b"].attention
TINY_GRID = CostGrid(prefix_lengths=(16, 64), output_lengths=(16,))


@pytest.fixture(scope="module")
def tiny_report():
    return run_bench(STD, SIGMA, TINY_GRID, reps=3, seed=0)


class TestRunBench:
    def test_rejects_few_reps(self):
        with pytest.raises(UsageError):
            run_bench(STD, SIGMA, TINY_GRID, reps=2)

    @pytest.mark.parametrize("args", [dict(reps=3.5), dict(seed=-1), dict(seed=0.5)])
    def test_rejects_non_integer_reps_and_seed(self, args):
        with pytest.raises(UsageError, match="reps|seed"):
            run_bench(STD, SIGMA, TINY_GRID, **{"reps": 3, **args})

    def test_refuses_caches_past_physical_memory(self, monkeypatch):
        # Cache plus copy buffer per config, at the longest cell 64 + 16 (+1 appended).
        reserved = sum(2 * 81 * cfg.cache_bracket * 8 for cfg in (STD, SIGMA))
        monkeypatch.setattr(bench, "_physical_memory", lambda: reserved - 1)
        with pytest.raises(UsageError, match="more than this machine's"):
            run_bench(STD, SIGMA, TINY_GRID, reps=3)
        monkeypatch.setattr(bench, "_physical_memory", lambda: reserved)
        assert run_bench(STD, SIGMA, TINY_GRID, reps=3).rows

    def test_modules_present(self, tiny_report):
        std_modules = {r.module for r in tiny_report.select(config_name="std")}
        sigma_modules = {r.module for r in tiny_report.select(config_name="sigma")}
        assert std_modules == {"kv_cache", "attention"}
        assert sigma_modules == {"kv_cache", "attention", "augmented_q"}

    def test_row_invariants(self, tiny_report):
        for row in tiny_report.rows:
            assert row.elapsed >= 0
            assert row.repetitions >= 3
            assert row.elements > 0

    def test_element_traffic_ratio(self, tiny_report):
        ratios = traffic_ratio(tiny_report, "kv_cache")
        assert ratios and all(r == 0.625 for r in ratios)
        assert traffic_ratio(tiny_report, "attention") == ratios


class TestTimingStructure:
    def test_kv_cache_elapsed_monotone_in_prefix(self):
        # Well-separated sizes so the structural monotonicity dominates noise.
        grid = CostGrid(prefix_lengths=(128, 1024, 4096), output_lengths=(128,))
        report = run_bench(STD, SIGMA, grid, reps=7, seed=1)
        for name in ("std", "sigma"):
            rows = sorted(report.select(module="kv_cache", config_name=name), key=lambda r: r.prefix)
            elapsed = [r.elapsed for r in rows]
            assert elapsed == sorted(elapsed), (name, elapsed)

    def test_augq_prefix_independent(self):
        grid = CostGrid(prefix_lengths=(16, 256, 1024), output_lengths=(16,))
        report = run_bench(STD, SIGMA, grid, reps=5, seed=2)
        spread, allowance, ok = augq_prefix_independence(report)
        assert ok, (spread, allowance)


class TestCsv:
    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(BenchReport(), path)
        assert path.read_text() == BENCH_CSV_HEADER + "\n"

    def test_reemission_is_byte_identical(self, tiny_report, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(tiny_report, p1)
        emit_csv(tiny_report, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_sorted_and_parseable(self, tiny_report, tmp_path):
        path = tmp_path / "bench.csv"
        emit_csv(tiny_report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == BENCH_CSV_HEADER
        keys = []
        for line in lines[1:]:
            config, prefix, output, module, elapsed, reps, disp, elements = line.split(",")
            keys.append((int(prefix), int(output), config))
            float(elapsed), float(disp)
            int(reps), int(elements)
        assert keys == sorted(keys)

    def test_non_timing_columns_deterministic_across_runs(self):
        again = run_bench(STD, SIGMA, TINY_GRID, reps=3, seed=0)
        first = run_bench(STD, SIGMA, TINY_GRID, reps=3, seed=0)

        def skeleton(report):
            return sorted(
                (r.config_name, r.prefix, r.output, r.module, r.repetitions, r.elements)
                for r in report.rows
            )

        assert skeleton(first) == skeleton(again)
