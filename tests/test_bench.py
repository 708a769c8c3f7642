from collections import Counter

import numpy as np
import pytest

from diffqkv import bench
from diffqkv.attention import init_attention_weights
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
from diffqkv.kvcache import DifferentialKVCache

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

    def test_elements_are_the_size_of_what_each_step_moves(self, tiny_report):
        def cached(cfg, positions):
            cache = DifferentialKVCache(cfg, 1, positions)
            cache.append(
                np.zeros((1, positions, cfg.n_k_heads, cfg.d_k_head)),
                np.zeros((1, positions, cfg.n_v_heads, cfg.d_head)),
            )
            return sum(view.size for view in cache.view())

        sigma_w = init_attention_weights(SIGMA, np.random.default_rng(0))
        augq = sigma_w.w_q_gate.size + sigma_w.w_q_up.size + sigma_w.w_q_down.size
        for row in tiny_report.rows:
            cfg, s = {"std": STD, "sigma": SIGMA}[row.config_name], row.prefix + row.output
            want = {
                "kv_cache": cached(cfg, s + 1),  # the K and V views after the append at s
                "attention": cached(cfg, s),
                "augmented_q": augq,
            }[row.module]
            assert row.elements == want, row


class TestVisitingOrder:
    GRID = CostGrid(prefix_lengths=(16, 64), output_lengths=(8, 16))  # s = 24, 32, 72, 80

    def run_recorded(self, monkeypatch, seed):
        """Every step call of one run, as (config, module, s); augmented-Q takes no s."""
        calls = []

        def recorder(module):
            def step(fixture, s=None):
                calls.append((fixture.name, module, s))
                return 0.0

            return step

        for module in ("kv_cache", "attention", "augmented_q"):
            monkeypatch.setattr(bench._ConfigFixture, module + "_step", recorder(module))
        return calls, run_bench(STD, SIGMA, self.GRID, reps=3, seed=seed)

    def test_every_key_once_per_pass_in_a_fresh_seeded_order(self, monkeypatch):
        calls, report = self.run_recorded(monkeypatch, seed=3)
        one_pass = Counter(
            (r.config_name, r.module, None if r.module == "augmented_q" else r.prefix + r.output)
            for r in report.rows
        )
        n_keys, passes = len(report.rows), 1 + 3  # warm-up max(1, 3 // 5), then reps
        assert len(calls) == passes * n_keys
        orders = [tuple(calls[i : i + n_keys]) for i in range(0, len(calls), n_keys)]
        assert all(Counter(order) == one_pass for order in orders)
        assert len(set(orders)) == passes
        assert self.run_recorded(monkeypatch, seed=3)[0] == calls


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
        emit_csv(BenchReport().to_csv(), path)
        assert path.read_text() == BENCH_CSV_HEADER + "\n"

    def test_reemission_is_byte_identical(self, tiny_report, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(tiny_report.to_csv(), p1)
        emit_csv(tiny_report.to_csv(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_sorted_and_parseable(self, tiny_report, tmp_path):
        path = tmp_path / "bench.csv"
        emit_csv(tiny_report.to_csv(), path)
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
