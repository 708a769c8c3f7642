from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from diffqkv.config import AttentionConfig, PRESETS, validate_config
from diffqkv.costmodel import (
    COST_CSV_HEADER,
    CostGrid,
    CostModelParams,
    LONG_CONTEXT_GRID,
    cost_table_csv,
    crossover_prefix,
    fit_cost_params,
    format_rate,
    kv_cache_cost,
    reduction_rate,
    total_cost_curve,
)
from diffqkv.errors import ConfigError, DegenerateError

SIGMA = PRESETS["sigma-1.5b"].attention
GQA16 = PRESETS["gqa-16"].attention
MHA32 = PRESETS["mha-32"].attention
UNIT = CostModelParams(alpha=1.0, beta=0.0, attn_alpha=1.0)


class TestCacheCost:
    def test_empty_sequence_is_beta(self):
        p = CostModelParams(alpha=2.0, beta=7.5)
        assert kv_cache_cost(SIGMA, b=3, s=0, p=p) == 7.5

    def test_sigma_single_token(self):
        # bracket = 4*64 + 16*64 = 1280
        assert kv_cache_cost(SIGMA, 1, 1, CostModelParams(alpha=1.0, beta=0.0)) == 1280

    def test_gqa16_single_token(self):
        # bracket = 16*64 + 16*64 = 2048
        assert kv_cache_cost(GQA16, 1, 1, CostModelParams(alpha=1.0, beta=0.0)) == 2048

    @pytest.mark.parametrize("b,s", [(1, 64), (2, 333), (5, 4096)])
    def test_affine_in_s_and_b(self, b, s):
        p = CostModelParams(alpha=0.31, beta=12.0)
        assert kv_cache_cost(SIGMA, b, 2 * s, p) - kv_cache_cost(SIGMA, b, s, p) == pytest.approx(
            kv_cache_cost(SIGMA, b, 3 * s, p) - kv_cache_cost(SIGMA, b, 2 * s, p)
        )
        no_beta = CostModelParams(alpha=0.31, beta=0.0)
        assert kv_cache_cost(SIGMA, 2 * b, s, no_beta) == pytest.approx(
            2 * kv_cache_cost(SIGMA, b, s, no_beta)
        )

    def test_alpha_must_be_positive(self):
        with pytest.raises(ConfigError):
            CostModelParams(alpha=0.0)


class TestReductionRate:
    def test_gqa16_to_sigma_is_exactly_three_eighths(self):
        rate = reduction_rate(GQA16, SIGMA)
        assert rate == Fraction(3, 8) == Fraction(12, 32)
        assert float(rate) == 0.375

    def test_same_config_zero(self):
        assert reduction_rate(SIGMA, SIGMA) == 0

    def test_half_k_dim_only(self):
        # MHA-32 vs half-K: 1 - (32*32 + 32*64)/(32*64 + 32*64) = 1/4
        half_k = validate_config(
            AttentionConfig(n_q_heads=32, n_k_heads=32, n_v_heads=32, d_head=64, d_k_head=32)
        )
        assert reduction_rate(MHA32, half_k) == Fraction(1, 4)

    def test_antisymmetry_ratio(self):
        r_ab = reduction_rate(GQA16, SIGMA)
        r_ba = reduction_rate(SIGMA, GQA16)
        assert (1 - r_ab) * (1 - r_ba) == 1

    def test_degenerate_base(self):
        with pytest.raises(DegenerateError):
            reduction_rate(SimpleNamespace(cache_bracket=0), SIGMA)

    def test_format(self):
        assert format_rate(Fraction(3, 8)) == "3/8 (37.5000%)"


class TestCostGrid:
    def test_must_be_ascending(self):
        with pytest.raises(ConfigError):
            CostGrid(prefix_lengths=(4, 2), output_lengths=(1,))
        with pytest.raises(ConfigError):
            CostGrid(prefix_lengths=(), output_lengths=(1,))

    def test_long_context_grid_shape(self):
        assert LONG_CONTEXT_GRID.prefix_lengths == (0, 2048, 4096, 16_384, 32_768, 65_536)
        assert LONG_CONTEXT_GRID.output_lengths == (2048, 4096, 8192, 16_384, 32_768, 65_536)


class TestTotalCostCurve:
    def test_zero_augq_sigma_always_cheaper(self):
        rows = total_cost_curve(GQA16, SIGMA, LONG_CONTEXT_GRID, UNIT)
        assert all(r.cost_sigma < r.cost_std for r in rows)
        assert all(r.rel_improvement > 0 for r in rows)

    def test_large_augq_short_context_crossover_exists(self):
        p = CostModelParams(alpha=1.0, beta=0.0, attn_alpha=1.0, augq_cost_per_token=1e9)
        grid = CostGrid(prefix_lengths=(0,), output_lengths=(16,))
        (row,) = total_cost_curve(GQA16, SIGMA, grid, p)
        assert row.cost_sigma > row.cost_std

    def test_monotone_in_prefix_and_bounded_by_rate(self):
        rate = float(reduction_rate(GQA16, SIGMA))
        grid = CostGrid(
            prefix_lengths=tuple(2**e for e in range(10, 21)), output_lengths=(64, 1024)
        )
        for augq in (0.0, 1e4, 1e8):
            p = CostModelParams(alpha=1.0, beta=3.0, attn_alpha=0.7, augq_cost_per_token=augq)
            rows = total_cost_curve(GQA16, SIGMA, grid, p)
            for n in grid.output_lengths:
                series = [r.rel_improvement for r in rows if r.output == n]
                assert all(b >= a for a, b in zip(series, series[1:]))
                assert all(r <= rate for r in series)

    def test_approaches_rate_from_below(self):
        grid = CostGrid(prefix_lengths=(2**10, 2**20), output_lengths=(16,))
        p = CostModelParams(alpha=1.0, beta=0.0, attn_alpha=1.0, augq_cost_per_token=1e6)
        near, far = total_cost_curve(GQA16, SIGMA, grid, p)
        rate = float(reduction_rate(GQA16, SIGMA))
        assert near.rel_improvement < far.rel_improvement < rate
        assert rate - far.rel_improvement < 1e-3

    def test_csv_rows_and_header(self):
        rows = total_cost_curve(GQA16, SIGMA, LONG_CONTEXT_GRID, UNIT)
        text = cost_table_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == COST_CSV_HEADER
        assert len(lines) == 1 + 36  # 6 x 6 grid
        assert cost_table_csv(rows) == text  # deterministic re-emission


class TestCrossover:
    def test_zero_augq_crosses_at_zero(self):
        assert crossover_prefix(GQA16, SIGMA, 1024, UNIT) == 0

    def test_hand_calibrated_equality_point(self):
        # diff(P) = (alpha + attn_alpha) * (2048 - 1280) * (P + 1) - augq
        #         = 1536 * (P + 1) - augq; equality at P = 1024 needs
        # augq = 1536 * 1025 = 1574400.
        p = CostModelParams(alpha=1.0, beta=0.0, attn_alpha=1.0, augq_cost_per_token=1_574_400.0)
        assert crossover_prefix(GQA16, SIGMA, 1, p) == 1024

    def test_monotone_in_output_length(self):
        p = CostModelParams(alpha=1.0, beta=0.0, attn_alpha=1.0, augq_cost_per_token=5e6)
        crossings = [crossover_prefix(GQA16, SIGMA, n, p) for n in LONG_CONTEXT_GRID.output_lengths]
        assert all(c is not None for c in crossings)
        assert all(a >= b for a, b in zip(crossings, crossings[1:]))

    def test_never_crosses_within_bound(self):
        p = CostModelParams(alpha=1.0, beta=0.0, attn_alpha=1.0, augq_cost_per_token=1e30)
        assert crossover_prefix(GQA16, SIGMA, 1, p, search_bound=1 << 20) is None


class TestCalibration:
    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(0)
        true = CostModelParams(alpha=3e-9, beta=2e-4, attn_alpha=1.5e-9, augq_cost_per_token=5e-4)
        elements = np.array([1e5, 5e5, 2e6, 8e6, 3e7])
        cache_points = [(int(e), true.alpha * e + true.beta) for e in elements]
        attn_points = [(int(e), true.attn_alpha * e) for e in elements]
        augq_times = list(true.augq_cost_per_token + rng.normal(0, 1e-6, size=6))
        fitted = fit_cost_params(cache_points, attn_points, augq_times)
        assert fitted.alpha == pytest.approx(true.alpha, rel=1e-6)
        assert fitted.beta == pytest.approx(true.beta, rel=1e-3)
        assert fitted.attn_alpha == pytest.approx(true.attn_alpha, rel=1e-6)
        assert fitted.augq_cost_per_token == pytest.approx(true.augq_cost_per_token, rel=1e-2)
