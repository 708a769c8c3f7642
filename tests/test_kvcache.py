from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from diffqkv.attention import attention_scores, weighted_value_sum
from diffqkv.config import AttentionConfig, PRESETS
from diffqkv.errors import CapacityError, CapacityExceededError, ConfigError, ShapeError
from diffqkv.kvcache import cache_new

SIGMA = PRESETS["sigma-1.5b"].attention
GQA16 = PRESETS["gqa-16"].attention


def toy_cfg():
    return AttentionConfig(n_q_heads=8, n_k_heads=2, n_v_heads=4, d_head=4)


def kv_pair(rng, cfg, b=1):
    return (
        rng.normal(size=(b, 1, cfg.n_k_heads, cfg.d_k_head)),
        rng.normal(size=(b, 1, cfg.n_v_heads, cfg.d_head)),
    )


class TestCacheBasics:
    def test_new_cache_is_empty(self):
        cache = cache_new(SIGMA, batch=1, capacity=4096)
        assert cache.len == 0
        assert cache.footprint() == (0, 0, 0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(CapacityError):
            cache_new(SIGMA, batch=1, capacity=0)

    @pytest.mark.parametrize("bad", [0, True, 1.5, "4"])
    def test_batch_and_capacity_must_be_positive_integers(self, bad):
        with pytest.raises(CapacityError, match="batch"):
            cache_new(SIGMA, batch=bad, capacity=4)
        with pytest.raises(CapacityError, match="capacity"):
            cache_new(SIGMA, batch=1, capacity=bad)

    @pytest.mark.parametrize("cfg", ["x", None, PRESETS["sigma-1.5b"]], ids=["str", "none", "model"])
    def test_cfg_must_be_an_attention_config(self, cfg):
        # A non-config cfg used to raise a raw AttributeError.
        with pytest.raises(ConfigError, match="AttentionConfig"):
            cache_new(cfg, batch=1, capacity=4)

    def test_numpy_integer_sizes_accepted(self):
        assert cache_new(SIGMA, batch=np.int64(2), capacity=np.int32(3)).capacity == 3

    def test_equal_head_config_reserves_equal_shapes(self):
        cache = cache_new(GQA16, batch=2, capacity=8)
        k, v = cache._k, cache._v
        assert k.shape == v.shape

    def test_append_and_read_back(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(0)
        cache = cache_new(cfg, batch=2, capacity=4)
        k_t, v_t = kv_pair(rng, cfg, b=2)
        cache.append(k_t, v_t)
        assert cache.len == 1
        k_view, v_view = cache.view()
        assert_array_equal(k_view[:, 0], k_t[:, 0])
        assert_array_equal(v_view[:, 0], v_t[:, 0])

    def test_append_past_capacity(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(1)
        cache = cache_new(cfg, batch=1, capacity=2)
        for _ in range(2):
            cache.append(*kv_pair(rng, cfg))
        with pytest.raises(CapacityExceededError):
            cache.append(*kv_pair(rng, cfg))

    def test_shape_check(self):
        cfg = toy_cfg()
        cache = cache_new(cfg, batch=1, capacity=2)
        with pytest.raises(ShapeError):
            cache.append(np.zeros((1, 1, 3, 4)), np.zeros((1, 1, 4, 4)))

    def test_view_shapes_after_three_appends(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(2)
        cache = cache_new(cfg, batch=1, capacity=8)
        for _ in range(3):
            cache.append(*kv_pair(rng, cfg))
        k_view, v_view = cache.view()
        assert k_view.shape == (1, 3, 2, 4)
        assert v_view.shape == (1, 3, 4, 4)

    def test_views_are_read_only(self):
        cfg = toy_cfg()
        cache = cache_new(cfg, batch=1, capacity=2)
        cache.append(np.zeros((1, 1, 2, 4)), np.zeros((1, 1, 4, 4)))
        k_view, _ = cache.view()
        with pytest.raises(ValueError):
            k_view[0, 0, 0, 0] = 1.0

    def test_append_only_extends(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(3)
        cache = cache_new(cfg, batch=1, capacity=8)
        for _ in range(2):
            cache.append(*kv_pair(rng, cfg))
        k2, v2 = cache.view()
        k2, v2 = k2.copy(), v2.copy()
        cache.append(*kv_pair(rng, cfg))
        k3, v3 = cache.view()
        assert_array_equal(k3[:, :2], k2)
        assert_array_equal(v3[:, :2], v2)


class TestMultiPositionAppend:
    def test_rows_land_after_the_written_prefix(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(8)
        cache = cache_new(cfg, batch=2, capacity=10)
        first = (rng.normal(size=(2, 3, 2, 4)), rng.normal(size=(2, 3, 4, 4)))
        second = (rng.normal(size=(2, 4, 2, 4)), rng.normal(size=(2, 4, 4, 4)))
        cache.append(*first)
        cache.append(*second)
        assert cache.len == 7
        k_view, v_view = cache.view()
        assert_array_equal(k_view, np.concatenate([first[0], second[0]], axis=1))
        assert_array_equal(v_view, np.concatenate([first[1], second[1]], axis=1))

    def test_zero_rows_is_a_no_op(self):
        cfg = toy_cfg()
        cache = cache_new(cfg, batch=1, capacity=2)
        cache.append(np.zeros((1, 0, 2, 4)), np.zeros((1, 0, 4, 4)))
        assert cache.len == 0

    def test_overflow_leaves_cache_unchanged(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(9)
        cache = cache_new(cfg, batch=1, capacity=5)
        cache.append(rng.normal(size=(1, 3, 2, 4)), rng.normal(size=(1, 3, 4, 4)))
        k_before, v_before = cache._k.copy(), cache._v.copy()
        with pytest.raises(CapacityExceededError):
            cache.append(rng.normal(size=(1, 3, 2, 4)), rng.normal(size=(1, 3, 4, 4)))
        assert cache.len == 3
        assert_array_equal(cache._k, k_before)
        assert_array_equal(cache._v, v_before)

    def test_k_v_row_count_mismatch(self):
        cfg = toy_cfg()
        cache = cache_new(cfg, batch=1, capacity=5)
        with pytest.raises(ShapeError):
            cache.append(np.zeros((1, 2, 2, 4)), np.zeros((1, 3, 4, 4)))
        assert cache.len == 0


class TestFootprint:
    def test_sigma_thousand_positions(self):
        # 1000 * 4 * 64 = 256000 K elements, 1000 * 16 * 64 = 1024000 V elements
        cfg = SIGMA
        cache = cache_new(cfg, batch=1, capacity=1000)
        cache.append(np.zeros((1, 1000, 4, 64)), np.zeros((1, 1000, 16, 64)))
        assert cache.footprint() == (256_000, 1_024_000, 1_280_000)

    @pytest.mark.parametrize("b,m", [(1, 1), (2, 17), (3, 40)])
    def test_closed_form(self, b, m):
        cfg = toy_cfg()
        cache = cache_new(cfg, batch=b, capacity=m)
        cache.append(np.zeros((b, m, 2, 4)), np.zeros((b, m, 4, 4)))
        fp = cache.footprint()
        assert fp.total == b * m * cfg.cache_bracket
        assert fp.total == fp.k_elements + fp.v_elements

    def test_sigma_vs_gqa16_ratio(self):
        for b, length in [(1, 1), (2, 613), (4, 4096)]:
            sigma = cache_new(SIGMA, b, length)
            gqa = cache_new(GQA16, b, length)
            sigma.len = gqa.len = length  # footprint depends only on accounting
            ratio = Fraction(sigma.footprint().total, gqa.footprint().total)
            assert ratio == Fraction(5, 8)


class TestIncrementalConsistency:
    def test_view_attention_bit_identical_to_direct(self):
        cfg = toy_cfg()
        rng = np.random.default_rng(4)
        b, t = 2, 9
        k = rng.normal(size=(b, t, 2, 4))
        v = rng.normal(size=(b, t, 4, 4))
        q = rng.normal(size=(b, 8, 4))
        cache = cache_new(cfg, batch=b, capacity=t)
        cache.append(k, v)
        k_view, v_view = cache.view()

        def attend(kk, vv):
            k_rep = np.repeat(kk, 8 // kk.shape[2], axis=2)
            alpha = attention_scores(q, k_rep, t)
            return weighted_value_sum(alpha, np.repeat(vv, 8 // vv.shape[2], axis=2))

        assert_array_equal(attend(k_view, v_view), attend(k, v))

