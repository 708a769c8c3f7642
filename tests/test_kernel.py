import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from diffqkv.attention import (
    apply_rope,
    attention_scores,
    init_attention_weights,
    project_qkv,
    weighted_value_sum,
)
from diffqkv.config import AttentionConfig, validate_config
from diffqkv.errors import EmptyInputError, ShapeError
from diffqkv.kernel import (
    AttentionPartial,
    ChunkPlan,
    combine_partials,
    flexhead_attention,
    split_attend,
)
from diffqkv.kvcache import cache_new


def make_cfg(n_q=8, n_k=2, n_v=4, d_head=4, **kw):
    return validate_config(
        AttentionConfig(n_q_heads=n_q, n_k_heads=n_k, n_v_heads=n_v, d_head=d_head, **kw)
    )


def fill_cache(cfg, k, v):
    cache = cache_new(cfg, batch=1, capacity=k.shape[1])
    cache.append(k, v)
    return cache


def naive_heads(q, k, v, cfg, causal_limit, w=None):
    """Explicit-duplication reference for per-head outputs [n_q, d_head]."""
    if cfg.half_k:
        k = k @ w.w_k_expand
    k_rep = np.repeat(k, cfg.n_q_heads // cfg.n_k_heads, axis=2)
    v_rep = np.repeat(v, cfg.n_q_heads // cfg.n_v_heads, axis=2)
    alpha = attention_scores(q[None], k_rep, cfg.softmax_scale_dim, causal_limit)
    return weighted_value_sum(alpha, v_rep)[0]


class TestChunkPlan:
    def test_regular_coverage(self):
        plan = ChunkPlan.for_length(10, 4)
        assert plan.boundaries == ((0, 4), (4, 8), (8, 10))
        assert plan.length == 10

    def test_single_chunk_when_size_exceeds_length(self):
        assert ChunkPlan.for_length(5, 64).boundaries == ((0, 5),)

    def test_invalid_boundaries(self):
        with pytest.raises(ValueError):
            ChunkPlan(chunk_size=2, boundaries=((0, 2), (3, 4)))
        with pytest.raises(ValueError):
            ChunkPlan(chunk_size=0)


class TestSplitCombine:
    def test_single_chunk_equals_naive(self):
        cfg = make_cfg()
        rng = np.random.default_rng(0)
        t = 7
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(1, t, 2, 4))
        v = rng.normal(size=(1, t, 4, 4))
        partial = split_attend(q, k[0], v[0], (0, t), cfg.softmax_scale_dim, t)
        got = combine_partials([partial])
        assert_allclose(got, naive_heads(q, k, v, cfg, t), atol=1e-12)

    def test_two_chunk_scalar_case(self):
        # logits [0, ln 3] split across two chunks -> weights [1/4, 3/4];
        # V rows [0], [4] -> combined output 3.
        cfg = make_cfg(n_q=1, n_k=1, n_v=1, d_head=1, softmax_scale_dim=1)
        q = np.array([[1.0]])
        k = np.array([[0.0], [math.log(3.0)]])
        v = np.array([[0.0], [4.0]])
        parts = [
            split_attend(q, k[0:1, None], v[0:1, None], (0, 1), 1, 2),
            split_attend(q, k[1:2, None], v[1:2, None], (1, 2), 1, 2),
        ]
        assert_allclose(combine_partials(parts), [[3.0]], rtol=1e-12)

    def test_fully_masked_chunk_sentinel(self):
        cfg = make_cfg()
        rng = np.random.default_rng(1)
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(4, 2, 4))
        v = rng.normal(size=(4, 4, 4))
        partial = split_attend(q, k, v, (4, 8), cfg.softmax_scale_dim, causal_limit=4)
        assert partial.empty
        assert_array_equal(partial.row_sumexp, np.zeros(8))
        live = split_attend(q, k, v, (0, 4), cfg.softmax_scale_dim, causal_limit=4)
        assert_allclose(
            combine_partials([live, partial]), combine_partials([live]), atol=1e-15
        )

    def test_single_partial_self_normalizes(self):
        cfg = make_cfg()
        rng = np.random.default_rng(2)
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(3, 2, 4))
        v = rng.normal(size=(3, 4, 4))
        p = split_attend(q, k, v, (0, 3), cfg.softmax_scale_dim, 3)
        assert_allclose(combine_partials([p]), p.out_partial / p.row_sumexp[:, None], atol=1e-15)

    def test_duplicated_halves_match_single(self):
        # Attending over [data; data] gives the same result as over data alone:
        # doubled weights cancel in the normalization.
        cfg = make_cfg()
        rng = np.random.default_rng(3)
        t = 5
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(t, 2, 4))
        v = rng.normal(size=(t, 4, 4))
        single = combine_partials([split_attend(q, k, v, (0, t), 4, t)])
        doubled = combine_partials([
            split_attend(q, k, v, (0, t), 4, 2 * t),
            split_attend(q, k, v, (t, 2 * t), 4, 2 * t),
        ])
        assert_allclose(doubled, single, atol=1e-12)

    def test_shift_invariance(self):
        # Shifting every chunk's logits by +1000 must not change the output.
        cfg = make_cfg()
        rng = np.random.default_rng(4)
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(6, 2, 4))
        v = rng.normal(size=(6, 4, 4))
        parts = [
            split_attend(q, k[:3], v[:3], (0, 3), 4, 6),
            split_attend(q, k[3:], v[3:], (3, 6), 4, 6),
        ]
        shifted = [
            AttentionPartial(p.out_partial, p.row_max + 1000.0, p.row_sumexp) for p in parts
        ]
        assert_allclose(combine_partials(shifted), combine_partials(parts), atol=1e-9)

    def test_mismatched_chunk_shapes_raise(self):
        q = np.zeros((8, 4))
        with pytest.raises(ShapeError):
            split_attend(q, np.zeros((3, 2, 5)), np.zeros((3, 4, 4)), (0, 3), 4, 3)  # K dim
        with pytest.raises(ShapeError):
            split_attend(q, np.zeros((2, 2, 4)), np.zeros((3, 4, 4)), (0, 3), 4, 3)  # K rows
        with pytest.raises(ShapeError):
            split_attend(q, np.zeros((3, 2, 4)), np.zeros((4, 4, 4)), (0, 3), 4, 3)  # V rows

    def test_all_empty_raises(self):
        empty = AttentionPartial(np.zeros((2, 3)), np.full(2, -np.inf), np.zeros(2))
        with pytest.raises(EmptyInputError):
            combine_partials([empty, empty])

    def test_order_and_grouping_invariance(self):
        cfg = make_cfg()
        rng = np.random.default_rng(5)
        t = 12
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(t, 2, 4))
        v = rng.normal(size=(t, 4, 4))
        bounds = [(0, 3), (3, 7), (7, 8), (8, 12)]
        parts = [split_attend(q, k[a:b], v[a:b], (a, b), 4, t) for a, b in bounds]
        base = combine_partials(parts)
        parts.append(split_attend(q, k[:2], v[:2], (t, t + 2), 4, t))  # fully masked
        for order in ((2, 0, 3, 1), (4, 3, 2, 1, 0), (1, 4, 0, 2, 3)):
            shuffled = [parts[i] for i in order]
            assert_allclose(combine_partials(shuffled), base, atol=1e-9)

    @pytest.mark.parametrize("n_q,n_k,n_v", [(32, 4, 16), (32, 16, 4), (8, 1, 8), (8, 8, 1)])
    def test_partial_matches_repeat_reference(self, n_q, n_k, n_v):
        rng = np.random.default_rng(n_q * 100 + n_k * 10 + n_v)
        c, limit, d, d_v = 9, 6, 6, 5
        q = rng.normal(size=(n_q, d))
        k = rng.normal(size=(c, n_k, d))
        v = rng.normal(size=(c, n_v, d_v))
        k_rep = np.repeat(k[:limit], n_q // n_k, axis=1)
        v_rep = np.repeat(v[:limit], n_q // n_v, axis=1)
        logits = np.einsum("hd,thd->ht", q, k_rep) / math.sqrt(d)
        row_max = logits.max(axis=1)
        expw = np.exp(logits - row_max[:, None])

        p = split_attend(q, k, v, (0, c), d, limit)
        assert_allclose(p.row_max, row_max, rtol=0, atol=1e-12)
        assert_allclose(p.row_sumexp, expw.sum(axis=1), rtol=0, atol=1e-12)
        assert_allclose(p.out_partial, np.einsum("ht,thd->hd", expw, v_rep), rtol=0, atol=1e-12)


class TestFlexheadAttention:
    @pytest.mark.parametrize("kwargs,t", [
        (dict(), 17),
        (dict(n_k=8, n_v=8), 9),          # mha
        (dict(n_k=1, n_v=1), 9),          # mqa
        (dict(n_k=4, n_v=4), 33),         # gqa
        (dict(d_k_head=2), 17),           # half K
        (dict(aug_q_dim=24), 17),         # augmented Q inputs upstream
    ])
    def test_matches_group_share_reference(self, kwargs, t):
        cfg = make_cfg(**kwargs)
        rng = np.random.default_rng(6)
        d_model = cfg.n_q_heads * cfg.d_head
        w = init_attention_weights(cfg, d_model, rng)
        x = rng.normal(size=(1, t, d_model))
        q, k, v = project_qkv(x, w, cfg)
        q, k = apply_rope(q, k, np.arange(t), cfg.rope_theta)
        cache = fill_cache(cfg, k, v)
        for chunk_size in (1, 3, 64, t):
            plan = ChunkPlan.for_length(t, chunk_size)
            for pos in (0, t // 2, t - 1):
                got = flexhead_attention(q[0, pos], cache, plan, cfg, w, causal_limit=pos + 1)
                want = naive_heads(q[0, pos], k[:, : pos + 1], v[:, : pos + 1], cfg, pos + 1, w)
                assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("kwargs", [dict(), dict(d_k_head=2), dict(n_q=32, n_k=4, n_v=16)])
    def test_irregular_plan_and_chunks_past_causal_limit(self, kwargs):
        cfg = make_cfg(**kwargs)
        rng = np.random.default_rng(11)
        d_model = cfg.n_q_heads * cfg.d_head
        w = init_attention_weights(cfg, d_model, rng)
        t = 23
        x = rng.normal(size=(1, t, d_model))
        q, k, v = project_qkv(x, w, cfg)
        q, k = apply_rope(q, k, np.arange(t), cfg.rope_theta)
        cache = fill_cache(cfg, k, v)
        bounds = ((0, 1), (1, 9), (9, 10), (10, 13), (13, 16), (16, 23))  # widths 1 8 1 3 3 7
        plan = ChunkPlan(chunk_size=8, boundaries=bounds)
        # Limits inside, at the edge of and before whole chunks: e.g. at 5 the last
        # four chunks lie wholly past the limit and the second one is cut.
        for limit in (1, 2, 5, 9, 10, 12, 14, 16, 23):
            got = flexhead_attention(q[0, limit - 1], cache, plan, cfg, w, causal_limit=limit)
            want = naive_heads(q[0, limit - 1], k[:, :limit], v[:, :limit], cfg, limit, w)
            assert_allclose(got, want, atol=1e-9)

    def test_batch_index_selects_its_row(self):
        cfg = make_cfg()
        rng = np.random.default_rng(12)
        t = 10
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(2, t, 2, 4))
        v = rng.normal(size=(2, t, 4, 4))
        cache = cache_new(cfg, batch=2, capacity=t)
        cache.append(k, v)
        for row in (0, 1):
            got = flexhead_attention(q, cache, ChunkPlan.for_length(t, 3), cfg, batch_index=row)
            assert_allclose(got, naive_heads(q, k[row : row + 1], v[row : row + 1], cfg, t), atol=1e-9)

    def test_chunking_invariance_all_sizes(self):
        cfg = make_cfg()
        rng = np.random.default_rng(7)
        t = 11
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(1, t, 2, 4))
        v = rng.normal(size=(1, t, 4, 4))
        cache = fill_cache(cfg, k, v)
        base = flexhead_attention(q, cache, ChunkPlan.for_length(t, t), cfg)
        for chunk_size in range(1, t + 1):
            got = flexhead_attention(q, cache, ChunkPlan.for_length(t, chunk_size), cfg)
            assert_allclose(got, base, atol=1e-9)

    def test_oversized_chunk_bit_identical_to_single(self):
        cfg = make_cfg()
        rng = np.random.default_rng(8)
        t = 6
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(1, t, 2, 4))
        v = rng.normal(size=(1, t, 4, 4))
        cache = fill_cache(cfg, k, v)
        small = flexhead_attention(q, cache, ChunkPlan.for_length(t, t), cfg)
        large = flexhead_attention(q, cache, ChunkPlan.for_length(t, 10 * t), cfg)
        assert_array_equal(large, small)

    def test_plan_length_mismatch(self):
        cfg = make_cfg()
        cache = cache_new(cfg, batch=1, capacity=4)
        with pytest.raises(ShapeError):
            flexhead_attention(np.zeros((8, 4)), cache, ChunkPlan.for_length(3, 2), cfg)

    def test_empty_cache_raises(self):
        cfg = make_cfg()
        cache = cache_new(cfg, batch=1, capacity=4)
        with pytest.raises(EmptyInputError):
            flexhead_attention(np.zeros((8, 4)), cache, ChunkPlan.for_length(0, 2), cfg)

    def test_half_k_requires_expansion_weights(self):
        from diffqkv.errors import ConfigError

        cfg = make_cfg(d_k_head=2)
        rng = np.random.default_rng(10)
        k = rng.normal(size=(1, 3, 2, 2))
        v = rng.normal(size=(1, 3, 4, 4))
        cache = fill_cache(cfg, k, v)
        with pytest.raises(ConfigError):
            flexhead_attention(np.zeros((8, 4)), cache, ChunkPlan.for_length(3, 2), cfg)

    def test_sigma_heads_long_sequence(self):
        # full head pattern (32, 4, 16) at t = 257 with chunk size 64
        cfg = make_cfg(n_q=32, n_k=4, n_v=16, d_head=16)
        rng = np.random.default_rng(9)
        t = 257
        k = rng.normal(size=(1, t, 4, 16))
        v = rng.normal(size=(1, t, 16, 16))
        q = rng.normal(size=(32, 16))
        cache = fill_cache(cfg, k, v)
        got = flexhead_attention(q, cache, ChunkPlan.for_length(t, 64), cfg)
        want = naive_heads(q, k, v, cfg, t)
        assert_allclose(got, want, atol=1e-9)
