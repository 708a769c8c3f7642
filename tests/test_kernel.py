import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from diffqkv import attention
from diffqkv.attention import (
    _masked_logits,
    _merge,
    _partial,
    apply_rope,
    attention_scores,
    init_attention_weights,
    project_qkv,
    scored_query,
    weighted_value_sum,
)
from diffqkv.config import AttentionConfig
from diffqkv.errors import ConfigError, DivergenceError, EmptyInputError, PositionError, ShapeError
from diffqkv.kernel import flexhead_attention
from diffqkv.kvcache import cache_new


def make_cfg(n_q=8, n_k=2, n_v=4, d_head=4, **kw):
    return AttentionConfig(n_q_heads=n_q, n_k_heads=n_k, n_v_heads=n_v, d_head=d_head, **kw)


def fill_cache(cfg, k, v):
    cache = cache_new(cfg, batch=1, capacity=k.shape[1])
    cache.append(k, v)
    return cache


def tile(q, cfg, w=None):
    """One query per batch row, [b, n_q, d_head], scored as the layer scores it: a [b, n_q, 1, d] tile."""
    return scored_query(q, w, cfg)[:, :, None]


def partial(q, k, v, limit):
    """(V sum, row max, sum-exp) of one query [n_q, d] over K/V rows [c, n, d], rows >= limit masked."""
    logits = _masked_logits(q[None], k[None], limit)
    return tuple(a[0] for a in _partial(logits, v[None]))


def merge(parts):
    return _merge([tuple(a[None] for a in part) for part in parts])[0]


def naive_heads(q, k, v, cfg, causal_limit, w=None):
    """Explicit-duplication reference for per-head outputs [n_q, d_head], at scale 1/sqrt(d_head)."""
    if cfg.half_k:
        k = k @ w.w_k_expand
    k_rep = np.repeat(k, cfg.n_q_heads // cfg.n_k_heads, axis=2)
    v_rep = np.repeat(v, cfg.n_q_heads // cfg.n_v_heads, axis=2)
    alpha = attention_scores(q[None] / math.sqrt(cfg.d_head), k_rep, causal_limit)
    return weighted_value_sum(alpha, v_rep)[0]


class TestSoftmaxPartialMerge:
    """The attention core's softmax partial and log-sum-exp merge, which the kernel splits over."""

    def test_single_chunk_equals_naive(self):
        cfg = make_cfg()
        rng = np.random.default_rng(0)
        t = 7
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(1, t, 2, 4))
        v = rng.normal(size=(1, t, 4, 4))
        got = merge([partial(q / math.sqrt(cfg.d_head), k[0], v[0], t)])
        assert_allclose(got, naive_heads(q, k, v, cfg, t), atol=1e-12)

    def test_two_chunk_scalar_case(self):
        # logits [0, ln 3] split across two chunks -> weights [1/4, 3/4];
        # V rows [0], [4] -> combined output 3.
        q = np.array([[1.0]])
        k = np.array([[0.0], [math.log(3.0)]])
        v = np.array([[0.0], [4.0]])
        parts = [partial(q, k[i : i + 1, None], v[i : i + 1, None], 1) for i in (0, 1)]
        assert_allclose(merge(parts), [[3.0]], rtol=1e-12)

    def test_fully_masked_chunk_sentinel(self):
        cfg = make_cfg()
        rng = np.random.default_rng(1)
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(4, 2, 4))
        v = rng.normal(size=(4, 4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masked = partial(q, k, v, 0)
            assert_array_equal(masked[0], np.zeros((8, 4)))
            assert_array_equal(masked[1], np.full(8, -np.inf))
            assert_array_equal(masked[2], np.zeros(8))
            live = partial(q, k, v, 4)
            assert_allclose(merge([live, masked]), merge([live]), atol=1e-15)
            # Tile rows 0 and 1 see none of the block's keys, row 2 sees its first.
            tile = rng.normal(size=(1, 8, 3, 4))
            out, row_max, row_sumexp = _partial(_masked_logits(tile, k[None], -1), v[None])
            assert np.isfinite(out).all()
            assert_array_equal(out[:, :, :2], 0.0)
            assert_array_equal(row_max[:, :, :2], -np.inf)
            assert_array_equal(row_sumexp[:, :, :2], 0.0)
            assert_allclose(row_sumexp[:, :, 2], 1.0, rtol=0, atol=1e-15)

    def test_partial_row_max_is_np_max(self):
        # Rows that are -inf throughout get p = 0 and m = -inf; rows that mix
        # -inf and finite logits keep np.max as their max, and p = 0 where -inf.
        rng = np.random.default_rng(22)
        logits = rng.normal(size=(2, 3, 4, 7))
        logits[0, 1, 2] = -np.inf
        logits[1, :, :, 3:] = -np.inf
        logits[0, 0, :, ::2] = -np.inf
        want_max = np.max(logits, axis=-1)
        p, row_max, row_sumexp = _partial(logits.copy(), None)
        assert_array_equal(row_max, want_max)
        assert_array_equal(p[0, 1, 2], 0.0)
        assert row_sumexp[0, 1, 2] == 0.0
        assert_array_equal(p[np.isneginf(logits)], 0.0)
        assert_array_equal(p.max(axis=-1)[np.isfinite(want_max)], 1.0)

    def test_single_partial_self_normalizes(self):
        cfg = make_cfg()
        rng = np.random.default_rng(2)
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(3, 2, 4))
        v = rng.normal(size=(3, 4, 4))
        out, _, row_sumexp = p = partial(q, k, v, 3)
        assert_allclose(merge([p]), out / row_sumexp[:, None], atol=1e-15)

    def test_duplicated_halves_match_single(self):
        # Attending over [data; data] gives the same result as over data alone:
        # doubled weights cancel in the normalization.
        cfg = make_cfg()
        rng = np.random.default_rng(3)
        t = 5
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(t, 2, 4))
        v = rng.normal(size=(t, 4, 4))
        scored = q / math.sqrt(cfg.d_head)
        single = merge([partial(scored, k, v, t)])
        doubled = merge([partial(scored, k, v, t), partial(scored, k, v, t)])
        assert_allclose(doubled, single, atol=1e-12)
        cache = fill_cache(cfg, *(np.concatenate([a, a])[None] for a in (k, v)))
        chunked = flexhead_attention(tile(q[None], cfg), cache, t)
        assert_allclose(chunked[0, :, 0], single, atol=1e-12)

    def test_shift_invariance(self):
        # Shifting every chunk's logits by +1000 must not change the output.
        rng = np.random.default_rng(4)
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(6, 2, 4))
        v = rng.normal(size=(6, 4, 4))
        parts = [partial(q, k[:3], v[:3], 3), partial(q, k[3:], v[3:], 3)]
        shifted = [(out, row_max + 1000.0, row_sumexp) for out, row_max, row_sumexp in parts]
        assert_allclose(merge(shifted), merge(parts), atol=1e-9)

    def test_large_logits_stay_finite(self):
        # Queries scaled so the logits reach +-1e3: every chunking stays finite and
        # equals a max-subtracted one-pass softmax.
        cfg = make_cfg()
        rng = np.random.default_rng(13)
        t = 11
        k = rng.normal(size=(1, t, 2, 4))
        v = rng.normal(size=(1, t, 4, 4))
        q = rng.normal(size=(8, 4))
        q *= 1e3 / np.abs(np.einsum("hd,thd->ht", q, np.repeat(k[0], 4, axis=1)) / 2).max()
        cache = fill_cache(cfg, k, v)
        want = naive_heads(q, k, v, cfg, t)
        for chunk_size in (1, 3, t):
            got = flexhead_attention(tile(q[None], cfg), cache, chunk_size)[0, :, 0]
            assert np.isfinite(got).all()
            assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_all_empty_raises(self):
        cfg = make_cfg()
        rng = np.random.default_rng(14)
        q = rng.normal(size=(8, 4))
        cache = fill_cache(cfg, rng.normal(size=(1, 4, 2, 4)), rng.normal(size=(1, 4, 4, 4)))
        with pytest.raises(EmptyInputError):
            flexhead_attention(tile(q[None], cfg), cache, 2, causal_limit=0)

    def test_order_and_grouping_invariance(self):
        rng = np.random.default_rng(5)
        t = 12
        q = rng.normal(size=(8, 4))
        k = rng.normal(size=(t, 2, 4))
        v = rng.normal(size=(t, 4, 4))
        bounds = [(0, 3), (3, 7), (7, 8), (8, 12)]
        parts = [partial(q, k[a:b], v[a:b], b - a) for a, b in bounds]
        base = merge(parts)
        parts.append(partial(q, k[:2], v[:2], 0))  # fully masked
        for order in ((2, 0, 3, 1), (4, 3, 2, 1, 0), (1, 4, 0, 2, 3)):
            assert_allclose(merge([parts[i] for i in order]), base, atol=1e-9)

    @pytest.mark.parametrize("n_q,n_k,n_v", [(32, 4, 16), (32, 16, 4), (8, 1, 8), (8, 8, 1)])
    def test_partial_matches_repeat_reference(self, n_q, n_k, n_v):
        rng = np.random.default_rng(n_q * 100 + n_k * 10 + n_v)
        c, limit, d, d_v = 9, 6, 6, 5
        q = rng.normal(size=(n_q, d))
        k = rng.normal(size=(c, n_k, d))
        v = rng.normal(size=(c, n_v, d_v))
        k_rep = np.repeat(k[:limit], n_q // n_k, axis=1)
        v_rep = np.repeat(v[:limit], n_q // n_v, axis=1)
        logits = np.einsum("hd,thd->ht", q, k_rep)
        row_max = logits.max(axis=1)
        expw = np.exp(logits - row_max[:, None])

        out, got_max, got_sumexp = partial(q, k, v, limit)
        assert_allclose(got_max, row_max, rtol=0, atol=1e-12)
        assert_allclose(got_sumexp, expw.sum(axis=1), rtol=0, atol=1e-12)
        assert_allclose(out, np.einsum("ht,thd->hd", expw, v_rep), rtol=0, atol=1e-12)


class TestFlexheadAttention:
    @pytest.mark.parametrize("kwargs,t", [
        (dict(), 17),
        (dict(n_k=8, n_v=8), 9),          # mha
        (dict(n_k=1, n_v=1), 9),          # mqa
        (dict(n_k=4, n_v=4), 33),         # gqa
        (dict(d_k_head=2), 17),           # half K
        (dict(aug_q_dim=24), 17),         # augmented Q inputs upstream
    ])
    def test_matches_repeated_heads_reference(self, kwargs, t):
        cfg = make_cfg(**kwargs)
        rng = np.random.default_rng(6)
        d_model = cfg.n_q_heads * cfg.d_head
        w = init_attention_weights(cfg, rng)
        x = rng.normal(size=(1, t, d_model))
        q, k, v = project_qkv(x, w, cfg)
        q, k = apply_rope(q, k, np.arange(t), cfg.rope_theta)
        cache = fill_cache(cfg, k, v)
        for chunk_size in (1, 3, 64, t):
            for pos in (0, t // 2, t - 1):
                got = flexhead_attention(tile(q[:, pos], cfg, w), cache, chunk_size, causal_limit=pos + 1)
                want = naive_heads(q[0, pos], k[:, : pos + 1], v[:, : pos + 1], cfg, pos + 1, w)
                assert_allclose(got[0, :, 0], want, atol=1e-9)

    @pytest.mark.parametrize("kwargs", [dict(), dict(d_k_head=2), dict(n_q=32, n_k=4, n_v=16)])
    def test_chunks_cut_at_causal_limit(self, kwargs):
        cfg = make_cfg(**kwargs)
        rng = np.random.default_rng(11)
        d_model = cfg.n_q_heads * cfg.d_head
        w = init_attention_weights(cfg, rng)
        t = 23
        x = rng.normal(size=(1, t, d_model))
        q, k, v = project_qkv(x, w, cfg)
        q, k = apply_rope(q, k, np.arange(t), cfg.rope_theta)
        cache = fill_cache(cfg, k, v)
        # Limits inside, at the edge of and before whole chunks: e.g. at 5 with
        # width 8 the keys past the limit are never scored and the first chunk is cut.
        for chunk_size in (1, 3, 7, 8):
            for limit in (1, 2, 5, 9, 10, 12, 14, 16, 23):
                got = flexhead_attention(tile(q[:, limit - 1], cfg, w), cache, chunk_size, causal_limit=limit)
                want = naive_heads(q[0, limit - 1], k[:, :limit], v[:, :limit], cfg, limit, w)
                assert_allclose(got[0, :, 0], want, atol=1e-9)

    def test_attends_every_batch_row(self):
        cfg = make_cfg()
        rng = np.random.default_rng(12)
        t = 10
        q = rng.normal(size=(2, 8, 4))
        k = rng.normal(size=(2, t, 2, 4))
        v = rng.normal(size=(2, t, 4, 4))
        cache = cache_new(cfg, batch=2, capacity=t)
        cache.append(k, v)
        got = flexhead_attention(tile(q, cfg), cache, 3)  # spans of three chunks copy V: b > 1
        for row in (0, 1):
            want = naive_heads(q[row], k[row : row + 1], v[row : row + 1], cfg, t)
            assert_allclose(got[row, :, 0], want, atol=1e-9)

    def test_spans_hold_whole_chunks_then_the_clipped_last(self, monkeypatch):
        # Ten keys in chunks of 4: [0, 4), [4, 8) and the clipped [8, 10).  A budget
        # of 64 scores holds two chunks of one query's 8 heads, 32 holds one.
        cfg = make_cfg()
        rng = np.random.default_rng(16)
        t = 10
        q = tile(rng.normal(size=(1, 8, 4)), cfg)
        cache = fill_cache(cfg, rng.normal(size=(1, t, 2, 4)), rng.normal(size=(1, t, 4, 4)))
        want = flexhead_attention(q, cache, 4)
        real, grids = attention._partial, []

        def spy(logits, v):
            grids.append(logits.shape)
            return real(logits, v)

        monkeypatch.setattr(attention, "_partial", spy)
        for budget, shapes in ((64, [(2, 8, 1, 4), (1, 8, 1, 2)]), (32, [(1, 8, 1, 4)] * 2 + [(1, 8, 1, 2)])):
            monkeypatch.setattr(attention, "_SCORE_BUDGET", budget)
            grids.clear()
            assert_allclose(flexhead_attention(q, cache, 4), want, atol=1e-12)
            assert grids == shapes

    @pytest.mark.parametrize("kwargs", [dict(), dict(d_k_head=2)], ids=["full-k", "half-k"])
    def test_default_tile_is_the_last_cached_positions(self, kwargs):
        # Row r of a T-row tile attends [0, cache.len - T + 1 + r), in the pass's own key block.
        cfg = make_cfg(**kwargs)
        rng = np.random.default_rng(24)
        w = init_attention_weights(cfg, rng)
        t, rows = 12, 4
        cache = fill_cache(cfg, rng.normal(size=(1, t, 2, cfg.d_k_head)), rng.normal(size=(1, t, 4, 4)))
        q = scored_query(rng.normal(size=(1, 8, rows, 4)), w, cfg)
        got = flexhead_attention(q, cache)
        block = attention._tile_sizes(1, rows, 8, 2)[1]
        assert_array_equal(got, flexhead_attention(q, cache, block, causal_limit=t - rows + 1))
        for r in range(rows):
            one = flexhead_attention(q[:, :, r : r + 1], cache, causal_limit=t - rows + 1 + r)
            assert_allclose(got[:, :, r : r + 1], one, rtol=0, atol=1e-12)

    def test_empty_tile_gives_empty_heads(self):
        # As cached attention of no new position does, on an empty cache too; heads are d_head wide.
        cfg = make_cfg(d_k_head=2)
        rng = np.random.default_rng(25)
        q = np.zeros((1, 8, 0, 2))
        assert flexhead_attention(q, cache_new(cfg, batch=1, capacity=2)).shape == (1, 8, 0, 4)
        cache = fill_cache(cfg, rng.normal(size=(1, 2, 2, 2)), rng.normal(size=(1, 2, 4, 4)))
        assert flexhead_attention(q, cache, 3).shape == (1, 8, 0, 4)

    def test_tile_rows_past_the_cache_raise_position_error(self):
        cfg = make_cfg()
        rng = np.random.default_rng(26)
        cache = fill_cache(cfg, rng.normal(size=(1, 5, 2, 4)), rng.normal(size=(1, 5, 4, 4)))
        q = np.ones((1, 8, 3, 4))
        assert flexhead_attention(q, cache, causal_limit=3).shape == (1, 8, 3, 4)  # rows end at 5
        for limit in (4, 5):
            with pytest.raises(PositionError, match="past the 5 cached positions"):
                flexhead_attention(q, cache, causal_limit=limit)

    def test_nested_list_query_is_taken_as_an_array(self):
        # Used to raise a raw AttributeError ("'list' object has no attribute 'ndim'").
        cfg = make_cfg()
        rng = np.random.default_rng(27)
        cache = fill_cache(cfg, rng.normal(size=(1, 3, 2, 4)), rng.normal(size=(1, 3, 4, 4)))
        q = rng.normal(size=(1, 8, 1, 4))
        assert_array_equal(flexhead_attention(q.tolist(), cache), flexhead_attention(q, cache))

    def test_chunking_invariance_all_sizes(self):
        cfg = make_cfg()
        rng = np.random.default_rng(7)
        t = 11
        q = tile(rng.normal(size=(1, 8, 4)), cfg)
        k = rng.normal(size=(1, t, 2, 4))
        v = rng.normal(size=(1, t, 4, 4))
        cache = fill_cache(cfg, k, v)
        base = flexhead_attention(q, cache, t)
        for chunk_size in range(1, t + 1):
            got = flexhead_attention(q, cache, chunk_size)
            assert_allclose(got, base, atol=1e-9)

    def test_oversized_chunk_bit_identical_to_single(self):
        cfg = make_cfg()
        rng = np.random.default_rng(8)
        t = 6
        q = tile(rng.normal(size=(1, 8, 4)), cfg)
        k = rng.normal(size=(1, t, 2, 4))
        v = rng.normal(size=(1, t, 4, 4))
        cache = fill_cache(cfg, k, v)
        small = flexhead_attention(q, cache, t)
        large = flexhead_attention(q, cache, 10 * t)
        assert_array_equal(large, small)

    def test_causal_limit_outside_cache_raises(self):
        cfg = make_cfg()
        rng = np.random.default_rng(17)
        t = 6
        q = rng.normal(size=(1, 8, 4))
        k = rng.normal(size=(1, t, 2, 4))
        v = rng.normal(size=(1, t, 4, 4))
        cache = fill_cache(cfg, k, v)
        for limit in (1, t):
            want = naive_heads(q[0], k[:, :limit], v[:, :limit], cfg, limit)
            got = flexhead_attention(tile(q, cfg), cache, 4, causal_limit=limit)
            assert_allclose(got[0, :, 0], want, atol=1e-9)
        for limit in (t + 1, 60):
            with pytest.raises(PositionError):
                flexhead_attention(tile(q, cfg), cache, 4, causal_limit=limit)
        for limit in (0, -1):
            with pytest.raises(EmptyInputError):
                flexhead_attention(tile(q, cfg), cache, 4, causal_limit=limit)

    @pytest.mark.parametrize(
        "shape", [(1, 4, 1, 8), (1, 16, 1, 8), (1, 8, 1, 2), (1, 8, 1, 8), (2, 8, 1, 4), (8, 1, 4)]
    )
    def test_query_must_fit_the_cache_config(self, shape):
        # [1, 4, 1, 8] and [1, 16, 1, 8] against 8 query heads of dim 4 used to be grouped wrongly;
        # [2, 8, 1, 4] has a batch the cache does not hold.
        cfg = make_cfg()
        rng = np.random.default_rng(22)
        cache = fill_cache(cfg, rng.normal(size=(1, 3, 2, 4)), rng.normal(size=(1, 3, 4, 4)))
        with pytest.raises(ShapeError, match=r"\[1, 8, T, 4\]"):
            flexhead_attention(np.ones(shape), cache, 2)

    def test_causal_limit_must_be_an_integer(self):
        cfg = make_cfg()
        rng = np.random.default_rng(20)
        cache = fill_cache(cfg, rng.normal(size=(1, 3, 2, 4)), rng.normal(size=(1, 3, 4, 4)))
        for limit in (True, 1.5, 2.0):  # True used to be taken as 1, a float to raise a raw TypeError
            with pytest.raises(PositionError, match="causal_limit"):
                flexhead_attention(np.zeros((1, 8, 1, 4)), cache, 2, causal_limit=limit)
        got = flexhead_attention(np.ones((1, 8, 1, 4)), cache, 2, causal_limit=np.int64(2))
        assert_array_equal(got, flexhead_attention(np.ones((1, 8, 1, 4)), cache, 2, causal_limit=2))

    def test_causal_limit_of_another_type_raises_position_error(self):
        # A string or list used to raise a raw TypeError, and 0.5 an EmptyInputError.
        cfg = make_cfg()
        rng = np.random.default_rng(21)
        cache = fill_cache(cfg, rng.normal(size=(1, 3, 2, 4)), rng.normal(size=(1, 3, 4, 4)))
        for limit in ("2", [2], 0.5, -0.5):
            with pytest.raises(PositionError, match="causal_limit"):
                flexhead_attention(np.zeros((1, 8, 1, 4)), cache, 2, causal_limit=limit)

    def test_chunk_below_one_raises(self):
        cfg = make_cfg()
        rng = np.random.default_rng(18)
        cache = fill_cache(cfg, rng.normal(size=(1, 3, 2, 4)), rng.normal(size=(1, 3, 4, 4)))
        for chunk in (0, -1, 1.5, True):  # a float or bool used to raise a raw TypeError
            with pytest.raises(ConfigError, match="chunk"):
                flexhead_attention(np.zeros((1, 8, 1, 4)), cache, chunk)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_raises_before_the_cache_is_read(self, monkeypatch, bad):
        # A NaN query used to give NaN heads with no error, an infinite one only a RuntimeWarning.
        cfg = make_cfg()
        rng = np.random.default_rng(23)
        cache = fill_cache(cfg, rng.normal(size=(1, 2, 2, 4)), rng.normal(size=(1, 2, 4, 4)))
        q = np.zeros((1, 8, 1, 4))
        q[0, 3, 0, 1] = bad
        monkeypatch.setattr(cache, "view", lambda: pytest.fail("the cache was read"))
        with pytest.raises(DivergenceError, match="query"):
            flexhead_attention(q, cache, 2)

    def test_query_without_batch_axis_raises(self):
        cfg = make_cfg()
        rng = np.random.default_rng(19)
        cache = fill_cache(cfg, rng.normal(size=(1, 3, 2, 4)), rng.normal(size=(1, 3, 4, 4)))
        for shape in ((8, 4), (1, 8, 4)):  # one query without b or T, one without T
            with pytest.raises(ShapeError):
                flexhead_attention(np.zeros(shape), cache, 2)

    def test_empty_cache_raises(self):
        cfg = make_cfg()
        cache = cache_new(cfg, batch=1, capacity=4)
        with pytest.raises(EmptyInputError):
            flexhead_attention(np.zeros((1, 8, 1, 4)), cache, 2)

    def test_half_k_requires_expansion_weights(self):
        # The kernel takes scored queries; scoring a half-K query needs w_k_expand.
        with pytest.raises(ConfigError):
            scored_query(np.zeros((1, 8, 4)), None, make_cfg(d_k_head=2))

    def test_sigma_heads_long_sequence(self):
        # full head pattern (32, 4, 16) at t = 257 with chunk size 64
        cfg = make_cfg(n_q=32, n_k=4, n_v=16, d_head=16)
        rng = np.random.default_rng(9)
        t = 257
        k = rng.normal(size=(1, t, 4, 16))
        v = rng.normal(size=(1, t, 16, 16))
        q = rng.normal(size=(32, 16))
        cache = fill_cache(cfg, k, v)
        got = flexhead_attention(tile(q[None], cfg), cache, 64)[0, :, 0]
        want = naive_heads(q, k, v, cfg, t)
        assert_allclose(got, want, atol=1e-9)
