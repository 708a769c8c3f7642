import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from diffqkv import attention
from diffqkv import autodiff as ad
from diffqkv.attention import (
    AttentionWeights,
    SelectivePolicy,
    apply_rope,
    attention_output,
    attention_scores,
    attention_logits,
    augment_q,
    cached_attention,
    init_attention_weights,
    naive_diffqkv_attention,
    project_qkv,
    rope_angles,
    scored_query,
    select_top_k,
    selective_v_attention,
    weighted_value_sum,
)
from diffqkv.config import AttentionConfig, PRESETS
from diffqkv.errors import ConfigError, DimensionError, EmptyInputError, PositionError, ShapeError, UsageError
from diffqkv.kvcache import DifferentialKVCache
from diffqkv.reference import grouped_attention_by_duplication
from diffqkv.verify import _EQUIV_CONFIGS

from oracles import brute_force_diffqkv


def make_cfg(n_q=8, n_k=2, n_v=4, d_head=4, **kw):
    return AttentionConfig(n_q_heads=n_q, n_k_heads=n_k, n_v_heads=n_v, d_head=d_head, **kw)


class TestProjectQKV:
    def test_sigma_shapes(self):
        cfg = PRESETS["sigma-1.5b"].attention
        w = init_attention_weights(cfg, seed=0)
        x = np.random.default_rng(0).normal(size=(1, 7, 2048))
        q, k, v = project_qkv(x, w, cfg)
        assert q.shape == (1, 7, 32, 64)
        assert k.shape == (1, 7, 4, 64)
        assert v.shape == (1, 7, 16, 64)

    def test_zero_input_gives_zero_projections(self):
        cfg = make_cfg(aug_q_dim=16)
        w = init_attention_weights(cfg, seed=1)
        q, k, v = project_qkv(np.zeros((2, 3, 32)), w, cfg)
        assert not q.any() and not k.any() and not v.any()

    def test_identity_k_projection(self):
        cfg = make_cfg(n_q=1, n_k=1, n_v=1, d_head=2)
        w = init_attention_weights(cfg, seed=0)
        w.w_k = np.eye(2)
        _, k, _ = project_qkv(np.array([[[1.0, 2.0]]]), w, cfg)
        assert_array_equal(k, [[[[1.0, 2.0]]]])

    def test_wrong_d_model(self):
        cfg = make_cfg()
        w = init_attention_weights(cfg, seed=0)
        with pytest.raises(ShapeError):
            project_qkv(np.zeros((1, 2, 33)), w, cfg)

    @pytest.mark.parametrize(
        "weights_cfg,cfg,wrong",
        [
            (make_cfg(8, 4, 4, 4), make_cfg(8, 2, 4, 4), r"w_k \(32, 16\), not \(32, 8\)$"),
            (make_cfg(), make_cfg(d_k_head=2), r"w_k \(32, 8\), not \(32, 4\); w_k_expand None, not \(2, 4\)$"),
            (make_cfg(aug_q_dim=24), make_cfg(), r"w_q_down \(24, 32\), not None; w_q_gate .*; w_q_up"),
        ],
        ids=["other-k-heads", "half-k-without-expansion", "extra-augq"],
    )
    def test_weights_of_another_config_raise_config_error(self, weights_cfg, cfg, wrong):
        # Used to raise numpy's raw ValueError ("cannot reshape array ...") or pass unnoticed.
        w = init_attention_weights(weights_cfg, seed=0)
        x = np.zeros((1, 3, 32))
        with pytest.raises(ConfigError, match=wrong):
            cached_attention(x, w, DifferentialKVCache(cfg, 1, 3))
        with pytest.raises(ConfigError, match=wrong):
            naive_diffqkv_attention(x, w, cfg)
        tensors = AttentionWeights(**{n: ad.Tensor(a) for n, a in w.named_tensors().items()})
        with pytest.raises(ConfigError, match=wrong):
            project_qkv(ad.Tensor(x), tensors, cfg, ad)


class TestAugmentQ:
    def test_zero_weights_zero_output(self):
        w = AttentionWeights(
            w_q=np.zeros((4, 4)),
            w_k=np.zeros((4, 4)),
            w_v=np.zeros((4, 4)),
            w_o=np.zeros((4, 4)),
            w_q_gate=np.zeros((4, 6)),
            w_q_up=np.zeros((4, 6)),
            w_q_down=np.zeros((6, 4)),
        )
        assert not augment_q(np.random.default_rng(0).normal(size=(2, 4)), w).any()

    def test_scalar_silu_value(self):
        # all-ones weights, input 1.0: silu(1) * 1 = 1 / (1 + e^-1) = 0.7310585786300049
        ones = np.ones((1, 1))
        w = AttentionWeights(w_q=ones, w_k=ones, w_v=ones, w_o=ones,
                             w_q_gate=ones, w_q_up=ones, w_q_down=ones)
        assert_allclose(augment_q(np.array([[1.0]]), w), [[0.7310585786300049]], rtol=1e-12)

    def test_missing_weights_raises(self):
        cfg = make_cfg()
        w = init_attention_weights(cfg, seed=0)
        with pytest.raises(ConfigError):
            augment_q(np.zeros((1, 32)), w)

    def test_gqa16_with_augq_is_valid_config(self):
        cfg = AttentionConfig(n_q_heads=32, n_k_heads=16, n_v_heads=16, d_head=64, aug_q_dim=3072)
        assert cfg.has_aug_q


class TestRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 1, 3, 8))
        k = rng.normal(size=(1, 1, 2, 4))
        q2, k2 = apply_rope(q, k, [0], theta=50_000.0)
        assert_array_equal(q2, q)
        assert_array_equal(k2, k)

    def test_unit_rotation(self):
        # d=2, position 1, first pair rotates by exactly 1 radian:
        # [1, 0] -> [cos 1, sin 1] = [0.5403023058681398, 0.8414709848078965]
        q = np.array([[[[1.0, 0.0]]]])
        q2, _ = apply_rope(q, q, [1], theta=123.0)
        assert_allclose(q2[0, 0, 0], [0.5403023058681398, 0.8414709848078965], rtol=1e-12)

    def test_odd_dim_rejected(self):
        with pytest.raises(DimensionError):
            apply_rope(np.zeros((1, 1, 1, 3)), np.zeros((1, 1, 1, 4)), [0], 10.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, -5.0, "x", True])
    def test_bad_base_raises_config_error(self, theta):
        # NaN used to give all-NaN q and k, 0.0 and -5.0 only a RuntimeWarning, "x" a raw TypeError.
        q = np.ones((1, 2, 1, 4))
        with pytest.raises(ConfigError, match="theta"):
            apply_rope(q, q, [0, 1], theta)
        with pytest.raises(ConfigError, match="theta"):
            rope_angles(np.arange(2), 4, theta)

    @pytest.mark.parametrize(
        "q_len,k_len,positions",
        [(2, 2, [0]), (1, 1, [0, 1, 2]), (2, 3, [0, 1]), (3, 2, [0, 1, 2]), (2, 2, [[0], [1]]), (1, 1, 0)],
    )
    def test_positions_must_match_the_sequence_axis(self, q_len, k_len, positions):
        q, k = np.zeros((1, q_len, 2, 4)), np.zeros((1, k_len, 1, 4))
        with pytest.raises(ShapeError, match="sequence axis"):
            apply_rope(q, k, positions, theta=10.0)

    def test_pairwise_norms_preserved(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(2, 5, 3, 8))
        k = rng.normal(size=(2, 5, 2, 6))
        q2, k2 = apply_rope(q, k, np.arange(5), theta=50_000.0)
        for before, after in ((q, q2), (k, k2)):
            norms_before = np.hypot(before[..., 0::2], before[..., 1::2])
            norms_after = np.hypot(after[..., 0::2], after[..., 1::2])
            assert_allclose(norms_after, norms_before, atol=1e-12)

    @pytest.mark.parametrize("shape", [(16, 32, 8, 4), (1, 1, 32, 16), (2, 7, 3, 6)])
    def test_rotate_is_the_pair_formula(self, shape):
        # ``_rotate`` multiplies each pair as a complex number; the explicit
        # (x0*cos - x1*sin, x0*sin + x1*cos) may round differently (a fused
        # multiply-add), by at most 2 ulp of the pair's norm.
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape)
        rot = rope_angles(np.arange(shape[-3]) * 37 + 5, shape[-1], 10_000.0)
        got = attention._rotate(x, rot)
        even, odd, c, s = x[..., 0::2], x[..., 1::2], rot.real[:, None], rot.imag[:, None]
        want = np.stack([even * c - odd * s, even * s + odd * c], axis=-1).reshape(shape)
        norm = np.repeat(np.hypot(even, odd), 2, axis=-1)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(norm))
        after = np.hypot(got[..., 0::2], got[..., 1::2])
        assert_allclose(after, norm[..., 0::2], rtol=4 * np.finfo(np.float64).eps, atol=0)
        assert_array_equal(attention._rotate(x, rope_angles(np.zeros(shape[-3]), shape[-1], 10_000.0)), x)

    def test_rotate_reads_strided_views(self):
        x = np.random.default_rng(4).normal(size=(2, 3, 5, 8))
        rot = rope_angles(np.arange(5), 4, 50_000.0)
        transposed = x[..., :4].transpose(0, 2, 1, 3)  # [b, s, n, d]; each pair still adjacent
        every_other = x.transpose(0, 2, 1, 3)[..., ::2]  # pairs not adjacent: rotated from a copy
        for view in (transposed, every_other):
            assert_array_equal(attention._rotate(view, rot), attention._rotate(view.copy(), rot))


class TestGroupedCore:
    """The core addresses K/V at native head counts; compare explicit duplication."""

    @pytest.mark.parametrize("n_q,n_k,n_v", [(32, 4, 16), (32, 16, 4), (8, 1, 8), (8, 8, 1)])
    def test_matches_repeat_reference(self, n_q, n_k, n_v):
        rng = np.random.default_rng(n_q * 100 + n_k * 10 + n_v)
        b, t, limit, d, d_v = 2, 11, 7, 6, 5
        q = rng.normal(size=(b, n_q, d))
        k = rng.normal(size=(b, t, n_k, d))
        v = rng.normal(size=(b, t, n_v, d_v))
        k_rep = np.repeat(k, n_q // n_k, axis=2)
        v_rep = np.repeat(v, n_q // n_v, axis=2)
        logits = np.einsum("bhd,bthd->bht", q, k_rep)
        logits[..., limit:] = -np.inf
        want_alpha = np.exp(logits - logits.max(axis=-1, keepdims=True))
        want_alpha /= want_alpha.sum(axis=-1, keepdims=True)

        alpha = attention_scores(q, k, limit)
        assert_allclose(alpha, want_alpha, rtol=0, atol=1e-12)
        assert_allclose(
            weighted_value_sum(alpha, v),
            np.einsum("bht,bthd->bhd", want_alpha, v_rep),
            rtol=0,
            atol=1e-12,
        )

    def test_half_k_absorption_matches_expanded_keys(self):
        cfg = make_cfg(d_k_head=2)
        w = init_attention_weights(cfg, seed=3)
        x = np.random.default_rng(3).normal(size=(2, 9, 32))
        q, k, _ = project_qkv(x, w, cfg)
        q, k = apply_rope(q, k, np.arange(9), cfg.rope_theta)
        for pos in (0, 4, 8):
            absorbed = attention_logits(q[:, pos] @ w.w_k_expand.T, k)
            expanded = attention_logits(q[:, pos], k @ w.w_k_expand)
            assert_allclose(absorbed, expanded, rtol=0, atol=1e-12)



class TestHalfKQueryAbsorption:
    """Half-K keys are scored by absorbing w_k_expand into the query."""

    def test_hand_product(self):
        cfg = make_cfg(d_head=2, d_k_head=1)
        w = init_attention_weights(cfg, seed=0)
        w.w_k_expand = np.array([[2.0, 3.0]])
        q = np.array([[[1.0, -1.0]]])  # [b=1, n_q=1, d_head=2]
        k = np.array([[[[5.0]]]])  # [b=1, t=1, n_k=1, d_k_head=1]; expands to [10, 15]
        assert_array_equal(attention_logits(q @ w.w_k_expand.T, k), [[[-5.0]]])

    def test_zero_k(self):
        cfg = make_cfg(d_head=4, d_k_head=2)
        w = init_attention_weights(cfg, seed=0)
        q = np.random.default_rng(0).normal(size=(1, 8, 4))
        alpha = attention_scores(q @ w.w_k_expand.T, np.zeros((1, 3, 2, 2)), 3)
        assert_allclose(alpha, np.full((1, 8, 3), 1.0 / 3.0), rtol=0, atol=1e-15)

    def test_full_dim_has_no_layer(self):
        cfg = make_cfg()
        w = init_attention_weights(cfg, seed=0)
        assert w.w_k_expand is None
        x = np.random.default_rng(0).normal(size=(1, 3, 32))
        assert np.isfinite(naive_diffqkv_attention(x, w, cfg)).all()

    @pytest.mark.parametrize("kwargs", [dict(), dict(d_k_head=2)], ids=["full-k", "half-k"])
    def test_scored_query_refuses_another_head_dim(self, kwargs):
        cfg = make_cfg(**kwargs)
        w = init_attention_weights(cfg, seed=0)
        assert scored_query(np.ones((1, 8, 4)), w, cfg).shape == (1, 8, cfg.d_k_head)
        for shape in ((1, 8, 2), (1, 8, 8)):
            with pytest.raises(ShapeError, match="4 dims"):
                scored_query(np.ones(shape), w, cfg)


class TestGroupedHeadAddressing:
    """Query head h reads K/V head floor(h * n_src / n_q) without duplicating it."""

    def test_block_duplication(self):
        alpha = np.ones((1, 4, 1))  # [b=1, n_q=4, t=1]
        heads = np.array([[[[1.0], [2.0]]]])  # [b=1, t=1, n_src=2, d=1]
        assert_array_equal(weighted_value_sum(alpha, heads)[0, :, 0], [1.0, 1.0, 2.0, 2.0])

    def test_identity_when_counts_match(self):
        rng = np.random.default_rng(0)
        alpha = rng.random((1, 4, 2))
        heads = rng.normal(size=(1, 2, 4, 3))
        assert_allclose(
            weighted_value_sum(alpha, heads),
            np.einsum("bht,bthd->bhd", alpha, heads),
            rtol=0,
            atol=1e-15,
        )

    def test_eight_way_blocks(self):
        # unit queries read each K head's single coordinate as their logit
        q = np.ones((1, 32, 1))
        heads = np.arange(4.0).reshape(1, 1, 4, 1)
        assert_array_equal(attention_logits(q, heads)[0, :, 0], np.repeat(np.arange(4.0), 8))

    def test_divisibility(self):
        with pytest.raises(ShapeError):
            attention_scores(np.zeros((1, 8, 3)), np.zeros((1, 4, 3, 3)), 4)
        with pytest.raises(ShapeError):
            weighted_value_sum(np.zeros((1, 8, 1)), np.zeros((1, 1, 3, 2)))


class TestScoresAndOutput:
    def test_single_position(self):
        alpha = attention_scores(np.ones((1, 2, 3)), np.ones((1, 1, 2, 3)), 1)
        assert_array_equal(alpha, np.ones((1, 2, 1)))

    def test_zero_query_uniform(self):
        k = np.random.default_rng(0).normal(size=(1, 5, 2, 3))
        alpha = attention_scores(np.zeros((1, 2, 3)), k, 5)
        assert_allclose(alpha, np.full((1, 2, 5), 0.2), atol=1e-15)

    def test_closed_form_softmax(self):
        # logits [0, ln 3] -> weights [1/4, 3/4]
        q = np.array([[[1.0]]])
        k = np.array([[[[0.0]], [[math.log(3.0)]]]])
        alpha = attention_scores(q, k, 2)
        assert_allclose(alpha[0, 0], [0.25, 0.75], rtol=1e-12)

    def test_rows_sum_to_one_and_mask(self):
        rng = np.random.default_rng(4)
        alpha = attention_scores(rng.normal(size=(2, 4, 5)), rng.normal(size=(2, 9, 4, 5)), 6)
        assert_allclose(alpha.sum(axis=-1), np.ones((2, 4)), atol=1e-9)
        assert np.all(alpha >= 0) and np.all(alpha <= 1)
        assert_array_equal(alpha[..., 6:], 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            attention_scores(np.zeros((1, 2, 3)), np.zeros((1, 4, 2, 5)), 4)

    def test_tile_rows_equal_single_queries(self):
        # Row r of a tile starting at causal limit L attends like one query at limit L + r,
        # and the tile's output rows are those queries' outputs.
        rng = np.random.default_rng(6)
        b, n_q, T, t, d = 2, 8, 5, 11, 3
        q = rng.normal(size=(b, n_q, T, d))
        k = rng.normal(size=(b, t, 2, d))
        v = rng.normal(size=(b, t, 4, d))
        w_o = rng.normal(size=(n_q * d, 7))
        alpha = attention_scores(q, k, t - T + 1)
        out = attention_output(alpha, v, w_o)
        assert alpha.shape == (b, n_q, T, t) and out.shape == (b, T, 7)
        for r in range(T):
            single = attention_scores(q[:, :, r], k, t - T + 1 + r)
            assert_allclose(alpha[:, :, r], single, rtol=0, atol=1e-15)
            assert_allclose(out[:, r], attention_output(single, v, w_o), rtol=0, atol=1e-14)

    def test_limit_below_one_or_no_keys_raises(self):
        # Both used to return all-NaN rows, with a RuntimeWarning from 0/0.
        q, k = np.zeros((1, 2, 3)), np.ones((1, 4, 2, 3))
        for limit in (0, -1):
            with pytest.raises(EmptyInputError, match="causal_mask_len"):
                attention_scores(q, k, limit)
        with pytest.raises(EmptyInputError):
            attention_scores(q, np.ones((1, 0, 2, 3)), 1)

    def test_non_integer_limit_raises(self):
        q, k = np.zeros((1, 2, 3)), np.ones((1, 4, 2, 3))
        for limit in (1.5, 2.0, True, "2", None):
            with pytest.raises(PositionError, match="causal_mask_len"):
                attention_scores(q, k, limit)
        assert_array_equal(attention_scores(q, k, np.int64(2)), attention_scores(q, k, 2))

    def test_output_single_position_copies_v(self):
        v = np.random.default_rng(5).normal(size=(1, 1, 2, 3))
        out = attention_output(np.ones((1, 2, 1)), v, np.eye(6))
        assert_allclose(out.reshape(1, 2, 3), v[:, 0], atol=1e-15)

    def test_output_convexity_fixed_point(self):
        row = np.array([1.0, -2.0, 0.5])
        v = np.tile(row, (1, 6, 2, 1))
        out = attention_output(np.full((1, 2, 6), 1 / 6), v, np.eye(6))
        assert_allclose(out.reshape(2, 3), np.tile(row, (2, 1)), atol=1e-15)

    def test_output_hand_weighted_sum(self):
        # alpha [0.25, 0.75] over V rows [0], [4] -> 3
        alpha = np.array([[[0.25, 0.75]]])
        v = np.array([[[[0.0]], [[4.0]]]])
        assert_allclose(attention_output(alpha, v, np.eye(1)), [[3.0]], rtol=1e-15)


class TestNaiveAttention:
    def test_degenerate_mha_equals_reference(self):
        cfg = make_cfg(n_q=4, n_k=4, n_v=4, d_head=8)
        w = init_attention_weights(cfg, seed=6)
        x = np.random.default_rng(6).normal(size=(2, 5, 32))
        assert_allclose(
            naive_diffqkv_attention(x, w, cfg), grouped_attention_by_duplication(x, w, cfg), atol=1e-12
        )

    def test_single_token_is_projected_v(self):
        cfg = make_cfg()
        w = init_attention_weights(cfg, seed=7)
        x = np.random.default_rng(7).normal(size=(1, 1, 32))
        _, _, v = project_qkv(x, w, cfg)
        v_rep = np.repeat(v, cfg.n_q_heads // cfg.n_v_heads, axis=2)
        expected = v_rep[0, 0].reshape(1, -1) @ w.w_o
        assert_allclose(naive_diffqkv_attention(x, w, cfg)[0], expected, atol=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(),                                  # diffqkv (8, 2, 4)
        dict(aug_q_dim=24),                      # + augmented Q
        dict(d_k_head=2),                        # + half K dim
        dict(aug_q_dim=24, d_k_head=2),          # both
        dict(n_k=8, n_v=8),                      # mha
        dict(n_k=1, n_v=1),                      # mqa
        dict(n_k=1, n_v=1, d_k_head=2),          # mqa + half K: scaled by d_head, not d_k
    ])
    def test_matches_brute_force_oracle(self, kwargs):
        cfg = make_cfg(**kwargs)
        w = init_attention_weights(cfg, seed=8)
        x = np.random.default_rng(8).normal(size=(2, 5, 32))
        assert_allclose(naive_diffqkv_attention(x, w, cfg), brute_force_diffqkv(x, w, cfg), atol=1e-12)

    @pytest.mark.parametrize("t", [1, 7, 257])
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("config", _EQUIV_CONFIGS, ids=[c[0] for c in _EQUIV_CONFIGS])
    def test_reference_rows_equal_full_reference_rows(self, config, b, t):
        _, heads, *dims = config
        cfg = AttentionConfig(*heads, *dims)
        d_model = cfg.n_q_heads * cfg.d_head
        rng = np.random.default_rng(t * 10 + b)
        w = init_attention_weights(cfg, rng)
        x = rng.normal(size=(b, t, d_model))
        rows = sorted({0, t // 2, t - 1})
        assert np.array_equal(
            grouped_attention_by_duplication(x, w, cfg, rows),
            grouped_attention_by_duplication(x, w, cfg)[:, rows],
        )

    def test_causality(self):
        cfg = make_cfg(aug_q_dim=24)
        w = init_attention_weights(cfg, seed=9)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 6, 32))
        base = naive_diffqkv_attention(x, w, cfg)
        x2 = x.copy()
        x2[:, 4:] = rng.normal(size=(1, 2, 32))
        assert_array_equal(naive_diffqkv_attention(x2, w, cfg)[:, :4], base[:, :4])

    def test_finite_outputs_at_large_magnitude(self):
        cfg = make_cfg(aug_q_dim=24, d_k_head=2)
        w = init_attention_weights(cfg, seed=10)
        x = 50.0 * np.random.default_rng(10).normal(size=(1, 8, 32))
        assert np.isfinite(naive_diffqkv_attention(x, w, cfg)).all()


class TestCachedAttention:
    @pytest.mark.parametrize("n_q,n_k,n_v", [(32, 4, 16), (32, 16, 4), (8, 1, 8), (8, 8, 1)])
    @pytest.mark.parametrize(
        "extras", [{}, {"d_k_head": 2, "aug_q_dim": 24}], ids=["plain", "halfk-augq"]
    )
    def test_prefix_then_suffix_at_every_cut(self, n_q, n_k, n_v, extras):
        cfg = make_cfg(n_q, n_k, n_v, **extras)
        rng = np.random.default_rng(n_q * 100 + n_k * 10 + n_v)
        d_model = n_q * cfg.d_head
        w = init_attention_weights(cfg, rng)
        s = 7
        x = rng.normal(size=(2, s, d_model))
        expected = grouped_attention_by_duplication(x, w, cfg)
        for a in range(s + 1):
            cache = DifferentialKVCache(cfg, 2, s)
            prefix = cached_attention(x[:, :a], w, cache)
            assert cache.len == a
            suffix = cached_attention(x[:, a:], w, cache)
            assert cache.len == s
            got = np.concatenate([prefix, suffix], axis=1)
            assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "extras", [{}, {"d_k_head": 2, "aug_q_dim": 24}], ids=["plain", "halfk-augq"]
    )
    def test_many_tiles_with_cuts_on_and_off_tile_boundaries(self, extras):
        cfg = make_cfg(32, 4, 16, **extras)
        rng = np.random.default_rng(21)
        d_model = 32 * cfg.d_head
        w = init_attention_weights(cfg, rng)
        s = 301
        x = rng.normal(size=(1, s, d_model))
        expected = grouped_attention_by_duplication(x, w, cfg)
        tile = attention._tile_sizes(1, s, 32, 4)[0]  # the pass's query tile: 16
        assert 1 < tile < s // 10
        for a in (0, 2 * tile, 2 * tile + 1, 5 * tile - 1, s // 2, s):
            cache = DifferentialKVCache(cfg, 1, s)
            prefix = cached_attention(x[:, :a], w, cache)
            suffix = cached_attention(x[:, a:], w, cache)
            got = np.concatenate([prefix, suffix], axis=1)
            assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "extras", [{}, {"d_k_head": 2, "aug_q_dim": 24}], ids=["plain", "halfk-augq"]
    )
    def test_key_blocks_with_cuts_on_and_off_tile_and_block_boundaries(self, monkeypatch, extras):
        # A 2**10 budget at 32/4/16 heads over 64 positions: tiles of 2 queries
        # against blocks of 16 keys, so a tile that straddles a block boundary
        # has a row that sees none of the later block's keys.
        monkeypatch.setattr(attention, "_SCORE_BUDGET", 1 << 10)
        cfg = make_cfg(32, 4, 16, **extras)
        rng = np.random.default_rng(22)
        d_model = 32 * cfg.d_head
        w = init_attention_weights(cfg, rng)
        s = 64
        x = rng.normal(size=(1, s, d_model))
        expected = grouped_attention_by_duplication(x, w, cfg)
        for a in (0, 1, 15, 16, 17, 32, 33, 63, 64):
            cache = DifferentialKVCache(cfg, 1, s)
            prefix = cached_attention(x[:, :a], w, cache)
            suffix = cached_attention(x[:, a:], w, cache)
            got = np.concatenate([prefix, suffix], axis=1)
            assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_scores_no_key_past_a_tile_causal_end(self, monkeypatch):
        monkeypatch.setattr(attention, "_SCORE_BUDGET", 1 << 10)
        cfg = make_cfg(32, 4, 16)
        rng = np.random.default_rng(23)
        w = init_attention_weights(cfg, rng)
        s = 64
        x = rng.normal(size=(1, s, 128))
        q, k, _ = project_qkv(x, w, cfg)
        q, k = apply_rope(q, k, np.arange(s), cfg.rope_theta)
        q = attention.scored_query(q, w, cfg)
        real, calls = attention.attention_logits, []

        def spy(q_tile, k_block):
            # Positions of the tile's queries and the block's keys, matched by value.
            queries = [np.abs(q[0, :, 0] - row).sum(-1).argmin() for row in q_tile[0, 0]]
            keys = [np.abs(k[0, :, 0] - row).sum(-1).argmin() for row in k_block[0, :, 0]]
            calls.append((tuple(queries), keys))
            return real(q_tile, k_block)

        monkeypatch.setattr(attention, "attention_logits", spy)
        cache = DifferentialKVCache(cfg, 1, s)
        cached_attention(x[:, :17], w, cache)
        cached_attention(x[:, 17:], w, cache)
        tiles = {}
        for queries, keys in calls:
            assert max(keys) <= max(queries)  # the tile's causal end
            tiles.setdefault(queries, []).append(keys)
        assert sorted(p for queries in tiles for p in queries) == list(range(s))
        for queries, blocks in tiles.items():
            assert sorted(sum(blocks, [])) == list(range(max(queries) + 1))  # each key once
        assert max(len(blocks) for blocks in tiles.values()) == 4
        assert any(min(keys) > min(queries) for queries, keys in calls)  # a row sees none

    def test_transient_memory_bounded_by_score_tile(self, monkeypatch):
        # 32/4/16 heads over 257 positions: the one-shot [b, n_q, s, s] scores
        # alone would take 16.9 MB, four times what a tiled pass may hold.
        cfg = make_cfg(32, 4, 16, d_head=16)
        w = init_attention_weights(cfg, seed=4)
        x = np.random.default_rng(4).normal(size=(1, 257, 512))

        def peak() -> int:
            tracemalloc.start()
            try:
                naive_diffqkv_attention(x, w, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Arrays the size of x (projected and rotated queries, the output) plus
        # a few tiles of scores.
        bound = 5 * x.nbytes + 2 * 8 * attention._SCORE_BUDGET
        assert peak() <= bound
        monkeypatch.setattr(attention, "_SCORE_BUDGET", 1 << 40)  # one tile: s x s scores
        assert peak() > bound

    def test_writes_unexpanded_rotated_keys(self):
        cfg = make_cfg(d_k_head=2)
        w = init_attention_weights(cfg, seed=3)
        x = np.random.default_rng(3).normal(size=(1, 5, 32))
        cache = DifferentialKVCache(cfg, 1, 5)
        cached_attention(x, w, cache)
        q, k, v = project_qkv(x, w, cfg)
        _, k = apply_rope(q, k, np.arange(5), cfg.rope_theta)
        k_view, v_view = cache.view()
        assert_array_equal(k_view, k)
        assert_array_equal(v_view, v)


class TestSelectiveV:
    def test_top_k_at_least_t_is_bit_identical(self):
        rng = np.random.default_rng(11)
        alpha = rng.dirichlet(np.ones(7), size=(1, 4))
        v = rng.normal(size=(1, 7, 4, 3))
        w_o = rng.normal(size=(12, 5))
        exact = attention_output(alpha, v, w_o)
        for k_top in (7, 8, 100):
            got = selective_v_attention(alpha, v, SelectivePolicy(k_top=k_top), w_o)
            assert_array_equal(got, exact)

    def test_hand_selection(self):
        # keep top-2 of [0.7, 0.2, 0.1] over rows [1], [2], [3]: 0.7*1 + 0.2*2 = 1.1
        alpha = np.array([[[0.7, 0.2, 0.1]]])
        v = np.array([[[[1.0]], [[2.0]], [[3.0]]]])
        got = selective_v_attention(alpha, v, SelectivePolicy(k_top=2), np.eye(1))
        assert_allclose(got, [[1.1]], rtol=1e-15)

    def test_ties_break_to_earliest_position(self):
        alpha = np.array([[[0.25, 0.25, 0.25, 0.25]]])
        kept = select_top_k(alpha, SelectivePolicy(k_top=2))
        assert_array_equal(kept[0, 0] > 0, [True, True, False, False])

    def test_error_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            t = int(rng.integers(2, 40))
            alpha = rng.dirichlet(np.ones(t), size=(1, 3))
            v = rng.normal(size=(1, t, 3, 4))
            k_top = int(rng.integers(1, t))
            kept = select_top_k(alpha, SelectivePolicy(k_top=k_top))
            exact = weighted_value_sum(alpha, v)
            approx = weighted_value_sum(kept, v)
            for h in range(3):
                dropped = alpha[0, h] * (kept[0, h] == 0)
                if not dropped.any():
                    continue
                bound = dropped.sum() * np.abs(v[0, dropped > 0, h, :]).max()
                assert np.abs(exact[0, h] - approx[0, h]).max() <= bound + 1e-12

    def test_k_top_validation(self):
        with pytest.raises(ConfigError):
            SelectivePolicy(k_top=0)

    def test_top100_operating_point_constructible(self):
        SelectivePolicy(k_top=100)


class TestWeightInit:
    def test_deterministic_from_seed(self):
        cfg = make_cfg(aug_q_dim=24, d_k_head=2)
        a = init_attention_weights(cfg, seed=5)
        b = init_attention_weights(cfg, seed=5)
        for name, arr in a.named_tensors().items():
            assert_array_equal(arr, b.named_tensors()[name])
        c = init_attention_weights(cfg, seed=6)
        assert not np.array_equal(a.w_q, c.w_q)

    def test_seed_is_a_non_negative_integer_or_a_generator(self):
        cfg = make_cfg()
        for seed in (-3, 1.5, True):
            with pytest.raises(UsageError, match="seed"):
                init_attention_weights(cfg, seed=seed)
        w = init_attention_weights(cfg, seed=np.random.default_rng(5))
        assert_array_equal(w.w_q, init_attention_weights(cfg, seed=5).w_q)

    def test_normal_std(self):
        w = init_attention_weights(PRESETS["gqa-16"].attention, seed=0)
        assert abs(w.w_q.std() - 0.02) < 0.001
        assert abs(w.w_q.mean()) < 0.001

    def test_serialization_round_trip(self, tmp_path):
        from diffqkv.tensorio import read_tensors, write_tensors

        cfg = make_cfg(aug_q_dim=24, d_k_head=2)
        w = init_attention_weights(cfg, seed=7)
        path = tmp_path / "attn.bin"
        write_tensors(path, w.named_tensors(), "attention.n_q_heads = 8\n")
        echo, loaded = read_tensors(path)
        assert echo.startswith("attention.")
        assert set(loaded) == set(w.named_tensors())
        for name, arr in w.named_tensors().items():
            assert_array_equal(loaded[name], arr)
