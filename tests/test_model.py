import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from diffqkv import attention
from diffqkv import model as model_module
from diffqkv.config import AttentionConfig, ModelConfig, toy_preset
from diffqkv.errors import (
    CapacityExceededError,
    ConfigError,
    DiffQKVError,
    EmptyInputError,
    LengthError,
    CapacityError,
    PositionError,
    ShapeError,
    TokenRangeError,
    UsageError,
)
from diffqkv.kvcache import DifferentialKVCache
from diffqkv.tensorio import ContainerFormatError, read_tensors, write_tensors
from diffqkv.verify import _EQUIV_CONFIGS
from diffqkv.model import (
    _chunk_rows,
    as_parameter_tensors,
    copy_task_batch,
    decode,
    forward,
    forward_graph,
    forward_incremental,
    init_model,
    load_checkpoint,
    loss_graph,
    make_caches,
    random_token_batch,
    save_checkpoint,
    train_step,
)

from oracles import vanilla_decoder_forward


def toy_cfg(n_q=8, n_k=2, n_v=4, d_k_head=None, aug_q_dim=0, vocab=64, layers=2):
    attn = AttentionConfig(
        n_q_heads=n_q, n_k_heads=n_k, n_v_heads=n_v, d_head=4, d_k_head=d_k_head,
        aug_q_dim=aug_q_dim,
    )
    return ModelConfig(
        attention=attn, n_layers=layers, d_model=n_q * 4, d_ffn=96,
        vocab_size=vocab, max_seq_len=512,
    )


class TestInit:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # -1 and 1.5 used to raise a raw ValueError and TypeError from numpy.
        with pytest.raises(UsageError, match="seed must be a non-negative integer"):
            init_model(toy_cfg(), seed)


class TestForward:
    def test_logit_shapes(self):
        model = init_model(toy_cfg(), seed=0)
        tokens = np.random.default_rng(0).integers(0, 64, size=(2, 10))
        assert forward(model, tokens).shape == (2, 10, 64)

    def test_causality(self):
        model = init_model(toy_cfg(aug_q_dim=48), seed=1)
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, 64, size=(1, 10))
        base = forward(model, tokens)
        tokens2 = tokens.copy()
        tokens2[0, 9] = (tokens2[0, 9] + 1) % 64
        assert_array_equal(forward(model, tokens2)[:, :9], base[:, :9])

    def test_token_range_error(self):
        model = init_model(toy_cfg(), seed=0)
        with pytest.raises(TokenRangeError):
            forward(model, np.array([[0, 64]]))

    def test_length_error(self):
        model = init_model(toy_cfg(), seed=0)
        with pytest.raises(LengthError):
            forward(model, np.zeros((1, 513), dtype=int))

    def test_empty_sequence(self):
        model = init_model(toy_cfg(), seed=0)
        assert forward(model, np.zeros((1, 0), dtype=int)).shape == (1, 0, 64)

    def test_mha_degenerate_matches_vanilla_decoder(self):
        cfg = toy_cfg(n_q=8, n_k=8, n_v=8)
        model = init_model(cfg, seed=2)
        tokens = np.random.default_rng(2).integers(0, 64, size=(2, 7))
        assert_allclose(forward(model, tokens), vanilla_decoder_forward(model, tokens), atol=1e-10)

    @pytest.mark.parametrize("b", [1, 2])
    def test_row_chunks_join_exactly(self, b):
        # vocab 4096 is the widest activation: 64 rows a chunk at b = 1, 32 at b = 2,
        # so 150 positions are several whole chunks and a clipped last one.
        model = init_model(toy_cfg(aug_q_dim=48, d_k_head=2, vocab=4096), seed=9)
        s, rows = 150, _chunk_rows(model, b)
        assert 1 < rows < s and s % rows
        tokens = np.random.default_rng(9).integers(0, 4096, size=(b, s))
        caches = make_caches(model, batch=b, capacity=s)
        stepped = [forward_incremental(model, tokens[:, i : i + 1], caches, i) for i in range(s)]
        assert_allclose(forward(model, tokens), np.concatenate(stepped, axis=1), rtol=0, atol=1e-12)

    def test_transient_memory_bounded_by_one_chunk(self):
        # One 1024-position pass at once holds several [s, d_ffn] and [s, vocab]
        # arrays (46 MiB peak); row chunks hold one chunk's activations at a time.
        attn = AttentionConfig(n_q_heads=32, n_k_heads=4, n_v_heads=16, d_head=16, d_k_head=8)
        cfg = ModelConfig(
            attention=attn, n_layers=1, d_model=512, d_ffn=1536, vocab_size=2048, max_seq_len=1024
        )
        model = init_model(cfg, seed=10)
        tokens = np.random.default_rng(10).integers(0, 2048, size=(1, 1024))
        tracemalloc.start()
        try:
            logits = forward(model, tokens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cache_bytes = 1024 * cfg.attention.cache_bracket * 8
        allowance = 8 << 20  # four chunk-sized [128, 2048] float64 buffers
        assert peak <= logits.nbytes + cache_bytes + allowance, f"forward peak {peak} B"

    @pytest.mark.parametrize(
        "heads,d_head,d_k_head,aug", [c[1:] for c in _EQUIV_CONFIGS], ids=[c[0] for c in _EQUIV_CONFIGS]
    )
    def test_graph_forward_equals_numpy_forward(self, heads, d_head, d_k_head, aug):
        # Both run the same stages; at b = 1 every product sees the same rows in
        # both, so the logits are bit-equal.  For b > 1 numpy's batched 3-D
        # matmul and autodiff's flattened [b*s, d] GEMM may round differently
        # (by ~2e-16), so there the two only agree to a tolerance.
        attn = AttentionConfig(*heads, d_head=d_head, d_k_head=d_k_head, aug_q_dim=aug)
        cfg = ModelConfig(attention=attn, n_layers=2, d_model=heads[0] * d_head, d_ffn=48,
                          vocab_size=64, max_seq_len=64)
        rng = np.random.default_rng(3)
        for seed in range(5):
            model = init_model(cfg, seed=seed)
            params = as_parameter_tensors(model)
            for s in (1, 7, 40):
                tokens = rng.integers(0, 64, size=(1, s))
                assert np.array_equal(forward(model, tokens), forward_graph(params, cfg, tokens).data)
            tokens = rng.integers(0, 64, size=(3, 9))
            assert_allclose(forward_graph(params, cfg, tokens).data, forward(model, tokens), atol=1e-10)

    @pytest.mark.parametrize("s", [1, 2])
    def test_fed_pass_calls_project_qkv_once_per_layer_and_position(self, monkeypatch, s):
        # The traced benchmark run counts prefill positions by the project_qkv
        # calls it wraps at diffqkv.attention.project_qkv.
        model = init_model(toy_cfg(aug_q_dim=48, d_k_head=2, layers=3), seed=4)
        real, calls = attention.project_qkv, []
        monkeypatch.setattr(attention, "project_qkv", lambda *a: calls.append(a) or real(*a))
        forward_incremental(model, np.ones((1, s), dtype=int), make_caches(model, 1, s), 0)
        assert len(calls) == 3 * s

    @pytest.mark.parametrize("tokens", [[[1.0, 2.0]], [[True, False]]], ids=["float", "bool"])
    def test_non_integer_token_ids_rejected(self, tokens):
        model = init_model(toy_cfg(), seed=0)
        caches = make_caches(model, batch=1, capacity=4)
        with pytest.raises(TokenRangeError, match="integers"):
            forward(model, np.array(tokens))
        with pytest.raises(TokenRangeError, match="integers"):
            forward_incremental(model, np.array(tokens), caches, start_pos=0)
        assert all(c.len == 0 for c in caches)
        with pytest.raises(TokenRangeError, match="integers"):
            train_step(model, np.array(tokens), lr=0.1)


class TestDecode:
    def test_zero_new_tokens_returns_prompt(self):
        model = init_model(toy_cfg(), seed=4)
        prompt = np.array([5, 6, 7])
        assert_array_equal(decode(model, prompt, 0), prompt)

    def test_feeds_the_prompt_then_every_generated_token_but_the_last(self, monkeypatch):
        # Nothing reads the last token's logits, so n_new tokens take n_new feeds.
        model = init_model(toy_cfg(), seed=4)
        fed = []
        feed = model_module._feed

        def counting_feed(model, tokens, caches, rows):
            fed.append(tokens.shape[1])
            return feed(model, tokens, caches, rows)

        monkeypatch.setattr(model_module, "_feed", counting_feed)
        decode(model, np.array([1, 2, 3, 4, 5]), 7)
        assert fed == [5, 1, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("preset_name,half_k", [
        ("mha-32", False), ("mqa", False), ("gqa-16", False),
        ("sigma-1.5b", False), ("sigma-1.5b", True),
    ])
    def test_incremental_matches_recompute(self, preset_name, half_k):
        cfg = toy_preset(preset_name, half_k=half_k)
        model = init_model(cfg, seed=5)
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, cfg.vocab_size, size=4)
        produced = decode(model, prompt, 12)
        seq = list(prompt)
        for _ in range(12):
            logits = forward(model, np.array([seq]))
            seq.append(int(np.argmax(logits[0, -1])))
        assert produced.tolist() == seq

    def test_prefill_logits_match_full_forward(self):
        cfg = toy_cfg(aug_q_dim=48, d_k_head=2)
        model = init_model(cfg, seed=6)
        tokens = np.random.default_rng(6).integers(0, 64, size=(1, 9))
        caches = make_caches(model, batch=1, capacity=9)
        incremental = forward_incremental(model, tokens, caches, start_pos=0)
        assert_allclose(incremental, forward(model, tokens), atol=1e-10)

    def test_incremental_rejects_out_of_range_token(self):
        model = init_model(toy_cfg(), seed=4)
        caches = make_caches(model, batch=1, capacity=4)
        with pytest.raises(TokenRangeError):
            forward_incremental(model, np.array([[3, -1]]), caches, start_pos=0)
        assert all(c.len == 0 for c in caches)

    def test_incremental_start_pos_must_match_caches(self):
        model = init_model(toy_cfg(), seed=4)
        caches = make_caches(model, batch=1, capacity=8)
        forward_incremental(model, np.array([[1, 2]]), caches, start_pos=0)
        for wrong in (5, 1):
            with pytest.raises(PositionError):
                forward_incremental(model, np.array([[3]]), caches, start_pos=wrong)
        assert all(c.len == 2 for c in caches)
        forward_incremental(model, np.array([[3]]), caches, start_pos=2)

    @pytest.mark.parametrize(
        "start_pos", [True, 1.0, np.float64(1.0), -1], ids=["bool", "float", "numpy-float", "negative"]
    )
    def test_start_pos_must_be_a_non_negative_integer(self, start_pos):
        # True used to be taken as position 1 and a second position appended.
        model = init_model(toy_cfg(), seed=4)
        caches = make_caches(model, batch=1, capacity=8)
        forward_incremental(model, np.array([[1]]), caches, start_pos=0)
        with pytest.raises(PositionError, match="start_pos"):
            forward_incremental(model, np.array([[2]]), caches, start_pos)
        assert all(c.len == 1 for c in caches)

    @pytest.mark.parametrize("start_pos", [0, 3])
    def test_rejected_feed_leaves_caches_unchanged(self, start_pos):
        model = init_model(toy_cfg(), seed=4)
        caches = make_caches(model, batch=1, capacity=10)
        forward_incremental(model, np.arange(start_pos)[None, :], caches, start_pos=0)
        with pytest.raises(CapacityExceededError):
            forward_incremental(model, np.arange(12 - start_pos)[None, :], caches, start_pos)
        assert all(c.len == start_pos for c in caches)

    def test_empty_prompt_raises(self):
        model = init_model(toy_cfg(), seed=4)
        for n_new in (0, 3):
            with pytest.raises(EmptyInputError):
                decode(model, [], n_new)

    @pytest.mark.parametrize("prompt", [[1.5, 2], [1.0, 2.0], [True, False]])
    def test_non_integer_prompt_rejected(self, prompt):
        # Casting first would truncate [1.5, 2] to [1, 2] and decode it.
        model = init_model(toy_cfg(), seed=4)
        with pytest.raises(TokenRangeError, match="integers"):
            decode(model, prompt, 2)

    @pytest.mark.parametrize("n_new", [1.5, True, -1, np.float64(2.0), "2"])
    def test_n_new_must_be_a_non_negative_integer(self, monkeypatch, n_new):
        model = init_model(toy_cfg(), seed=4)
        monkeypatch.setattr(model_module, "make_caches", None)  # no cache may be made either
        with pytest.raises(DiffQKVError, match="n_new"):
            decode(model, [1, 2], n_new)

    @pytest.mark.parametrize("n_caches", [0, 1, 3])
    def test_one_cache_per_layer(self, n_caches):
        # With one cache of two, the fed loop used to run only the first block.
        model = init_model(toy_cfg(), seed=4)
        caches = (make_caches(model, 1, 4) + make_caches(model, 1, 4))[:n_caches]
        with pytest.raises(UsageError, match="2 layers"):
            forward_incremental(model, np.array([[1, 2]]), caches, start_pos=0)
        assert all(c.len == 0 for c in caches)

    def test_cache_batch_must_match_tokens_before_any_append(self):
        model = init_model(toy_cfg(), seed=4)
        caches = [make_caches(model, b, 4)[0] for b in (1, 2)]
        with pytest.raises(ShapeError, match="cache 1 has batch 2"):
            forward_incremental(model, np.array([[1, 2]]), caches, start_pos=0)
        assert all(c.len == 0 for c in caches)

    @pytest.mark.parametrize("change", [{"rope_theta": 10_000.0}, {"aug_q_dim": 48}])
    def test_caches_of_another_config_rejected_before_any_append(self, change):
        # A cache of the same shapes but another rope_theta used to be fed, its new
        # keys rotated with the model's theta and its old ones with its own.
        model = init_model(toy_cfg(), seed=4)
        caches = make_caches(model, 1, 8)
        forward_incremental(model, np.array([[1, 2]]), caches, start_pos=0)
        other = DifferentialKVCache(replace(model.config.attention, **change), 1, 8)
        other.append(*caches[1].view())
        caches[1] = other
        before = [tuple(np.copy(a) for a in c.view()) for c in caches]
        with pytest.raises(ConfigError, match="cache 1 has config"):
            forward_incremental(model, np.array([[3]]), caches, start_pos=2)
        for cache, (k, v) in zip(caches, before):
            assert cache.len == 2
            assert_array_equal(cache.view()[0], k)
            assert_array_equal(cache.view()[1], v)

    @pytest.mark.parametrize("prompt", [[[1, 2], [3, 4]], [[1, 2]], 5])
    def test_prompt_must_be_one_dimensional(self, prompt):
        # A 2-D prompt used to be flattened and decoded as one sequence.
        model = init_model(toy_cfg(), seed=4)
        with pytest.raises(ShapeError, match="1-D"):
            decode(model, prompt, 1)

    @pytest.mark.parametrize("batch", [1.5, True])
    def test_make_caches_rejects_a_non_integer_batch(self, batch):
        model = init_model(toy_cfg(), seed=4)
        with pytest.raises(CapacityError, match="batch"):
            make_caches(model, batch, 4)

    def test_numpy_integer_n_new_accepted(self):
        model = init_model(toy_cfg(), seed=4)
        assert_array_equal(decode(model, [1, 2], np.int64(3)), decode(model, [1, 2], 3))

    def test_decode_step_does_not_reinflate_cache(self):
        # 32/4/16 heads in half-K mode: duplicating K/V to 32 heads, or expanding
        # K to d_head, would allocate several times the cache's own bytes.
        attn = AttentionConfig(n_q_heads=32, n_k_heads=4, n_v_heads=16, d_head=16, d_k_head=8)
        cfg = ModelConfig(
            attention=attn, n_layers=1, d_model=512, d_ffn=512, vocab_size=64, max_seq_len=1024
        )
        model = init_model(cfg, seed=7)
        prompt = np.random.default_rng(7).integers(0, 64, size=(1, 512))
        caches = make_caches(model, batch=1, capacity=513)
        forward_incremental(model, prompt, caches, start_pos=0)
        tracemalloc.start()
        try:
            forward_incremental(model, np.array([[3]]), caches, start_pos=512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cache_bytes = sum(c.footprint().total for c in caches) * 8
        assert peak <= cache_bytes, f"decode step peak {peak} B > cache {cache_bytes} B"


class TestTraining:
    def test_initial_loss_near_log_vocab(self):
        cfg = toy_cfg()
        model = init_model(cfg, seed=7)
        batch = random_token_batch(np.random.default_rng(7), 8, 16, cfg.vocab_size)
        loss = float(loss_graph(as_parameter_tensors(model), cfg, batch).data)
        assert abs(loss - math.log(64)) / math.log(64) < 0.05

    @pytest.mark.parametrize(
        "lr,batch,error",
        [
            (0.0, (2, 6), UsageError),
            (-1.0, (2, 6), UsageError),
            (True, (2, 6), UsageError),
            ("0.1", (2, 6), UsageError),
            (0.1, (0, 4), EmptyInputError),  # used to raise a raw ZeroDivisionError
        ],
        ids=["zero", "negative", "bool", "str", "empty-batch"],
    )
    def test_refused_step_changes_no_weight(self, lr, batch, error):
        cfg = toy_cfg()
        model = init_model(cfg, seed=8)
        before = {k: v.copy() for k, v in model.named_tensors().items()}
        with pytest.raises(error):
            train_step(model, np.zeros(batch, dtype=int), lr)
        for name, arr in model.named_tensors().items():
            assert_array_equal(arr, before[name])

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_non_finite_lr_rejected_before_any_update(self, lr):
        cfg = toy_cfg()
        model = init_model(cfg, seed=8)
        before = {k: v.copy() for k, v in model.named_tensors().items()}
        batch = random_token_batch(np.random.default_rng(8), 2, 6, cfg.vocab_size)
        with pytest.raises(DiffQKVError, match="lr"):
            train_step(model, batch, lr)
        for name, arr in model.named_tensors().items():
            assert_array_equal(arr, before[name])

    def test_single_position_batch_raises_length_error(self):
        model = init_model(toy_cfg(), seed=8)
        with pytest.raises(LengthError, match="2 positions"):
            train_step(model, np.array([[3], [4]]), lr=0.1)

    def test_loss_decreases_on_copy_task(self):
        cfg = toy_cfg()
        model = init_model(cfg, seed=42)
        rng = np.random.default_rng(42)
        losses = [
            train_step(model, copy_task_batch(rng, 16, 32, cfg.vocab_size), lr=0.2)
            for _ in range(60)
        ]
        assert losses[-1] < 0.8 * losses[0]

    def test_training_stays_finite_for_1000_steps(self):
        cfg = toy_cfg(aug_q_dim=48)
        model = init_model(cfg, seed=9)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            loss = train_step(model, random_token_batch(rng, 4, 12, cfg.vocab_size), lr=1e-2)
            assert np.isfinite(loss)
        for arr in model.named_tensors().values():
            assert np.isfinite(arr).all()

    def test_train_step_peak_memory(self):
        # Toy sigma-1.5b, batch 16 x 32: a reverse pass that zero-fills a buffer for
        # every node's first gradient, keeps interior gradients alive, computes
        # gradients for constants or scales and masks the s x s scores in extra
        # nodes peaks near 40 MB; the lean pass stays near 11 MB.
        cfg = toy_preset("sigma-1.5b")
        model = init_model(cfg, seed=17)
        batch = copy_task_batch(np.random.default_rng(17), 16, 32, cfg.vocab_size)
        train_step(model, batch, lr=0.2)
        tracemalloc.start()
        try:
            train_step(model, batch, lr=0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24e6, f"train_step peak {peak} B > 24 MB"

    def test_train_step_memory_does_not_hold_the_scores(self):
        # Toy sigma-1.5b, batch 16 x 128: dense [b, n_k, g*s, s] scores, their
        # softmax and a tiled mask per layer peak at 139 MiB; the blocked
        # causal-attention op keeps q, k, v, the output and the lse (about 40 MiB).
        cfg = toy_preset("sigma-1.5b")
        model = init_model(cfg, seed=18)
        batch = copy_task_batch(np.random.default_rng(18), 16, 128, cfg.vocab_size)
        train_step(model, batch, lr=0.2)
        tracemalloc.start()
        try:
            train_step(model, batch, lr=0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2**20, f"train_step peak {peak / 2**20:.1f} MiB >= 60 MiB"

    def test_copy_task_structure(self):
        batch = copy_task_batch(np.random.default_rng(10), 5, 9, 64)
        assert batch.shape == (5, 9)
        assert_array_equal(batch[:, 2:], batch[:, :-2])  # next token == previous token

    @pytest.mark.parametrize("make", [copy_task_batch, random_token_batch])
    @pytest.mark.parametrize(
        "name, args",
        [
            ("batch", (-1, 4, 64)),  # used to raise a raw ValueError
            ("batch", (2.5, 4, 64)),  # used to raise a raw TypeError
            ("seq_len", (2, -1, 64)),  # copy_task_batch used to return a [2, 0] batch
            ("seq_len", (2, 0, 64)),
            ("vocab", (2, 4, 0)),  # used to raise a raw ValueError
            ("vocab", (2, 4, True)),
        ],
    )
    def test_batch_sizes_must_be_positive_integers(self, make, name, args):
        with pytest.raises(UsageError, match=f"{name} must be a positive integer"):
            make(np.random.default_rng(0), *args)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        cfg = toy_cfg(aug_q_dim=48, d_k_head=2)
        model = init_model(cfg, seed=11)
        rng = np.random.default_rng(11)
        train_step(model, random_token_batch(rng, 2, 8, cfg.vocab_size), lr=0.1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        tokens = rng.integers(0, cfg.vocab_size, size=(1, 6))
        assert_array_equal(forward(loaded, tokens), forward(model, tokens))

    def test_load_holds_one_copy_of_the_weights(self, tmp_path):
        cfg = toy_cfg(aug_q_dim=48, d_k_head=2, vocab=512)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(cfg, seed=12), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * size, f"load peak {peak} B for a {size} B checkpoint"

    @pytest.mark.parametrize("change", ["missing", "extra", "shape"])
    def test_tensor_set_must_match_config(self, tmp_path, change):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(toy_cfg(), seed=13), path)
        config_text, tensors = read_tensors(path)
        if change == "missing":
            del tensors["blocks.1.w_ffn_up"]
        elif change == "extra":
            tensors["blocks.2.w_ffn_up"] = tensors["blocks.1.w_ffn_up"]
        else:
            tensors["blocks.1.w_ffn_up"] = tensors["blocks.1.w_ffn_up"][:, :-1]
        write_tensors(path, tensors, config_text)
        name = "blocks.2.w_ffn_up" if change == "extra" else "blocks.1.w_ffn_up"
        with pytest.raises(ContainerFormatError, match=name):
            load_checkpoint(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        # save_checkpoint refuses a NaN weight, so patch one into the bytes of a
        # valid checkpoint: head [d_model, vocab] is the last tensor in the file.
        model = init_model(toy_cfg(), seed=14)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        at = len(blob) - 8 * model.head.size + 8 * (3 * model.head.shape[1] + 5)
        assert blob[at : at + 8] == model.head[3, 5].tobytes()
        blob[at : at + 8] = np.array(np.nan, dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerFormatError, match="head"):
            load_checkpoint(path)

    def test_save_refuses_non_finite_weight(self, tmp_path):
        model = init_model(toy_cfg(), seed=14)
        model.head[3, 5] = np.nan
        path = tmp_path / "model.ckpt"
        with pytest.raises(ContainerFormatError, match="head"):
            save_checkpoint(model, path)
        assert not path.exists()

    def test_fuzzed_checkpoints_load_or_raise_typed_errors(self, tmp_path):
        # Every truncation of a small valid checkpoint, then seeded single-byte
        # flips: each either loads or raises a DiffQKVError, never a raw
        # struct/Unicode/Key/Memory/numpy error.
        attn = AttentionConfig(n_q_heads=1, n_k_heads=1, n_v_heads=1, d_head=4, d_k_head=2,
                               aug_q_dim=2)
        cfg = ModelConfig(attention=attn, n_layers=1, d_model=4, d_ffn=2, vocab_size=3,
                          max_seq_len=16)
        good = tmp_path / "good.ckpt"
        save_checkpoint(init_model(cfg, seed=15), good)
        blob = good.read_bytes()
        path = tmp_path / "fuzz.ckpt"

        def outcome(data: bytes) -> str:
            path.write_bytes(data)
            try:
                load_checkpoint(path)
            except DiffQKVError:
                return "error"
            return "loaded"

        assert outcome(blob) == "loaded"
        assert all(outcome(blob[:n]) == "error" for n in range(len(blob)))
        rng = np.random.default_rng(16)
        seen = set()
        for _ in range(200):
            flipped = bytearray(blob)
            at = int(rng.integers(len(blob)))
            flipped[at] ^= int(rng.integers(1, 256))
            seen.add(outcome(bytes(flipped)))
        assert seen == {"error", "loaded"}
