"""Tiny trainable causal LM built around DiffQKV attention.

One block = RMS pre-norm -> DiffQKV attention -> residual -> RMS pre-norm ->
gated (SiLU) FFN -> residual.  Rotary embedding inside attention, untied
embedding and output head, greedy decoding only.  The plain-numpy ``forward``
is the inference/recompute path; ``forward_incremental`` drives per-layer
differential KV caches and must agree with it token for token.  Both attend
with the grouped attention core over the stored K/V head counts, the half-K
expansion absorbed into the query, so K/V are never duplicated to n_q heads
or expanded.  ``train_step`` runs the same architecture through the autodiff
graph and applies a plain gradient-descent update.

``forward``/``decode`` are pure given the model and cache ownership;
``train_step`` mutates the model in place and is single-threaded per model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import (
    AttentionWeights,
    apply_rope,
    attention_output,
    attention_scores,
    init_attention_weights,
    naive_diffqkv_attention,
    project_qkv,
    rope_angles,
    silu,
)
from .autodiff import RMS_NORM_EPS
from .config import ModelConfig, format_config_text, parse_config_text, validate_model_config
from .errors import CapacityExceededError, LengthError, TokenRangeError
from .kvcache import DifferentialKVCache
from .tensorio import read_tensors, write_tensors


@dataclass
class TransformerBlock:
    attn: AttentionWeights
    w_ffn_gate: np.ndarray  # [d_model, d_ffn]
    w_ffn_up: np.ndarray  # [d_model, d_ffn]
    w_ffn_down: np.ndarray  # [d_ffn, d_model]
    norm_attn: np.ndarray  # [d_model]
    norm_ffn: np.ndarray  # [d_model]


@dataclass
class ToyModel:
    config: ModelConfig
    embedding: np.ndarray  # [vocab, d_model]
    blocks: list[TransformerBlock]
    norm_final: np.ndarray  # [d_model]
    head: np.ndarray  # [d_model, vocab] (untied)

    def named_tensors(self) -> dict[str, np.ndarray]:
        out = {"embedding": self.embedding}
        for i, blk in enumerate(self.blocks):
            prefix = f"blocks.{i}."
            out.update(blk.attn.named_tensors(prefix + "attn."))
            out[prefix + "w_ffn_gate"] = blk.w_ffn_gate
            out[prefix + "w_ffn_up"] = blk.w_ffn_up
            out[prefix + "w_ffn_down"] = blk.w_ffn_down
            out[prefix + "norm_attn"] = blk.norm_attn
            out[prefix + "norm_ffn"] = blk.norm_ffn
        out["norm_final"] = self.norm_final
        out["head"] = self.head
        return out


def init_model(cfg: ModelConfig, seed: int = 0) -> ToyModel:
    """Seeded init: projections and embeddings N(0, 0.02), norm scales 1."""
    validate_model_config(cfg)
    rng = np.random.default_rng(seed)
    d, f = cfg.d_model, cfg.d_ffn
    blocks = []
    for _ in range(cfg.n_layers):
        blocks.append(
            TransformerBlock(
                attn=init_attention_weights(cfg.attention, d, rng),
                w_ffn_gate=rng.normal(0.0, 0.02, (d, f)),
                w_ffn_up=rng.normal(0.0, 0.02, (d, f)),
                w_ffn_down=rng.normal(0.0, 0.02, (f, d)),
                norm_attn=np.ones(d),
                norm_ffn=np.ones(d),
            )
        )
    return ToyModel(
        config=cfg,
        embedding=rng.normal(0.0, 0.02, (cfg.vocab_size, d)),
        blocks=blocks,
        norm_final=np.ones(d),
        head=rng.normal(0.0, 0.02, (d, cfg.vocab_size)),
    )


def _rms_norm(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    inv = 1.0 / np.sqrt(np.mean(x**2, axis=-1, keepdims=True) + RMS_NORM_EPS)
    return x * inv * scale


def _ffn(x: np.ndarray, blk: TransformerBlock) -> np.ndarray:
    return (silu(x @ blk.w_ffn_gate) * (x @ blk.w_ffn_up)) @ blk.w_ffn_down


def _check_tokens(model: ToyModel, tokens: np.ndarray) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be [batch, seq], got shape {tokens.shape}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= model.config.vocab_size):
        raise TokenRangeError(
            f"token ids must lie in [0, {model.config.vocab_size})"
        )
    if tokens.shape[1] > model.config.max_seq_len:
        raise LengthError(
            f"sequence length {tokens.shape[1]} exceeds max_seq_len {model.config.max_seq_len}"
        )
    return tokens


def forward(model: ToyModel, tokens) -> np.ndarray:
    """Full-context causal forward pass; tokens [b, s] -> logits [b, s, vocab]."""
    tokens = _check_tokens(model, tokens)
    acfg = model.config.attention
    x = model.embedding[tokens]
    for blk in model.blocks:
        x = x + naive_diffqkv_attention(_rms_norm(x, blk.norm_attn), blk.attn, acfg)
        x = x + _ffn(_rms_norm(x, blk.norm_ffn), blk)
    return _rms_norm(x, model.norm_final) @ model.head


def make_caches(model: ToyModel, batch: int, capacity: int) -> list[DifferentialKVCache]:
    return [
        DifferentialKVCache(model.config.attention, batch, capacity)
        for _ in range(model.config.n_layers)
    ]


def forward_incremental(
    model: ToyModel,
    tokens,
    caches: list[DifferentialKVCache],
    start_pos: int,
) -> np.ndarray:
    """Process tokens one position at a time through the per-layer caches.

    Each position appends exactly one (k_t, v_t) pair to every layer's cache;
    caches must already hold ``start_pos`` positions.  Returns logits for the
    supplied positions only.
    """
    tokens = np.asarray(tokens)
    acfg = model.config.attention
    b, s_new = tokens.shape
    logits = np.empty((b, s_new, model.config.vocab_size))
    for i in range(s_new):
        pos = start_pos + i
        x = model.embedding[tokens[:, i : i + 1]]  # [b, 1, d_model]
        for blk, cache in zip(model.blocks, caches):
            h = _rms_norm(x, blk.norm_attn)
            q, k, v = project_qkv(h, blk.attn, acfg)
            q, k = apply_rope(q, k, [pos], acfg.rope_theta)
            if acfg.half_k:
                q = q @ blk.attn.w_k_expand.T  # score the stored d_k keys directly
            cache.append(k, v)
            k_view, v_view = cache.view()
            alpha = attention_scores(q[:, 0], k_view, acfg.softmax_scale_dim, cache.len)
            x = x + attention_output(alpha, v_view, blk.attn.w_o)[:, None, :]
            x = x + _ffn(_rms_norm(x, blk.norm_ffn), blk)
        logits[:, i] = (_rms_norm(x, model.norm_final) @ model.head)[:, 0]
    return logits


def decode(
    model: ToyModel,
    prompt,
    n_new: int,
    caches: list[DifferentialKVCache] | None = None,
) -> np.ndarray:
    """Greedy decoding of ``n_new`` tokens after ``prompt`` (1-D token ids).

    Produces tokens identical to recomputing the full context at every step.
    """
    prompt = np.asarray(prompt, dtype=np.int64).reshape(1, -1)
    _check_tokens(model, prompt)
    if n_new == 0:
        return prompt[0].copy()
    if caches is None:
        caches = make_caches(model, 1, prompt.shape[1] + n_new)
    if caches[0].len != 0:
        raise ValueError("decode expects freshly created (empty) caches")
    if prompt.shape[1] + n_new > caches[0].capacity:
        raise CapacityExceededError(
            f"prompt ({prompt.shape[1]}) + n_new ({n_new}) exceeds cache capacity "
            f"{caches[0].capacity}"
        )
    out = list(prompt[0])
    logits = forward_incremental(model, prompt, caches, start_pos=0)
    next_token = int(np.argmax(logits[0, -1]))
    out.append(next_token)
    for _ in range(n_new - 1):
        logits = forward_incremental(
            model, np.array([[next_token]]), caches, start_pos=len(out) - 1
        )
        next_token = int(np.argmax(logits[0, -1]))
        out.append(next_token)
    # Append the final token too: each generated token adds one (k, v) pair
    # per layer, so the caches end at exactly prompt + n_new positions.
    forward_incremental(model, np.array([[next_token]]), caches, start_pos=len(out) - 1)
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Training path (autodiff twin of the numpy forward)
# ---------------------------------------------------------------------------


def as_parameter_tensors(model: ToyModel) -> dict[str, ad.Tensor]:
    """Wrap every parameter array as a trainable autodiff tensor (shared memory)."""
    return {
        name: ad.Tensor(arr, requires_grad=True)
        for name, arr in model.named_tensors().items()
    }


def attention_graph(h: ad.Tensor, w: dict[str, ad.Tensor], acfg) -> ad.Tensor:
    """Causal DiffQKV attention over autodiff tensors; h is [b, s, d_model].

    The full-matrix twin of :func:`diffqkv.attention.naive_diffqkv_attention`;
    its forward values agree with the numpy reference, and its reverse pass
    supplies the analytic gradients that finite differences are checked
    against.
    """
    b, s, _ = h.data.shape
    positions = np.arange(s)
    cos_q, sin_q = rope_angles(positions, acfg.d_head, acfg.rope_theta)
    cos_k, sin_k = rope_angles(positions, acfg.d_k_head, acfg.rope_theta)
    causal_mask = np.triu(np.full((s, s), -np.inf), k=1)
    inv_scale = 1.0 / np.sqrt(float(acfg.softmax_scale_dim))

    q_flat = h @ w["w_q"]
    if acfg.has_aug_q:
        gated = ad.silu(q_flat @ w["w_q_gate"]) * (q_flat @ w["w_q_up"])
        q_flat = gated @ w["w_q_down"]
    q = ad.rope(ad.reshape(q_flat, (b, s, acfg.n_q_heads, acfg.d_head)), cos_q, sin_q)
    k = ad.rope(
        ad.reshape(h @ w["w_k"], (b, s, acfg.n_k_heads, acfg.d_k_head)), cos_k, sin_k
    )
    if acfg.half_k:
        k = k @ w["w_k_expand"]
    v = ad.reshape(h @ w["w_v"], (b, s, acfg.n_v_heads, acfg.d_head))

    k_shared = ad.repeat_heads(k, acfg.n_q_heads // acfg.n_k_heads, axis=2)
    v_shared = ad.repeat_heads(v, acfg.n_q_heads // acfg.n_v_heads, axis=2)
    q_t = ad.transpose(q, (0, 2, 1, 3))  # [b, h, s, d]
    k_t = ad.transpose(k_shared, (0, 2, 3, 1))  # [b, h, d, s]
    v_t = ad.transpose(v_shared, (0, 2, 1, 3))
    scores = (q_t @ k_t) * inv_scale + causal_mask
    alpha = ad.softmax_last(scores)
    ctx = ad.transpose(alpha @ v_t, (0, 2, 1, 3))  # [b, s, h, d]
    return ad.reshape(ctx, (b, s, acfg.n_q_heads * acfg.d_head)) @ w["w_o"]


def forward_graph(params: dict[str, ad.Tensor], cfg: ModelConfig, tokens) -> ad.Tensor:
    """The toy-model forward expressed over autodiff tensors."""
    acfg = cfg.attention
    tokens = np.asarray(tokens)
    b, s = tokens.shape
    x = ad.embedding(params["embedding"], tokens)
    for i in range(cfg.n_layers):
        prefix = f"blocks.{i}."
        attn_w = {
            name[len(prefix + "attn.") :]: t
            for name, t in params.items()
            if name.startswith(prefix + "attn.")
        }
        h = ad.rms_norm(x, params[prefix + "norm_attn"])
        x = x + attention_graph(h, attn_w, acfg)
        h2 = ad.rms_norm(x, params[prefix + "norm_ffn"])
        ffn = (
            ad.silu(h2 @ params[prefix + "w_ffn_gate"]) * (h2 @ params[prefix + "w_ffn_up"])
        ) @ params[prefix + "w_ffn_down"]
        x = x + ffn
    x = ad.rms_norm(x, params["norm_final"])
    return x @ params["head"]


def loss_graph(params: dict[str, ad.Tensor], cfg: ModelConfig, tokens) -> ad.Tensor:
    return ad.cross_entropy_next_token(forward_graph(params, cfg, tokens), tokens)


def train_step(model: ToyModel, batch, lr: float) -> float:
    """One cross-entropy next-token step with a plain gradient-descent update."""
    batch = _check_tokens(model, batch)
    params = as_parameter_tensors(model)
    loss = loss_graph(params, model.config, batch)
    loss.backward()
    for tensor in params.values():
        if tensor.grad is not None:
            tensor.data -= lr * tensor.grad
    return float(loss.data)


# ---------------------------------------------------------------------------
# Synthetic tasks and checkpoints
# ---------------------------------------------------------------------------


def copy_task_batch(rng: np.random.Generator, batch: int, seq_len: int, vocab: int) -> np.ndarray:
    """Period-2 sequences [a, b, a, b, ...]: the next token is always the
    token before last, so the task is exactly 'predict the previous token'."""
    pair = rng.integers(0, vocab, size=(batch, 2))
    reps = (seq_len + 1) // 2
    return np.tile(pair, (1, reps))[:, :seq_len]


def random_token_batch(rng: np.random.Generator, batch: int, seq_len: int, vocab: int) -> np.ndarray:
    return rng.integers(0, vocab, size=(batch, seq_len))


def save_checkpoint(model: ToyModel, path) -> None:
    write_tensors(path, model.named_tensors(), format_config_text(model.config))


def load_checkpoint(path) -> ToyModel:
    config_text, tensors = read_tensors(path)
    cfg = parse_config_text(config_text)
    if not isinstance(cfg, ModelConfig):
        raise ValueError("checkpoint config echo lacks the model block")
    model = init_model(cfg, seed=0)
    for name, arr in model.named_tensors().items():
        arr[...] = tensors[name]
    return model
