"""Tiny trainable causal LM built around DiffQKV attention.

One block = RMS pre-norm -> DiffQKV attention -> residual -> RMS pre-norm ->
gated (SiLU) FFN -> residual.  Rotary embedding inside attention, untied
embedding and output head, greedy decoding only.  One numpy block pass runs
every layer's attention through :func:`diffqkv.attention.cached_attention`
over that layer's differential KV cache: ``forward`` is the pass over fresh
caches, attending tiles of queries against bounded blocks of keys, and
``forward_incremental`` feeds it one position at a time, agreeing with
``forward`` token for token.
K/V stay at their stored head counts and the half-K expansion is absorbed into
the query, so the cache is never duplicated or expanded.  ``train_step`` runs
the same architecture through the autodiff graph, which also attends at native
head counts, and applies a plain gradient-descent update.

``forward``/``decode`` are pure given the model and cache ownership;
``train_step`` mutates the model in place and is single-threaded per model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import (
    AttentionWeights,
    _inverse_rms,
    attention_weight_shapes,
    cached_attention,
    rope_angles,
    silu,
)
from .config import ModelConfig, format_config_text, parse_config_text, validate_model_config
from .errors import (
    CapacityExceededError,
    EmptyInputError,
    LengthError,
    PositionError,
    ShapeError,
    TokenRangeError,
)
from .kvcache import DifferentialKVCache
from .tensorio import ContainerFormatError, read_tensors, write_tensors

_BLOCK_TENSORS = ("w_ffn_gate", "w_ffn_up", "w_ffn_down", "norm_attn", "norm_ffn")


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
            out.update(blk.attn.named_tensors(f"blocks.{i}.attn."))
            out.update((f"blocks.{i}.{name}", getattr(blk, name)) for name in _BLOCK_TENSORS)
        out.update(norm_final=self.norm_final, head=self.head)
        return out


def _tensor_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter, in the order ``init_model`` draws them."""
    d, f = cfg.d_model, cfg.d_ffn
    shapes: dict[str, tuple[int, ...]] = {}
    for i in range(cfg.n_layers):
        attn = attention_weight_shapes(cfg.attention, d)
        shapes.update((f"blocks.{i}.attn.{name}", shape) for name, shape in attn.items())
        block = zip(_BLOCK_TENSORS, ((d, f), (d, f), (f, d), (d,), (d,)))
        shapes.update((f"blocks.{i}.{name}", shape) for name, shape in block)
    shapes.update(embedding=(cfg.vocab_size, d), norm_final=(d,), head=(d, cfg.vocab_size))
    return shapes


def _assemble(cfg: ModelConfig, tensors: dict[str, np.ndarray]) -> ToyModel:
    """Build a model around the named arrays of ``_tensor_shapes(cfg)`` (no copies)."""

    def block(i: int) -> TransformerBlock:
        attn = attention_weight_shapes(cfg.attention, cfg.d_model)
        return TransformerBlock(
            AttentionWeights(**{name: tensors[f"blocks.{i}.attn.{name}"] for name in attn}),
            *(tensors[f"blocks.{i}.{name}"] for name in _BLOCK_TENSORS),
        )

    blocks = [block(i) for i in range(cfg.n_layers)]
    return ToyModel(cfg, tensors["embedding"], blocks, tensors["norm_final"], tensors["head"])


def init_model(cfg: ModelConfig, seed: int = 0) -> ToyModel:
    """Seeded init: projections and embeddings N(0, 0.02), norm scales 1."""
    rng = np.random.default_rng(seed)
    shapes = _tensor_shapes(validate_model_config(cfg))
    # The norm scales are the only vectors.
    draw = {n: np.ones(s) if len(s) == 1 else rng.normal(0.0, 0.02, s) for n, s in shapes.items()}
    return _assemble(cfg, draw)


def _rms_norm(x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return x * _inverse_rms(x) * scale


def _ffn(x: np.ndarray, blk: TransformerBlock) -> np.ndarray:
    return (silu(x @ blk.w_ffn_gate) * (x @ blk.w_ffn_up)) @ blk.w_ffn_down


def _check_tokens(model: ToyModel, tokens) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ShapeError(f"tokens must be [batch, seq], got shape {tokens.shape}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= model.config.vocab_size):
        raise TokenRangeError(
            f"token ids must lie in [0, {model.config.vocab_size})"
        )
    if tokens.shape[1] > model.config.max_seq_len:
        raise LengthError(
            f"sequence length {tokens.shape[1]} exceeds max_seq_len {model.config.max_seq_len}"
        )
    return tokens


def _block_pass(model: ToyModel, x: np.ndarray, caches: list[DifferentialKVCache]) -> np.ndarray:
    """Embedded inputs [b, s, d_model] at the caches' next positions -> logits [b, s, vocab]."""
    acfg = model.config.attention
    for blk, cache in zip(model.blocks, caches):
        x = x + cached_attention(_rms_norm(x, blk.norm_attn), blk.attn, acfg, cache)
        x = x + _ffn(_rms_norm(x, blk.norm_ffn), blk)
    return _rms_norm(x, model.norm_final) @ model.head


def forward(model: ToyModel, tokens) -> np.ndarray:
    """Full-context causal forward pass; tokens [b, s] -> logits [b, s, vocab]."""
    tokens = _check_tokens(model, tokens)
    b, s = tokens.shape
    return _block_pass(model, model.embedding[tokens], make_caches(model, b, max(s, 1)))


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
    """Feed tokens [b, s] through the block pass one position at a time.

    Each position appends exactly one (k_t, v_t) pair to every layer's cache;
    the caches must hold exactly ``start_pos`` positions.  Returns logits for
    the supplied positions only.
    """
    tokens = _check_tokens(model, tokens)
    held = sorted({cache.len for cache in caches})
    if held != [start_pos]:
        raise PositionError(f"start_pos {start_pos} does not match the caches' length {held}")
    logits = np.empty((*tokens.shape, model.config.vocab_size))
    for i in range(tokens.shape[1]):
        x = model.embedding[tokens[:, i : i + 1]]  # [b, 1, d_model]
        logits[:, i] = _block_pass(model, x, caches)[:, 0]
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
    if prompt.shape[1] == 0:
        raise EmptyInputError("decode needs a prompt of at least one token")
    if n_new == 0:
        return prompt[0].copy()
    if prompt.shape[1] + n_new > model.config.max_seq_len:
        raise LengthError(f"prompt + n_new exceeds max_seq_len {model.config.max_seq_len}")
    if caches is None:
        caches = make_caches(model, 1, prompt.shape[1] + n_new)
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

    The autodiff twin of :func:`diffqkv.attention.naive_diffqkv_attention`,
    at native head counts too: the query heads are reshaped into one group
    per K (V) head and multiplied against that head alone, and in half-K mode
    the K expansion is absorbed into the query.  Its forward values agree
    with the numpy path, and its reverse pass supplies the analytic gradients
    that finite differences are checked against.
    """
    b, s, _ = h.data.shape
    n_q, n_k, n_v = acfg.n_q_heads, acfg.n_k_heads, acfg.n_v_heads
    d, d_k = acfg.d_head, acfg.d_k_head
    positions = np.arange(s)
    inv_scale = 1.0 / np.sqrt(float(acfg.softmax_scale_dim))

    q_flat = h @ w["w_q"]
    if acfg.has_aug_q:
        gated = ad.silu(q_flat @ w["w_q_gate"]) * (q_flat @ w["w_q_up"])
        q_flat = gated @ w["w_q_down"]
    q = ad.rope(ad.reshape(q_flat, (b, s, n_q, d)), *rope_angles(positions, d, acfg.rope_theta))
    if acfg.half_k:
        q = q @ ad.transpose(w["w_k_expand"], (1, 0))
    k = ad.rope(
        ad.reshape(h @ w["w_k"], (b, s, n_k, d_k)), *rope_angles(positions, d_k, acfg.rope_theta)
    )
    v = ad.reshape(h @ w["w_v"], (b, s, n_v, d))

    # The rows of each group's query heads [b, n_k, n_q/n_k * s, d_k] against its keys,
    # with one causal [s, s] mask per query head of the group.  The softmax scale goes
    # on these rows, far smaller than the s x s scores, and the mask into the softmax.
    q_rows = ad.reshape(ad.transpose(q, (0, 2, 1, 3)), (b, n_k, n_q // n_k * s, d_k)) * inv_scale
    k_t = ad.transpose(k, (0, 2, 3, 1))  # [b, n_k, d_k, s]
    causal_mask = np.tile(np.triu(np.full((s, s), -np.inf), k=1), (n_q // n_k, 1))
    alpha = ad.reshape(ad.softmax_last(q_rows @ k_t, causal_mask), (b, n_v, n_q // n_v * s, s))
    v_t = ad.transpose(v, (0, 2, 1, 3))  # [b, n_v, s, d]
    ctx = ad.transpose(ad.reshape(alpha @ v_t, (b, n_q, s, d)), (0, 2, 1, 3))  # [b, s, h, d]
    return ad.reshape(ctx, (b, s, n_q * d)) @ w["w_o"]


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
    """Load a ``save_checkpoint`` file around the arrays read from it.

    A malformed file raises a DiffQKVError; a missing, unexpected or
    mis-shaped tensor (shape None: absent) raises ContainerFormatError.
    """
    config_text, tensors = read_tensors(path)
    cfg = parse_config_text(config_text)
    if not isinstance(cfg, ModelConfig):
        raise ContainerFormatError("checkpoint config echo lacks the model block")
    expected = _tensor_shapes(cfg)
    found = {name: arr.shape for name, arr in tensors.items()}
    for name in sorted(expected.keys() | found.keys()):
        if found.get(name) != expected.get(name):
            raise ContainerFormatError(
                f"tensor {name!r}: the file has shape {found.get(name)}, "
                f"its config needs {expected.get(name)}"
            )
    return _assemble(cfg, tensors)
