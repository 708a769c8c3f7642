"""Tiny trainable causal LM built around DiffQKV attention.

One block = RMS pre-norm -> DiffQKV attention -> residual -> RMS pre-norm ->
gated (SiLU) FFN -> residual.  Rotary embedding inside attention, untied
embedding and output head, greedy decoding only.

The forward is written once, as ``forward_stages`` over an ops namespace and
a per-layer attention: the embedding, each block's attention half and FFN
half, and the final norm with the head.  Inference runs it over
``attention.NUMPY_OPS``, each layer's ``cached_attention`` over that layer's
differential KV cache (built for the model's attention config, which it
runs), and creates no autodiff Tensor.  One fed loop runs the stages over
consecutive slices of positions, writing each slice's logits into place:
``forward`` feeds fresh caches in row chunks sized by ``_chunk_rows`` (so its
transient memory does not grow with the sequence), while
``forward_incremental`` feeds the caller's caches one position at a time, and
``decode`` feeds its own caches the prompt in ``forward``'s chunks, then one
token at a time, agreeing with ``forward`` token for token.
K/V stay at their stored head counts and the half-K expansion is absorbed
into the query, so the cache is never duplicated or expanded.  Training
(``graph_stages``) runs the same stages over :mod:`diffqkv.autodiff`,
attending from position 0 through ``autodiff.causal_attention``;
``train_step`` applies a plain gradient-descent update, and a gradient check
reruns a perturbed loss from the first stage that reads the perturbed
tensor, so it differentiates the code ``forward`` and ``decode`` run.

``forward``/``decode`` make their own caches and are pure given the model;
``train_step`` mutates the model in place and is single-threaded per model.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import autodiff as ad
from .attention import (
    NUMPY_OPS,
    AttentionWeights,
    attention_layer,
    attention_weight_shapes,
    cached_attention,
)
from .config import ModelConfig, check_int, check_real, format_config_text, parse_config_text
from .errors import (
    CapacityExceededError,
    ConfigError,
    DivergenceError,
    EmptyInputError,
    LengthError,
    PositionError,
    ShapeError,
    TokenRangeError,
    UsageError,
)
from .kvcache import DifferentialKVCache
from .tensorio import ContainerFormatError, _finite, read_tensors, write_tensors


@dataclass
class TransformerBlock:
    attn: AttentionWeights
    w_ffn_gate: np.ndarray  # [d_model, d_ffn]
    w_ffn_up: np.ndarray  # [d_model, d_ffn]
    w_ffn_down: np.ndarray  # [d_ffn, d_model]
    norm_attn: np.ndarray  # [d_model]
    norm_ffn: np.ndarray  # [d_model]


_BLOCK_TENSORS = tuple(f.name for f in fields(TransformerBlock) if f.name != "attn")


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
    attn = attention_weight_shapes(cfg.attention)
    for i in range(cfg.n_layers):
        shapes.update((f"blocks.{i}.attn.{name}", shape) for name, shape in attn.items())
        block = zip(_BLOCK_TENSORS, ((d, f), (d, f), (f, d), (d,), (d,)))
        shapes.update((f"blocks.{i}.{name}", shape) for name, shape in block)
    shapes.update(embedding=(cfg.vocab_size, d), norm_final=(d,), head=(d, cfg.vocab_size))
    return shapes


def _assemble(cfg: ModelConfig, tensors: dict) -> ToyModel:
    """Build a model around the named arrays or Tensors of ``_tensor_shapes(cfg)`` (no copies)."""
    attn = attention_weight_shapes(cfg.attention)

    def block(i: int) -> TransformerBlock:
        return TransformerBlock(
            AttentionWeights(**{name: tensors[f"blocks.{i}.attn.{name}"] for name in attn}),
            *(tensors[f"blocks.{i}.{name}"] for name in _BLOCK_TENSORS),
        )

    blocks = [block(i) for i in range(cfg.n_layers)]
    return ToyModel(cfg, tensors["embedding"], blocks, tensors["norm_final"], tensors["head"])


def init_model(cfg: ModelConfig, seed: int = 0) -> ToyModel:
    """Seeded init: projections and embeddings N(0, 0.02), norm scales 1."""
    check_int("seed", seed, 0, UsageError)
    rng = np.random.default_rng(seed)
    shapes = _tensor_shapes(cfg)
    # The norm scales are the only vectors.
    draw = {n: np.ones(s) if len(s) == 1 else rng.normal(0.0, 0.02, s) for n, s in shapes.items()}
    return _assemble(cfg, draw)


def _check_tokens(model: ToyModel, tokens) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ShapeError(f"tokens must be [batch, seq], got shape {tokens.shape}")
    if tokens.size and not np.issubdtype(tokens.dtype, np.integer):
        raise TokenRangeError(f"token ids must be integers, got dtype {tokens.dtype}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= model.config.vocab_size):
        raise TokenRangeError(f"token ids must lie in [0, {model.config.vocab_size})")
    if tokens.shape[1] > model.config.max_seq_len:
        raise LengthError(
            f"sequence length {tokens.shape[1]} exceeds max_seq_len {model.config.max_seq_len}"
        )
    return tokens


def forward_stages(model: ToyModel, ops, attentions: list) -> list:
    """The model's forward as consecutive stages over ``ops`` (``NUMPY_OPS`` or ``autodiff``).

    Each maps the previous stage's output to its own: the embedding lookup
    (token ids -> [b, s, d_model]), each block's attention half and FFN half
    (pre-normed residual updates), then the final norm and the head (-> logits).
    ``attentions[i](h, w)`` attends block i's normed inputs h with its weights w.
    """

    def attention_half(blk: TransformerBlock, attention):
        return lambda x: x + attention(ops.rms_norm(x, blk.norm_attn), blk.attn)

    def ffn_half(blk: TransformerBlock):
        def run(x):
            h = ops.rms_norm(x, blk.norm_ffn)
            gated = ops.silu_gate(ops.matmul(h, blk.w_ffn_gate), ops.matmul(h, blk.w_ffn_up))
            return x + ops.matmul(gated, blk.w_ffn_down)

        return run

    stages = [lambda ids: ops.embedding(model.embedding, ids)]
    for blk, attention in zip(model.blocks, attentions):
        stages += [attention_half(blk, attention), ffn_half(blk)]
    stages.append(lambda x: ops.matmul(ops.rms_norm(x, model.norm_final), model.head))
    return stages


def _run(stages: list, x):
    for stage in stages:
        x = stage(x)
    return x


# Elements of the widest [b, rows, width] activation of one fed chunk of
# ``forward``.  2**18 float64 elements are 2 MiB: 128 rows at vocab 2048.
_ROW_BUDGET = 1 << 18


def _chunk_rows(model: ToyModel, b: int) -> int:
    """Positions per ``forward`` chunk, so its widest activation holds about ``_ROW_BUDGET``."""
    cfg = model.config
    widest = max(cfg.d_ffn, cfg.vocab_size, cfg.attention.aug_q_dim, cfg.d_model)
    return max(1, _ROW_BUDGET // (b * widest))


def _feed(
    model: ToyModel, tokens: np.ndarray, caches: list[DifferentialKVCache], rows: int
) -> np.ndarray:
    """Tokens [b, s] at the caches' next positions -> logits [b, s, vocab], ``rows`` at a time.

    Non-finite logits raise ``DivergenceError``; a refused feed puts every cache's length back.
    """
    b, s = tokens.shape
    attentions = [partial(cached_attention, cache=c) for c in caches]
    stages = forward_stages(model, NUMPY_OPS, attentions)
    logits = np.empty((b, s, model.config.vocab_size))
    held = [cache.len for cache in caches]
    try:
        with np.errstate(all="ignore"):  # a feed that overflows is refused below, not warned about
            for i in range(0, s, rows):
                logits[:, i : i + rows] = _run(stages, tokens[:, i : i + rows])
        if not _finite(logits):
            raise DivergenceError("the model's logits are not finite")
    except DivergenceError:
        for cache, n in zip(caches, held):
            cache.len = n
        raise
    return logits


def forward(model: ToyModel, tokens) -> np.ndarray:
    """Full-context causal forward pass; tokens [b, s] -> logits [b, s, vocab].

    Feeds fresh caches in chunks of ``_chunk_rows`` positions, so beyond the
    returned logits and the caches it holds one chunk's activations at a time.
    """
    tokens = _check_tokens(model, tokens)
    b, s = tokens.shape
    caches = make_caches(model, b, max(s, 1))
    return _feed(model, tokens, caches, _chunk_rows(model, b))


def make_caches(model: ToyModel, batch: int, capacity: int) -> list[DifferentialKVCache]:
    return [
        DifferentialKVCache(model.config.attention, batch, capacity)
        for _ in range(model.config.n_layers)
    ]


def _check_caches(model: ToyModel, caches: list[DifferentialKVCache], batch: int) -> None:
    """One cache per layer (``UsageError``), each of the model's attention config,
    which its attention runs (``ConfigError``), and of batch ``batch`` (``ShapeError``)."""
    if len(caches) != model.config.n_layers:
        raise UsageError(f"{len(caches)} caches given for {model.config.n_layers} layers")
    for i, cache in enumerate(caches):
        if cache.cfg != model.config.attention:
            raise ConfigError(f"cache {i} has config {cache.cfg}, the model's is {model.config.attention}")
        if cache.batch != batch:
            raise ShapeError(f"cache {i} has batch {cache.batch}, the tokens have batch {batch}")


def forward_incremental(
    model: ToyModel,
    tokens,
    caches: list[DifferentialKVCache],
    start_pos: int,
) -> np.ndarray:
    """Feed tokens [b, s] through the fed loop one position at a time.

    Each position appends exactly one (k_t, v_t) pair to every layer's cache;
    there must be one cache per layer, each of the model's attention config and
    batch b, holding exactly ``start_pos`` positions and with room for s more.
    A rejected call leaves every cache unchanged, and a feed refused with
    ``DivergenceError`` (a K, V or logit that is not finite) puts every cache's
    length back to ``start_pos``.  Returns logits for the supplied positions only.
    """
    tokens = _check_tokens(model, tokens)
    _check_caches(model, caches, tokens.shape[0])
    check_int("start_pos", start_pos, 0, PositionError)
    held = sorted({cache.len for cache in caches})
    if held != [start_pos]:
        raise PositionError(f"start_pos {start_pos} does not match the caches' length {held}")
    room = min(cache.capacity for cache in caches)
    if start_pos + tokens.shape[1] > room:
        raise CapacityExceededError(
            f"feeding {tokens.shape[1]} positions after {start_pos} exceeds cache capacity {room}"
        )
    return _feed(model, tokens, caches, 1)


def decode(model: ToyModel, prompt, n_new: int) -> np.ndarray:
    """Greedy decoding of ``n_new`` tokens after ``prompt`` (1-D token ids).

    Feeds the prompt in ``forward``'s row chunks, then each generated token but
    the last (nothing reads its logits), through caches of its own: ``n_new``
    fed steps in all.
    Produces tokens identical to recomputing the full context at every step.
    """
    check_int("n_new", n_new, 0, UsageError)
    prompt = np.asarray(prompt)
    if prompt.ndim != 1:
        raise ShapeError(f"prompt must be 1-D token ids, got shape {prompt.shape}")
    prompt = _check_tokens(model, prompt[None]).astype(np.int64)
    if prompt.shape[1] == 0:
        raise EmptyInputError("decode needs a prompt of at least one token")
    total = prompt.shape[1] + n_new
    if total > model.config.max_seq_len:
        raise LengthError(f"prompt + n_new exceeds max_seq_len {model.config.max_seq_len}")
    caches = make_caches(model, 1, total)
    out = list(prompt[0])
    fed, rows = 0, _chunk_rows(model, 1)  # later feeds are one token, which any row count covers
    while len(out) < total:
        logits = _feed(model, np.array([out[fed:]]), caches, rows)
        fed = len(out)
        out.append(int(np.argmax(logits[0, -1])))
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Training path: the same stages over autodiff Tensors
# ---------------------------------------------------------------------------


def as_parameter_tensors(model: ToyModel) -> dict[str, ad.Tensor]:
    """Wrap every parameter array as a trainable autodiff tensor (shared memory)."""
    return {
        name: ad.Tensor(arr, requires_grad=True)
        for name, arr in model.named_tensors().items()
    }


def graph_stages(model: ToyModel) -> list:
    """``forward_stages`` over a model of Tensors: autodiff ops, every layer attending from position 0."""
    acfg = model.config.attention
    attention = partial(attention_layer, cfg=acfg, start=0, attend=ad.causal_attention, ops=ad)
    return forward_stages(model, ad, [attention] * len(model.blocks))


def staged_forward(model: ToyModel, tokens) -> tuple[list, list, list[set[str]]]:
    """Run ``graph_stages`` once over constant Tensors that share the model's arrays.

    Each stage runs on a constant Tensor over the previous stage's output,
    made read-only, so its graph starts at its own input and an in-place
    change to a model array shows through on the next run of a stage.
    Returns the stages, each stage's input (the token ids first) and the
    names of the parameters each stage's graph reads.
    """
    constants = {name: ad.Tensor(arr) for name, arr in model.named_tensors().items()}
    name_of = {id(t): name for name, t in constants.items()}
    stages = graph_stages(_assemble(model.config, constants))
    inputs, reads = [], []
    x = np.asarray(tokens)
    for stage in stages:
        inputs.append(x)
        out = stage(x)
        reads.append({name_of[id(t)] for t in ad.leaves(out) if id(t) in name_of})
        out.data.flags.writeable = False
        x = ad.Tensor(out.data)
    return stages, inputs, reads


def forward_graph(params: dict[str, ad.Tensor], cfg: ModelConfig, tokens) -> ad.Tensor:
    """The toy-model forward over autodiff tensors: ``graph_stages`` run in order."""
    return _run(graph_stages(_assemble(cfg, params)), np.asarray(tokens))


def loss_graph(params: dict[str, ad.Tensor], cfg: ModelConfig, tokens) -> ad.Tensor:
    return ad.cross_entropy_next_token(forward_graph(params, cfg, tokens), tokens)


def train_step(model: ToyModel, batch, lr: float) -> float:
    """One cross-entropy next-token step with a plain gradient-descent update.

    A refused ``lr`` (not a positive finite real, ``check_real``) or batch leaves every weight
    unchanged, and so does a step whose loss or any updated weight (so any gradient) is not
    finite: ``DivergenceError``.
    """
    check_real("lr", lr, error=UsageError)
    batch = _check_tokens(model, batch)
    if batch.size == 0:
        raise EmptyInputError(f"train_step needs a batch with at least one position, got {batch.shape}")
    params = as_parameter_tensors(model)
    with np.errstate(all="ignore"):  # a step that overflows is refused below, not warned about
        loss = loss_graph(params, model.config, batch)
        loss.backward()
        updated = [(tensor.data, tensor.data - lr * tensor.grad) for tensor in params.values()]
    value = float(loss.data)
    if not _finite(loss.data) or not all(_finite(new) for _, new in updated):
        raise DivergenceError(f"a non-finite step (loss {value}) was refused; no weight changed")
    for weight, new in updated:
        weight[...] = new
    return value


# ---------------------------------------------------------------------------
# Synthetic tasks and checkpoints
# ---------------------------------------------------------------------------


def copy_task_batch(rng: np.random.Generator, batch: int, seq_len: int, vocab: int) -> np.ndarray:
    """Period-2 sequences [a, b, a, b, ...]: the next token is always the
    token before last, so the task is exactly 'predict the previous token'."""
    check_int("seq_len", seq_len, 1, UsageError)
    pair = random_token_batch(rng, batch, 2, vocab)
    try:
        return np.tile(pair, (1, (seq_len + 1) // 2))[:, :seq_len]
    except (OverflowError, ValueError) as exc:  # a size numpy refuses before it allocates
        raise UsageError(f"seq_len {seq_len} is too large: {exc}") from None


def random_token_batch(rng: np.random.Generator, batch: int, seq_len: int, vocab: int) -> np.ndarray:
    """Uniform token ids [batch, seq_len] below ``vocab``; each size must be a positive integer."""
    for name, value in (("batch", batch), ("seq_len", seq_len), ("vocab", vocab)):
        check_int(name, value, 1, UsageError)
    try:
        return rng.integers(0, vocab, size=(batch, seq_len))
    except ValueError as exc:  # a size numpy refuses before it allocates
        raise UsageError(f"a batch of {batch} x {seq_len} tokens is too large: {exc}") from None


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
