"""Architecture knobs for DiffQKV attention and the toy model.

DiffQKV attention lets Q, K and V carry distinct head counts and head
dimensions.  ``AttentionConfig`` holds every such knob, ``ModelConfig`` wraps
it with the decoder-stack dimensions, and ``validate_config`` is the single
gate every downstream module relies on.  Config values are immutable and can
be shared freely across threads once validated.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import (
    ConfigError,
    ConfigFileError,
    DimensionError,
    DivisibilityError,
)


@dataclass(frozen=True)
class AttentionConfig:
    """Head counts, head dimensions and augmentation sizes of one attention layer.

    ``d_head`` is the dimension Q is attended in and the dimension of V heads;
    ``d_k_head`` is the dimension K is stored and cached in.  When
    ``d_k_head < d_head`` (half-K mode) a linear expansion layer maps cached K
    vectors up to ``d_head``; attention applies it to the query instead
    (``q @ w_k_expand.T``), so the cache is scored without being expanded.
    ``aug_q_dim`` is the total intermediate dimension of the gated augmented-Q
    block; 0 disables it.
    """

    n_q_heads: int
    n_k_heads: int
    n_v_heads: int
    d_head: int
    d_k_head: int | None = None
    aug_q_dim: int = 0
    softmax_scale_dim: int | None = None
    rope_theta: float = 50_000.0

    def __post_init__(self):
        if self.d_k_head is None:
            object.__setattr__(self, "d_k_head", self.d_head)
        if self.softmax_scale_dim is None:
            # Logits are formed after K expansion, so the natural scale is the
            # dimension the dot product actually runs in.
            object.__setattr__(self, "softmax_scale_dim", self.d_head)

    @property
    def half_k(self) -> bool:
        return self.d_k_head < self.d_head

    @property
    def has_aug_q(self) -> bool:
        return self.aug_q_dim > 0

    @property
    def cache_bracket(self) -> int:
        """Cache elements per (batch row, position): n_k*d_k + n_v*d_v."""
        return self.n_k_heads * self.d_k_head + self.n_v_heads * self.d_head


# A validated config is an AttentionConfig that passed validate_config();
# downstream modules accept only configs that went through the gate.
ValidatedConfig = AttentionConfig


@dataclass(frozen=True)
class ModelConfig:
    """Decoder-stack dimensions around one attention configuration."""

    attention: AttentionConfig
    n_layers: int
    d_model: int
    d_ffn: int
    vocab_size: int
    max_seq_len: int


_POSITIVE_ATTN_FIELDS = (
    "n_q_heads",
    "n_k_heads",
    "n_v_heads",
    "d_head",
    "d_k_head",
    "softmax_scale_dim",
)
_POSITIVE_MODEL_FIELDS = ("n_layers", "d_model", "d_ffn", "vocab_size", "max_seq_len")


def validate_config(
    cfg: AttentionConfig, model: ModelConfig | None = None
) -> ValidatedConfig:
    """Check every structural invariant and return the config untouched.

    Raises:
        ConfigError: a field that must be positive is not, or aug_q_dim < 0.
        DivisibilityError: n_q_heads is not an exact multiple of n_k_heads
            and n_v_heads (required by grouped K/V addressing).
        DimensionError: d_k_head > d_head, or (with a model config)
            n_q_heads * d_head != d_model.
    """
    for name in _POSITIVE_ATTN_FIELDS:
        value = getattr(cfg, name)
        if not isinstance(value, int) or value <= 0:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    if not isinstance(cfg.aug_q_dim, int) or cfg.aug_q_dim < 0:
        raise ConfigError(f"aug_q_dim must be a non-negative integer, got {cfg.aug_q_dim!r}")
    if not cfg.rope_theta > 0:
        raise ConfigError(f"rope_theta must be positive, got {cfg.rope_theta!r}")

    if cfg.n_q_heads % cfg.n_k_heads != 0:
        raise DivisibilityError(
            f"n_q_heads={cfg.n_q_heads} is not a multiple of n_k_heads={cfg.n_k_heads}"
        )
    if cfg.n_q_heads % cfg.n_v_heads != 0:
        raise DivisibilityError(
            f"n_q_heads={cfg.n_q_heads} is not a multiple of n_v_heads={cfg.n_v_heads}"
        )
    if cfg.d_k_head > cfg.d_head:
        raise DimensionError(
            f"d_k_head={cfg.d_k_head} must not exceed d_head={cfg.d_head}"
        )

    if model is not None:
        for name in _POSITIVE_MODEL_FIELDS:
            value = getattr(model, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if cfg.n_q_heads * cfg.d_head != model.d_model:
            raise DimensionError(
                f"n_q_heads * d_head = {cfg.n_q_heads * cfg.d_head} "
                f"must equal d_model = {model.d_model}"
            )
    return cfg


def validate_model_config(model: ModelConfig) -> ModelConfig:
    validate_config(model.attention, model)
    return model


def _preset(
    heads: tuple[int, int, int],
    d_head: int = 64,
    d_k_head: int | None = None,
    aug_q_dim: int = 0,
    rope_theta: float = 50_000.0,
    n_layers: int = 22,
    d_model: int = 2048,
    d_ffn: int = 5632,
    vocab_size: int = 128_256,
    max_seq_len: int = 4096,
) -> ModelConfig:
    attn = AttentionConfig(*heads, d_head, d_k_head, aug_q_dim, rope_theta=rope_theta)
    return ModelConfig(attn, n_layers, d_model, d_ffn, vocab_size, max_seq_len)


# Named configurations.  The four head-count baselines use the 22-layer /
# 2048-hidden ablation scale; the two production scales carry their published
# hyperparameters (26/2048/6144/augq-3072 and 32/4096/14336/augq-6144).
PRESETS: dict[str, ModelConfig] = {
    "mha-32": _preset((32, 32, 32)),
    "gqa-16": _preset((32, 16, 16)),
    "gqa-4": _preset((32, 4, 4)),
    "mqa": _preset((32, 1, 1)),
    "sigma-1.5b": _preset(
        (32, 4, 16), aug_q_dim=3072, n_layers=26, d_ffn=6144
    ),
    "sigma-10b": _preset(
        (32, 4, 16),
        d_head=128,
        aug_q_dim=6144,
        rope_theta=500_000.0,
        n_layers=32,
        d_model=4096,
        d_ffn=14_336,
    ),
}

# Same head patterns shrunk to desk scale: d_head 4, d_model 32, 2 layers,
# vocab 64.  Used by fast tests and as the train-toy default.
_TOY_HEADS = {
    "mha-32": (8, 8, 8),
    "gqa-16": (8, 4, 4),
    "gqa-4": (8, 2, 2),
    "mqa": (8, 1, 1),
    "sigma-1.5b": (8, 2, 4),
    "sigma-10b": (8, 2, 4),
}


def preset(name: str) -> ModelConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigFileError(
            f"unknown preset {name!r}; known presets: {', '.join(sorted(PRESETS))}"
        ) from None


def toy_preset(name: str, half_k: bool = False) -> ModelConfig:
    """Desk-scale variant of a named preset, preserving its head pattern."""
    if name not in _TOY_HEADS:
        raise ConfigFileError(f"unknown preset {name!r}")
    full = PRESETS[name].attention
    attn = AttentionConfig(
        *_TOY_HEADS[name],
        d_head=4,
        d_k_head=2 if half_k else None,
        aug_q_dim=48 if full.has_aug_q else 0,
        rope_theta=full.rope_theta,
    )
    return ModelConfig(
        attention=attn, n_layers=2, d_model=32, d_ffn=96, vocab_size=64, max_seq_len=512
    )


# ---------------------------------------------------------------------------
# Plain-text config files: one `key = value` per line, `#` comments, keys are
# the field names prefixed with their section (`attention.n_q_heads`,
# `model.d_model`).  Unknown keys are an error.
# ---------------------------------------------------------------------------

_ATTN_INT_KEYS = {
    "n_q_heads",
    "n_k_heads",
    "n_v_heads",
    "d_head",
    "d_k_head",
    "aug_q_dim",
    "softmax_scale_dim",
}
_ATTN_REQUIRED = {"n_q_heads", "n_k_heads", "n_v_heads", "d_head"}
_MODEL_KEYS = set(_POSITIVE_MODEL_FIELDS)


def parse_config_text(text: str) -> AttentionConfig | ModelConfig:
    """Parse config-file text; returns a ModelConfig when a model block is present.

    The returned config has been validated.
    """
    attn_kwargs: dict[str, int | float] = {}
    model_kwargs: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("attention."):
            field = key[len("attention.") :]
            if field == "rope_theta":
                attn_kwargs[field] = _parse_number(value, lineno, allow_float=True)
            elif field in _ATTN_INT_KEYS:
                attn_kwargs[field] = _parse_number(value, lineno)
            else:
                raise ConfigFileError(f"line {lineno}: unknown key {key!r}")
        elif key.startswith("model."):
            field = key[len("model.") :]
            if field not in _MODEL_KEYS:
                raise ConfigFileError(f"line {lineno}: unknown key {key!r}")
            model_kwargs[field] = _parse_number(value, lineno)
        else:
            raise ConfigFileError(f"line {lineno}: unknown key {key!r}")

    missing = _ATTN_REQUIRED - attn_kwargs.keys()
    if missing:
        raise ConfigFileError(f"missing required keys: {sorted('attention.' + m for m in missing)}")
    attn = AttentionConfig(**attn_kwargs)

    if not model_kwargs:
        return validate_config(attn)
    missing = _MODEL_KEYS - model_kwargs.keys()
    if missing:
        raise ConfigFileError(f"missing required keys: {sorted('model.' + m for m in missing)}")
    model = ModelConfig(attention=attn, **model_kwargs)
    return validate_model_config(model)


def _parse_number(value: str, lineno: int, allow_float: bool = False):
    try:
        if allow_float:
            return float(value)
        return int(value)
    except ValueError:
        kind = "number" if allow_float else "integer"
        raise ConfigFileError(f"line {lineno}: expected {kind}, got {value!r}") from None


def format_config_text(cfg: AttentionConfig | ModelConfig) -> str:
    """Render a config in the plain-text file format (round-trips with parse)."""
    if isinstance(cfg, ModelConfig):
        attn, model = cfg.attention, cfg
    else:
        attn, model = cfg, None
    lines = [
        f"attention.{f.name} = {getattr(attn, f.name)}" for f in fields(AttentionConfig)
    ]
    if model is not None:
        lines += [f"model.{name} = {getattr(model, name)}" for name in _POSITIVE_MODEL_FIELDS]
    return "\n".join(lines) + "\n"


def load_config_file(path: str | os.PathLike) -> AttentionConfig | ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def resolve_config(spec: str) -> AttentionConfig | ModelConfig:
    """Resolve a CLI config argument: a preset name, else a config file path."""
    if spec in PRESETS:
        return validate_model_config(PRESETS[spec])
    if os.path.exists(spec):
        return load_config_file(spec)
    raise ConfigFileError(f"{spec!r} is neither a known preset nor a config file")


def attention_of(cfg: AttentionConfig | ModelConfig) -> AttentionConfig:
    return cfg.attention if isinstance(cfg, ModelConfig) else cfg
