"""Architecture knobs for DiffQKV attention and the toy model.

DiffQKV attention lets Q, K and V carry distinct head counts and head
dimensions.  ``AttentionConfig`` holds every such knob and ``ModelConfig``
wraps it with the decoder-stack dimensions.  A config checks itself whenever
it is built, from a file, a preset, ``dataclasses.replace`` or plain code, so
every config object is valid.  Config values are immutable and can be shared
freely across threads.

The two dataclasses are the only place a field is named: the config-file
keys, their value types, which keys are required and which fields are
checked as integers are all derived from ``dataclasses.fields``.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import MISSING, dataclass, fields, replace

from .errors import (
    ConfigError,
    ConfigFileError,
    DimensionError,
    DivisibilityError,
)


def check_int(name: str, value, least: int, error=ConfigError, kind=numbers.Integral) -> None:
    """Raise ``error`` unless ``value`` is a ``kind`` (never a bool) of at least ``least`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, kind) or value < least:
        raise error(f"{name} must be a {'positive' if least else 'non-negative'} integer, got {value!r}")


def _check_int_fields(cfg) -> None:
    """Every int field of a config is a plain int >= 1; aug_q_dim may be 0."""
    for f in fields(cfg):
        if f.type.startswith("int"):
            check_int(f.name, getattr(cfg, f.name), int(f.name != "aug_q_dim"), kind=int)


@dataclass(frozen=True)
class AttentionConfig:
    """Head counts, head dimensions and augmentation sizes of one attention layer.

    ``d_head`` is the dimension Q is attended in and the dimension of V heads;
    ``d_k_head`` is the dimension K is stored and cached in.  When
    ``d_k_head < d_head`` (half-K mode) a linear expansion layer maps cached K
    vectors up to ``d_head``; attention applies it to the query instead
    (``q @ w_k_expand.T``) and scales it by 1/sqrt(d_head) in ``_scored_query``,
    so the cache is scored without being expanded.
    ``aug_q_dim`` is the total intermediate dimension of the gated augmented-Q
    block; 0 disables it.  Construction raises ``ConfigError`` for a
    non-positive integer field (aug_q_dim may be 0) or a rope_theta that is not
    finite and positive, ``DivisibilityError`` unless n_q_heads is a multiple of
    n_k_heads and n_v_heads, and ``DimensionError`` if d_k_head > d_head.
    """

    n_q_heads: int
    n_k_heads: int
    n_v_heads: int
    d_head: int
    d_k_head: int | None = None
    aug_q_dim: int = 0
    rope_theta: float = 50_000.0

    def __post_init__(self):
        if self.d_k_head is None:
            object.__setattr__(self, "d_k_head", self.d_head)
        _check_int_fields(self)
        theta = self.rope_theta
        if isinstance(theta, bool) or not isinstance(theta, numbers.Real) or not 0 < theta < math.inf:
            raise ConfigError(f"rope_theta must be finite and positive, got {theta!r}")
        for name, heads in (("n_k_heads", self.n_k_heads), ("n_v_heads", self.n_v_heads)):
            if self.n_q_heads % heads != 0:
                raise DivisibilityError(f"n_q_heads={self.n_q_heads} is not a multiple of {name}={heads}")
        if self.d_k_head > self.d_head:
            raise DimensionError(f"d_k_head={self.d_k_head} must not exceed d_head={self.d_head}")

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


def check_attention(**configs) -> None:
    """Raise ``ConfigError`` naming the first keyword argument that is not an ``AttentionConfig``."""
    for name, cfg in configs.items():
        if not isinstance(cfg, AttentionConfig):
            raise ConfigError(f"{name} must be an AttentionConfig, got {cfg!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Decoder-stack dimensions around one attention configuration (n_q_heads * d_head == d_model)."""

    attention: AttentionConfig
    n_layers: int
    d_model: int
    d_ffn: int
    vocab_size: int
    max_seq_len: int

    def __post_init__(self):
        check_attention(attention=self.attention)
        _check_int_fields(self)
        attn = self.attention
        if attn.n_q_heads * attn.d_head != self.d_model:
            raise DimensionError(
                f"n_q_heads * d_head = {attn.n_q_heads * attn.d_head} "
                f"must equal d_model = {self.d_model}"
            )


# Every config-file key, `section.field`, with its section and dataclass field.
# ModelConfig.attention is the attention block itself; rope_theta is the one float.
_FILE_KEYS = {
    f"{section}.{f.name}": (section, f)
    for section, cls in (("attention", AttentionConfig), ("model", ModelConfig))
    for f in fields(cls)
    if f.name != "attention"
}


def validate_model_config(model: ModelConfig) -> ModelConfig:
    """Return ``model`` (checked when built); kept only for ``perfbench/workloads.py``."""
    return model


def _ablation(*heads: int, **attention) -> ModelConfig:
    """One head pattern at the 22-layer / 2048-hidden ablation scale (d_head 64)."""
    attn = AttentionConfig(*heads, d_head=64, **attention)
    return ModelConfig(attn, n_layers=22, d_model=2048, d_ffn=5632, vocab_size=128_256, max_seq_len=4096)


# Named configurations.  The four head-count baselines use the ablation scale;
# the two production scales carry their published hyperparameters
# (26/2048/6144/augq-3072 and 32/4096/14336/augq-6144).
PRESETS: dict[str, ModelConfig] = {
    "mha-32": _ablation(32, 32, 32),
    "gqa-16": _ablation(32, 16, 16),
    "gqa-4": _ablation(32, 4, 4),
    "mqa": _ablation(32, 1, 1),
    "sigma-1.5b": replace(_ablation(32, 4, 16, aug_q_dim=3072), n_layers=26, d_ffn=6144),
    "sigma-10b": ModelConfig(
        AttentionConfig(32, 4, 16, d_head=128, aug_q_dim=6144, rope_theta=500_000.0),
        n_layers=32, d_model=4096, d_ffn=14_336, vocab_size=128_256, max_seq_len=4096,
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
# `model.d_model`).  Unknown and repeated keys are an error.
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> AttentionConfig | ModelConfig:
    """Parse config-file text; returns a ModelConfig when a model block is present.

    The returned config is checked as it is built.  The keys without a default are
    required: the attention block's always, the model block's once any
    ``model.`` key is present.
    """
    kwargs: dict[str, dict[str, int | float]] = {"attention": {}, "model": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigFileError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FILE_KEYS:
            raise ConfigFileError(f"line {lineno}: unknown key {key!r}")
        section, field = _FILE_KEYS[key]
        if field.name in kwargs[section]:
            raise ConfigFileError(f"line {lineno}: repeated key {key!r}")
        kind = float if field.type == "float" else int
        try:
            kwargs[section][field.name] = kind(value)
        except ValueError:
            expected = "number" if kind is float else "integer"
            raise ConfigFileError(f"line {lineno}: expected {expected}, got {value!r}") from None

    missing = [
        key
        for key, (section, field) in _FILE_KEYS.items()
        if field.default is MISSING
        and field.name not in kwargs[section]
        and (section == "attention" or kwargs["model"])
    ]
    if missing:
        raise ConfigFileError(f"missing required keys: {missing}")
    attn = AttentionConfig(**kwargs["attention"])
    return ModelConfig(attention=attn, **kwargs["model"]) if kwargs["model"] else attn


def format_config_text(cfg: AttentionConfig | ModelConfig) -> str:
    """Render a config in the plain-text file format (round-trips with parse)."""
    sections = {"attention": attention_of(cfg), "model": cfg}
    lines = [
        f"{key} = {getattr(sections[section], field.name)}"
        for key, (section, field) in _FILE_KEYS.items()
        if isinstance(cfg, ModelConfig) or section == "attention"
    ]
    return "\n".join(lines) + "\n"


def load_config_file(path: str | os.PathLike) -> AttentionConfig | ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def resolve_config(spec: str) -> AttentionConfig | ModelConfig:
    """Resolve a CLI config argument: a preset name, else a config file path."""
    if spec in PRESETS:
        return PRESETS[spec]
    if os.path.exists(spec):
        return load_config_file(spec)
    raise ConfigFileError(f"{spec!r} is neither a known preset nor a config file")


def attention_of(cfg: AttentionConfig | ModelConfig) -> AttentionConfig:
    return cfg.attention if isinstance(cfg, ModelConfig) else cfg
