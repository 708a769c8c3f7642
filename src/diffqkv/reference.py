"""Independent attention references for equivalence checking.

Deliberately separate code paths from :mod:`diffqkv.attention`: each scored
query row is computed in one shot against every key, with an explicit causal
mask, no group sharing and no shared softmax helper.  A caller that compares
only some rows asks for those (``rows``); every row is computed as it would be
in the full call.  Used by the kernel, degenerate-mode and grouped-mode
equivalence suites.
"""

from __future__ import annotations

import numpy as np

from .attention import AttentionWeights
from .config import AttentionConfig
from .errors import ConfigError


def _rotary(x: np.ndarray, positions: np.ndarray, theta: float) -> np.ndarray:
    # x: [b, s, h, d]; rotate consecutive pairs by pos * theta^(-2i/d).
    d = x.shape[-1]
    inv_freq = theta ** (-2.0 * np.arange(d // 2) / d)
    ang = positions[:, None] * inv_freq[None, :]
    cos = np.cos(ang)[None, :, None, :]
    sin = np.sin(ang)[None, :, None, :]
    out = np.empty_like(x)
    out[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
    out[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
    return out


def _one_shot_causal(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale_dim: int, rows: list[int] | None = None
) -> np.ndarray:
    # q, k, v: [b, s, h, d] at one head count; per head, the causal softmax of the
    # query rows (all s by default) over all s keys -> [b, len(rows), h*d].
    rows = slice(None) if rows is None else rows
    causal = np.tril(np.ones((v.shape[1], v.shape[1]), dtype=bool))[rows]
    q = q[:, rows]
    out = np.empty((*q.shape[:3], v.shape[3]))
    for i in range(v.shape[2]):  # one head's [b, rows, s] scores at a time
        scores = (q[:, :, i] / np.sqrt(float(scale_dim))) @ k[:, :, i].transpose(0, 2, 1)
        scores -= scores.max(axis=-1, keepdims=True, where=causal, initial=-np.inf)
        weights = np.exp(scores, out=np.zeros_like(scores), where=causal)
        out[:, :, i] = weights @ v[:, :, i] / weights.sum(axis=-1, keepdims=True)
    return out.reshape(*q.shape[:2], -1)


def vanilla_mha_attention(
    x: np.ndarray, w: AttentionWeights, cfg: AttentionConfig
) -> np.ndarray:
    """Plain multi-head attention; ``ConfigError`` unless n_q = n_k = n_v, d_k = d_head and no AugQ."""
    if not cfg.n_q_heads == cfg.n_k_heads == cfg.n_v_heads:
        raise ConfigError(f"vanilla MHA needs equal head counts, got {cfg}")
    if cfg.half_k or cfg.has_aug_q:
        raise ConfigError(f"vanilla MHA needs d_k_head == d_head and no augmented Q, got {cfg}")
    b, s, _ = x.shape
    h, d = cfg.n_q_heads, cfg.d_head
    positions = np.arange(s)
    q = _rotary((x @ w.w_q).reshape(b, s, h, d), positions, cfg.rope_theta)
    k = _rotary((x @ w.w_k).reshape(b, s, h, d), positions, cfg.rope_theta)
    v = (x @ w.w_v).reshape(b, s, h, d)
    return _one_shot_causal(q, k, v, cfg.d_head) @ w.w_o


def grouped_attention_by_duplication(
    x: np.ndarray, w: AttentionWeights, cfg: AttentionConfig, rows: list[int] | None = None
) -> np.ndarray:
    """Grouped/differential attention via explicit head duplication.

    Projects at native head counts, duplicates K and V heads up to n_q with
    np.repeat, then runs the one-shot masked-softmax path above.  Handles
    augmented Q and half-K configurations too.  ``rows`` (query positions,
    default all) picks the output rows: ``[b, len(rows), d_model]``, each
    equal to that row of the full result.
    """
    b, s, _ = x.shape
    n_q, d = cfg.n_q_heads, cfg.d_head
    positions = np.arange(s)

    q_flat = x @ w.w_q
    if cfg.has_aug_q:
        gate = q_flat @ w.w_q_gate
        q_flat = ((gate / (1.0 + np.exp(-gate))) * (q_flat @ w.w_q_up)) @ w.w_q_down
    q = _rotary(q_flat.reshape(b, s, n_q, d), positions, cfg.rope_theta)
    k = _rotary(
        (x @ w.w_k).reshape(b, s, cfg.n_k_heads, cfg.d_k_head), positions, cfg.rope_theta
    )
    if cfg.half_k:
        k = k @ w.w_k_expand
    v = (x @ w.w_v).reshape(b, s, cfg.n_v_heads, d)

    k = np.repeat(k, n_q // cfg.n_k_heads, axis=2)
    v = np.repeat(v, n_q // cfg.n_v_heads, axis=2)
    return _one_shot_causal(q, k, v, cfg.d_head, rows) @ w.w_o
