"""Independent brute-force references used only by the tests.

These implementations share no attention code with the package: softmax,
rotary embedding, head grouping and weighted sums are spelled out with
elementary loops (or separately written einsums) so they can serve as
oracles for the vectorized paths.
"""

import math

import numpy as np

RMS_EPS = 1e-6  # must match the package's RMS normalization epsilon


def brute_force_diffqkv(x, w, cfg):
    """Positionwise/headwise loop evaluation of causal DiffQKV attention."""
    b, s, d_model = x.shape
    n_q, n_k, n_v = cfg.n_q_heads, cfg.n_k_heads, cfg.n_v_heads
    d_head, d_k = cfg.d_head, cfg.d_k_head

    def rotate(vec, pos):
        out = np.empty_like(vec)
        d = len(vec)
        for i in range(d // 2):
            angle = pos * cfg.rope_theta ** (-2.0 * i / d)
            c, si = math.cos(angle), math.sin(angle)
            out[2 * i] = vec[2 * i] * c - vec[2 * i + 1] * si
            out[2 * i + 1] = vec[2 * i] * si + vec[2 * i + 1] * c
        return out

    out = np.zeros((b, s, w.w_o.shape[1]))
    for bi in range(b):
        q_flat = x[bi] @ w.w_q
        if cfg.aug_q_dim > 0:
            gate = q_flat @ w.w_q_gate
            q_flat = ((gate / (1 + np.exp(-gate))) * (q_flat @ w.w_q_up)) @ w.w_q_down
        k_flat = x[bi] @ w.w_k
        v_flat = x[bi] @ w.w_v
        for t in range(s):
            per_head = []
            for h in range(n_q):
                q_vec = rotate(q_flat[t, h * d_head : (h + 1) * d_head], t)
                kh = (h * n_k) // n_q
                vh = (h * n_v) // n_q
                logits = []
                for j in range(t + 1):
                    k_vec = rotate(k_flat[j, kh * d_k : (kh + 1) * d_k], j)
                    if cfg.d_k_head < cfg.d_head:
                        k_vec = k_vec @ w.w_k_expand
                    logits.append(
                        sum(q_vec[m] * k_vec[m] for m in range(d_head))
                        / math.sqrt(d_head)
                    )
                peak = max(logits)
                weights = [math.exp(l - peak) for l in logits]
                z = sum(weights)
                o_vec = np.zeros(d_head)
                for j in range(t + 1):
                    o_vec += (weights[j] / z) * v_flat[j, vh * d_head : (vh + 1) * d_head]
                per_head.append(o_vec)
            out[bi, t] = np.concatenate(per_head) @ w.w_o
    return out


def vanilla_decoder_forward(model, tokens):
    """Self-contained MHA decoder stack (RMS pre-norm, SwiGLU FFN, rotary)."""
    cfg = model.config
    acfg = cfg.attention
    h_count, d = acfg.n_q_heads, acfg.d_head
    tokens = np.asarray(tokens)
    b, s = tokens.shape

    def rms(v, scale):
        return v / np.sqrt((v**2).mean(axis=-1, keepdims=True) + RMS_EPS) * scale

    def rotary(t):
        inv = acfg.rope_theta ** (-2.0 * np.arange(d // 2) / d)
        ang = np.arange(s)[:, None] * inv[None, :]
        c, si = np.cos(ang)[None, :, None, :], np.sin(ang)[None, :, None, :]
        out = np.empty_like(t)
        out[..., 0::2] = t[..., 0::2] * c - t[..., 1::2] * si
        out[..., 1::2] = t[..., 0::2] * si + t[..., 1::2] * c
        return out

    x = model.embedding[tokens]
    mask = np.triu(np.full((s, s), -np.inf), k=1)
    for blk in model.blocks:
        hid = rms(x, blk.norm_attn)
        q = rotary((hid @ blk.attn.w_q).reshape(b, s, h_count, d))
        k = rotary((hid @ blk.attn.w_k).reshape(b, s, h_count, d))
        v = (hid @ blk.attn.w_v).reshape(b, s, h_count, d)
        scores = np.einsum("bihd,bjhd->bhij", q, k) / math.sqrt(d)
        scores = scores + mask
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=-1, keepdims=True)
        ctx = np.einsum("bhij,bjhd->bihd", weights, v).reshape(b, s, h_count * d)
        x = x + ctx @ blk.attn.w_o
        hid = rms(x, blk.norm_ffn)
        gate = hid @ blk.w_ffn_gate
        x = x + ((gate / (1 + np.exp(-gate))) * (hid @ blk.w_ffn_up)) @ blk.w_ffn_down
    return rms(x, model.norm_final) @ model.head
