"""Analytic inference-cost model for differential KV caches.

Cache traffic for a sequence of length ``s`` is modeled as the linear
function ``alpha * (b * s * (n_k*d_k + n_v*d_v)) + beta``: a proportional
cost per stored element plus a fixed overhead.  Attention computation shares
the same element bracket with its own coefficient, and the augmented-Q block
contributes a constant cost per generated token.  Reduction rates between two
configs are computed in exact rational arithmetic (the s -> infinity limit
eliminates beta); floating point appears only in cost curves.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple, dataclass, fields
from fractions import Fraction

import numpy as np

from .config import AttentionConfig, check_attention, check_int
from .errors import ConfigError


@dataclass(frozen=True)
class CostModelParams:
    """Calibration of the linear cost model.

    All four must be finite and non-negative.
    alpha: cache cost per element (must be positive).
    beta: fixed overhead, charged once per (prefix, output) cell.
    attn_alpha: attention-computation cost per element of the same bracket.
    augq_cost_per_token: constant cost of the gated Q block per generated token.
    """

    alpha: float = 1.0
    beta: float = 0.0
    attn_alpha: float = 1.0
    augq_cost_per_token: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value < math.inf:
                raise ConfigError(f"{field.name} must be finite and non-negative, got {value}")
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class CostGrid:
    """Ascending prefix/output length grids plus a batch size.

    Prefixes may be 0 (no prompt); every cell generates at least one token.
    """

    prefix_lengths: tuple[int, ...]
    output_lengths: tuple[int, ...]
    batch: int = 1

    def __post_init__(self):
        for name, values, least in (
            ("prefix_lengths", self.prefix_lengths, 0),
            ("output_lengths", self.output_lengths, 1),
        ):
            if not isinstance(values, tuple) or not values:
                raise ConfigError(f"{name} must be a non-empty tuple, got {values!r}")
            for value in values:
                check_int(name, value, least)
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError(f"{name} must be strictly ascending, got {values}")
        check_int("batch", self.batch, 1)


#: Desk-scale default grid; runs in seconds.
SCALED_GRID = CostGrid(
    prefix_lengths=(128, 256, 512, 1024, 2048, 4096),
    output_lengths=(128, 256, 512, 1024, 2048, 4096),
)

#: The long-context measurement grid: prefixes [0, 2k, 4k, 16k, 32k, 64k],
#: outputs [2k, 4k, 8k, 16k, 32k, 64k].
LONG_CONTEXT_GRID = CostGrid(
    prefix_lengths=(0, 2048, 4096, 16_384, 32_768, 65_536),
    output_lengths=(2048, 4096, 8192, 16_384, 32_768, 65_536),
)


def kv_cache_cost(cfg: AttentionConfig, b: int, s: int, p: CostModelParams) -> float:
    """alpha * [b * s * (n_k*d_k + n_v*d_v)] + beta."""
    check_attention(cfg=cfg)
    return p.alpha * (b * s * cfg.cache_bracket) + p.beta


def reduction_rate(base: AttentionConfig, variant: AttentionConfig) -> Fraction:
    """Asymptotic cache-cost reduction of variant over base, exact.

    r = 1 - bracket(variant) / bracket(base), where bracket = n_k*d_k + n_v*d_v.
    """
    check_attention(base=base, variant=variant)
    return 1 - Fraction(variant.cache_bracket, base.cache_bracket)


def format_rate(rate: Fraction) -> str:
    """Render a rate as an exact fraction and a 4-decimal percentage."""
    return f"{rate.numerator}/{rate.denominator} ({float(rate) * 100:.4f}%)"


@dataclass(frozen=True)
class CostCurveRow:
    prefix: int
    output: int
    cost_std: float
    cost_sigma: float
    abs_improvement: float
    rel_improvement: float


COST_CSV_HEADER = "prefix,output,cost_std,cost_sigma,abs_improvement,rel_improvement"


def _total_cost(cfg: AttentionConfig, b: int, prefix: int, output: int, p: CostModelParams) -> float:
    # Sum over generated steps t = 1..N of the per-step cache and attention
    # costs at sequence length P + t; beta amortized once per cell; the gated
    # Q block adds a constant per generated token when the config carries it.
    step_sum = output * prefix + output * (output + 1) // 2  # sum of (P + t)
    per_element = (p.alpha + p.attn_alpha) * b * cfg.cache_bracket
    total = p.beta + per_element * step_sum
    if cfg.has_aug_q:
        total += p.augq_cost_per_token * output
    return total


def total_cost_curve(
    std: AttentionConfig,
    sigma: AttentionConfig,
    grid: CostGrid,
    p: CostModelParams,
) -> list[CostCurveRow]:
    """Modeled total attention-layer cost of both configs over the grid."""
    check_attention(std=std, sigma=sigma)
    rows = []
    for prefix in grid.prefix_lengths:
        for output in grid.output_lengths:
            cost_std = _total_cost(std, grid.batch, prefix, output, p)
            cost_sigma = _total_cost(sigma, grid.batch, prefix, output, p)
            rows.append(
                CostCurveRow(
                    prefix=prefix,
                    output=output,
                    cost_std=cost_std,
                    cost_sigma=cost_sigma,
                    abs_improvement=cost_std - cost_sigma,
                    rel_improvement=(cost_std - cost_sigma) / cost_std,
                )
            )
    return rows


def cost_table_csv(rows: list[CostCurveRow]) -> str:
    lines = [COST_CSV_HEADER]
    for r in sorted(rows, key=lambda r: (r.prefix, r.output)):
        lines.append(
            f"{r.prefix},{r.output},{r.cost_std!r},{r.cost_sigma!r},"
            f"{r.abs_improvement!r},{r.rel_improvement!r}"
        )
    return "\n".join(lines) + "\n"


def crossover_prefix(
    std: AttentionConfig, sigma: AttentionConfig, output_len: int, p: CostModelParams, batch: int = 1
) -> int | None:
    """Smallest prefix at which sigma's total cost is <= std's, or None if it never is.

    Sigma's extra ``_total_cost`` is affine in the prefix P, a*P + c: it is evaluated
    at P = 0 and 1 in rationals, which represent the float parameters exactly.
    """
    check_attention(std=std, sigma=sigma)
    check_int("output_len", output_len, 1)
    check_int("batch", batch, 1)
    exact = CostModelParams(*map(Fraction, astuple(p)))

    def gap(prefix: int) -> Fraction:
        sigma_cost = _total_cost(sigma, batch, prefix, output_len, exact)
        return sigma_cost - _total_cost(std, batch, prefix, output_len, exact)

    c = gap(0)
    a = gap(1) - c
    if c <= 0:
        return 0
    if a >= 0:
        return None
    return math.ceil(-c / a)


def fit_cost_params(cache_points: list[tuple[int, float]]) -> CostModelParams:
    """Least-squares calibration of alpha and beta against measured cache timings.

    ``cache_points`` are (element_count, seconds) pairs; alpha and beta come
    from an affine fit of them, and the other parameters keep their defaults.
    """
    elements = np.array([e for e, _ in cache_points], dtype=float)
    seconds = np.array([t for _, t in cache_points], dtype=float)
    design = np.stack([elements, np.ones_like(elements)], axis=1)
    (alpha, beta), *_ = np.linalg.lstsq(design, seconds, rcond=None)
    return CostModelParams(alpha=float(max(alpha, np.finfo(float).tiny)), beta=float(max(beta, 0.0)))
