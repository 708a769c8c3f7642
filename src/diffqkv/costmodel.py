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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import ValidatedConfig
from .errors import ConfigError, DegenerateError


@dataclass(frozen=True)
class CostModelParams:
    """Calibration of the linear cost model.

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
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class CostGrid:
    """Ascending prefix/output length grids plus a batch size."""

    prefix_lengths: tuple[int, ...]
    output_lengths: tuple[int, ...]
    batch: int = 1

    def __post_init__(self):
        for name, values in (
            ("prefix_lengths", self.prefix_lengths),
            ("output_lengths", self.output_lengths),
        ):
            if not values:
                raise ConfigError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError(f"{name} must be strictly ascending, got {values}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")


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


def kv_cache_cost(cfg: ValidatedConfig, b: int, s: int, p: CostModelParams) -> float:
    """alpha * [b * s * (n_k*d_k + n_v*d_v)] + beta."""
    return p.alpha * (b * s * cfg.cache_bracket) + p.beta


def reduction_rate(base: ValidatedConfig, variant: ValidatedConfig) -> Fraction:
    """Asymptotic cache-cost reduction of variant over base, exact.

    r = 1 - bracket(variant) / bracket(base), where bracket = n_k*d_k + n_v*d_v.
    """
    base_bracket = base.cache_bracket
    if base_bracket == 0:
        raise DegenerateError("base config has an empty cache bracket")
    return 1 - Fraction(variant.cache_bracket, base_bracket)


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


def _total_cost(cfg: ValidatedConfig, b: int, prefix: int, output: int, p: CostModelParams) -> float:
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
    std: ValidatedConfig,
    sigma: ValidatedConfig,
    grid: CostGrid,
    p: CostModelParams,
) -> list[CostCurveRow]:
    """Modeled total attention-layer cost of both configs over the grid."""
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
    std: ValidatedConfig,
    sigma: ValidatedConfig,
    output_len: int,
    p: CostModelParams,
    batch: int = 1,
    search_bound: int = 1 << 24,
) -> int | None:
    """Smallest prefix at which sigma's total cost is <= std's, or None.

    The cost difference is monotone in the prefix length, so a bisection over
    [0, search_bound] finds the crossover; None means sigma never catches up
    within the bound.
    """

    def sigma_no_worse(prefix: int) -> bool:
        return _total_cost(sigma, batch, prefix, output_len, p) <= _total_cost(
            std, batch, prefix, output_len, p
        )

    if sigma_no_worse(0):
        return 0
    if not sigma_no_worse(search_bound):
        return None
    lo, hi = 0, search_bound  # sigma_no_worse(lo) is False, (hi) is True
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sigma_no_worse(mid):
            hi = mid
        else:
            lo = mid
    return hi


def fit_cost_params(
    cache_points: list[tuple[int, float]],
    attn_points: list[tuple[int, float]] | None = None,
    augq_times: list[float] | None = None,
) -> CostModelParams:
    """Least-squares calibration against measured timings.

    ``cache_points`` and ``attn_points`` are (element_count, seconds) pairs;
    alpha/beta come from an affine fit of the cache points, attn_alpha from a
    proportional fit of the attention points, and the augmented-Q constant is
    the mean of its per-token timings.
    """
    elements = np.array([e for e, _ in cache_points], dtype=float)
    seconds = np.array([t for _, t in cache_points], dtype=float)
    design = np.stack([elements, np.ones_like(elements)], axis=1)
    (alpha, beta), *_ = np.linalg.lstsq(design, seconds, rcond=None)

    attn_alpha = 1.0
    if attn_points:
        ae = np.array([e for e, _ in attn_points], dtype=float)
        at = np.array([t for _, t in attn_points], dtype=float)
        attn_alpha = float(ae @ at / (ae @ ae))

    augq = float(np.mean(augq_times)) if augq_times else 0.0
    return CostModelParams(
        alpha=float(max(alpha, np.finfo(float).tiny)),
        beta=float(max(beta, 0.0)),
        attn_alpha=attn_alpha,
        augq_cost_per_token=max(augq, 0.0),
    )
