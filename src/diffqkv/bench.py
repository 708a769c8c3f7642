"""Wall-clock micro-benchmarks over prefix/output grids.

For every grid cell (prefix P, output N) and config the harness times one
representative decode step at the cell's final sequence length s = P + N,
and counts the elements it moves:

* ``kv_cache``     — append one position at s, then copy the full K and V
                     views out (a real copy, so the traffic is moved): s + 1
                     positions;
* ``attention``    — one kernel call over the s cached positions, the call a
                     one-token decode step makes;
* ``augmented_q``  — the gated Q block on a single token (configs with
                     aug_q_dim > 0 only), fastest of three back-to-back calls:
                     its three weights.

The steps sit in one table keyed (config, prefix, output, module).  Every
pass samples each step once, in a fresh order drawn from the run's seeded
generator, so no step always follows the same neighbour (whose cache traffic
would land in its samples) and slow drift in machine load lands in the
per-cell dispersion instead of masquerading as a cross-cell effect.  The
first passes (20% of reps, at least one) are warmup and discarded; the
median of the rest is reported with their coefficient of variation.  The
element counts are exact, so ratios between configs can be checked without
trusting the clock.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .attention import AttentionWeights, attention_weight_shapes, augment_q
from .attention import init_attention_weights, scored_query
from .config import AttentionConfig, check_int
from .costmodel import CostGrid, csv_text
from .errors import UsageError
from .kernel import flexhead_attention
from .kvcache import DifferentialKVCache

BENCH_CSV_HEADER = "config,prefix,output,module,elapsed_s,repetitions,dispersion,elements"
_MODULE_ORDER = {"kv_cache": 0, "attention": 1, "augmented_q": 2}


@dataclass(frozen=True)
class BenchRow:
    config_name: str
    prefix: int
    output: int
    module: str  # kv_cache | attention | augmented_q
    elapsed: float  # median seconds
    repetitions: int
    dispersion: float  # coefficient of variation across reps
    elements: int  # exact element traffic of one measured step


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)

    def to_csv(self) -> str:
        ordered = sorted(
            self.rows,
            key=lambda r: (r.prefix, r.output, r.config_name, _MODULE_ORDER[r.module]),
        )
        return csv_text(BENCH_CSV_HEADER, ordered)

    def select(self, **fields) -> list[BenchRow]:
        return [
            r for r in self.rows if all(getattr(r, k) == v for k, v in fields.items())
        ]


def emit_csv(text: str, path) -> None:
    """Write CSV text to ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


class _ConfigFixture:
    """Shared buffers for one config: built once, reused by every cell/pass.

    The cache is pre-filled to the largest cell length; measuring a smaller
    cell rewinds ``len`` so the append in the measured step lands at that
    cell's boundary.  Rewinding is a bench-only trick on a bench-owned cache.
    """

    def __init__(self, name: str, cfg: AttentionConfig, max_s: int, rng: np.random.Generator):
        self.name = name
        self.weights: AttentionWeights = init_attention_weights(cfg, rng)
        self.cache = DifferentialKVCache(cfg, 1, max_s + 1)
        self.k_t = rng.normal(size=(1, 1, cfg.n_k_heads, cfg.d_k_head))
        self.v_t = rng.normal(size=(1, 1, cfg.n_v_heads, cfg.d_head))
        self.cache.append(np.repeat(self.k_t, max_s, axis=1), np.repeat(self.v_t, max_s, axis=1))
        self.k_buf = np.empty((1, max_s + 1, cfg.n_k_heads, cfg.d_k_head))
        self.v_buf = np.empty((1, max_s + 1, cfg.n_v_heads, cfg.d_head))
        self.q = scored_query(rng.normal(size=(1, cfg.n_q_heads, 1, cfg.d_head)), self.weights, cfg)
        self.token = rng.normal(size=(1, cfg.d_model))

    def kv_cache_step(self, s: int) -> float:
        self.cache.len = s
        start = time.perf_counter()
        self.cache.append(self.k_t, self.v_t)
        k_view, v_view = self.cache.view()
        np.copyto(self.k_buf[:, : self.cache.len], k_view)
        np.copyto(self.v_buf[:, : self.cache.len], v_view)
        return time.perf_counter() - start

    def attention_step(self, s: int) -> float:
        self.cache.len = s
        start = time.perf_counter()
        flexhead_attention(self.q, self.cache)
        return time.perf_counter() - start

    def augmented_q_step(self) -> float:
        # One call lasts a few ms, so a scheduler slice lost to another process
        # lands whole in it: a sample is the fastest of three back-to-back calls.
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            augment_q(self.token, self.weights)
            best = min(best, time.perf_counter() - start)
        return best


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return page * pages if page > 0 and pages > 0 else None


def run_bench(
    std_cfg: AttentionConfig, sigma_cfg: AttentionConfig, grid: CostGrid, reps: int = 5, seed: int = 42
) -> BenchReport:
    """Measure both configs over every grid cell, as rows "std" and "sigma"; reps must be >= 3.

    Raises UsageError, before allocating anything, when the two configs'
    caches and copy buffers for the grid's longest cell exceed physical memory.
    """
    check_int("reps", reps, 3, UsageError)
    check_int("seed", seed, 0, UsageError)
    max_s = grid.prefix_lengths[-1] + grid.output_lengths[-1]
    # Each fixture holds its cache and a copy buffer of the same size.
    reserved = sum(2 * (max_s + 1) * cfg.cache_bracket * 8 for cfg in (std_cfg, sigma_cfg))
    memory = _physical_memory()
    if memory is not None and reserved > memory:
        raise UsageError(
            f"the grid's caches need {reserved / 2**30:.1f} GiB at length {max_s}, "
            f"more than this machine's {memory / 2**30:.1f} GiB; lower the lengths"
        )
    rng = np.random.default_rng(seed)
    fixtures = [
        _ConfigFixture("std", std_cfg, max_s, rng),
        _ConfigFixture("sigma", sigma_cfg, max_s, rng),
    ]
    cells = [(p, n) for p in grid.prefix_lengths for n in grid.output_lengths]
    # (config, prefix, output, module) -> (step, elements it moves, its samples)
    steps: dict[tuple, tuple] = {}
    for fix in fixtures:
        cfg = fix.cache.cfg
        shapes = attention_weight_shapes(cfg)
        augq_elements = sum(math.prod(shapes[n]) for n in ("w_q_gate", "w_q_up", "w_q_down") if n in shapes)
        for prefix, output in cells:
            s, cell = prefix + output, (fix.name, prefix, output)
            steps[cell + ("kv_cache",)] = (partial(fix.kv_cache_step, s), (s + 1) * cfg.cache_bracket, [])
            steps[cell + ("attention",)] = (partial(fix.attention_step, s), s * cfg.cache_bracket, [])
            if cfg.has_aug_q:
                steps[cell + ("augmented_q",)] = (fix.augmented_q_step, augq_elements, [])

    keys = list(steps)
    warmup = max(1, reps // 5)
    for _pass in range(warmup + reps):
        for i in rng.permutation(len(keys)):
            step, _, timings = steps[keys[i]]
            timings.append(step())

    report = BenchReport()
    for key, (_, elements, timings) in steps.items():
        arr = np.asarray(timings[warmup:])
        median = float(np.median(arr))
        cv = float(arr.std() / arr.mean()) if arr.mean() > 0 else 0.0
        report.rows.append(BenchRow(*key, median, reps, cv, elements))
    return report


def traffic_ratio(report: BenchReport, module: str):
    """Per-cell sigma/std element-traffic ratios for one module (exact ints)."""
    ratios = []
    for row in report.select(module=module, config_name="sigma"):
        twin = report.select(module=module, config_name="std", prefix=row.prefix, output=row.output)
        if twin:
            ratios.append(row.elements / twin[0].elements)
    return ratios


def augq_prefix_independence(report: BenchReport) -> tuple[float, float, bool]:
    """Spread of sigma's augmented-Q medians across the grid vs observed dispersion.

    Returns (spread, allowance, ok).  The gated Q block runs on a single
    token, so its median elapsed must not vary across cells by more than the
    noise its own samples exhibit: the allowance is three of the largest
    per-cell standard deviations (dispersion * median), floored at 0.5 ms for
    clock resolution.
    """
    rows = report.select(module="augmented_q", config_name="sigma")
    if not rows:
        return 0.0, 0.0, True
    medians = np.array([r.elapsed for r in rows])
    spread = float(medians.max() - medians.min())
    noise = max(r.dispersion * r.elapsed for r in rows)
    allowance = max(3.0 * noise, 5e-4)
    return spread, allowance, spread <= allowance
