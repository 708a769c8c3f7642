"""Wall-clock micro-benchmarks over prefix/output grids.

For every grid cell (prefix P, output N) and config the harness measures one
representative decode step at the cell's final sequence length s = P + N:

* ``kv_cache``     — append one position, then load the full K and V stores
                     (a real copy, so the traffic is actually moved);
* ``attention``    — one chunked attention step over the cache;
* ``augmented_q``  — the gated Q block on a single token (configs with
                     aug_q_dim > 0 only), fastest of three back-to-back calls.

Sampling is organized in passes: every pass walks the whole grid strictly
sequentially and takes one timing sample per (cell, config, module).  Because
each cell's samples are spread across the full run, slow drift in machine
load lands in the per-cell dispersion instead of masquerading as a
cross-cell effect.  The first passes (20% of reps, at least one) are warmup
and discarded; the median of the remaining samples is reported together with
their coefficient of variation.  Exact element-traffic counts ride along with
every row, so ratios between configs can be checked without trusting the
clock.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionWeights, augment_q, init_attention_weights
from .config import AttentionConfig, check_int
from .costmodel import CostGrid
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

    def csv_row(self) -> str:
        return (
            f"{self.config_name},{self.prefix},{self.output},{self.module},"
            f"{self.elapsed!r},{self.repetitions},{self.dispersion!r},{self.elements}"
        )


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)

    def to_csv(self) -> str:
        ordered = sorted(
            self.rows,
            key=lambda r: (r.prefix, r.output, r.config_name, _MODULE_ORDER[r.module]),
        )
        return "\n".join([BENCH_CSV_HEADER] + [r.csv_row() for r in ordered]) + "\n"

    def select(self, **fields) -> list[BenchRow]:
        return [
            r for r in self.rows if all(getattr(r, k) == v for k, v in fields.items())
        ]


def emit_csv(report, path) -> None:
    """Write a report (anything with .to_csv(), or raw CSV text) to ``path``."""
    text = report if isinstance(report, str) else report.to_csv()
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
        k_t = rng.normal(size=(1, 1, cfg.n_k_heads, cfg.d_k_head))
        v_t = rng.normal(size=(1, 1, cfg.n_v_heads, cfg.d_head))
        self.k_t, self.v_t = k_t, v_t
        self.cache.append(np.repeat(k_t, max_s, axis=1), np.repeat(v_t, max_s, axis=1))
        self.k_buf = np.empty_like(self.cache._k)
        self.v_buf = np.empty_like(self.cache._v)
        self.q = rng.normal(size=(1, cfg.n_q_heads, cfg.d_head))
        self.token = rng.normal(size=(1, cfg.n_q_heads * cfg.d_head))

    def kv_cache_step(self, s: int) -> float:
        self.cache.len = s
        start = time.perf_counter()
        self.cache.append(self.k_t, self.v_t)
        k_view, v_view = self.cache.view()
        np.copyto(self.k_buf[:, : self.cache.len], k_view)
        np.copyto(self.v_buf[:, : self.cache.len], v_view)
        return time.perf_counter() - start

    def attention_step(self, s: int, chunk_size: int = 256) -> float:
        self.cache.len = s
        start = time.perf_counter()
        flexhead_attention(self.q, self.cache, chunk_size, self.weights)
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
    check_int("reps", reps, 1, UsageError)
    check_int("seed", seed, 0, UsageError)
    if reps < 3:
        raise UsageError(f"reps must be >= 3, got {reps}")
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

    warmup = max(1, reps // 5)
    samples: dict[tuple, list[float]] = {}
    for pass_index in range(warmup + reps):
        keep = pass_index >= warmup
        for prefix, output in cells:
            s = prefix + output
            for fix in fixtures:
                measured = {
                    "kv_cache": fix.kv_cache_step(s),
                    "attention": fix.attention_step(s),
                }
                if fix.cache.cfg.has_aug_q:
                    measured["augmented_q"] = fix.augmented_q_step()
                if keep:
                    for module, seconds in measured.items():
                        samples.setdefault((fix.name, prefix, output, module), []).append(seconds)

    report = BenchReport()
    for fix in fixtures:
        cfg = fix.cache.cfg
        d_model = cfg.n_q_heads * cfg.d_head
        augq_elements = (
            2 * d_model * cfg.aug_q_dim + cfg.aug_q_dim * cfg.n_q_heads * cfg.d_head
            if cfg.has_aug_q
            else 0
        )
        for prefix, output in cells:
            s = prefix + output
            traffic = s * cfg.cache_bracket
            elements = {"kv_cache": traffic, "attention": traffic, "augmented_q": augq_elements}
            for module in ("kv_cache", "attention", "augmented_q"):
                timings = samples.get((fix.name, prefix, output, module))
                if timings is None:
                    continue
                arr = np.asarray(timings)
                median = float(np.median(arr))
                cv = float(arr.std() / arr.mean()) if arr.mean() > 0 else 0.0
                report.rows.append(
                    BenchRow(fix.name, prefix, output, module, median, reps, cv, elements[module])
                )
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
