"""Property suites behind `diffqkv verify` and the acceptance tests.

Each suite runs a bundle of randomized, seeded checks and reports per-property
instance counts and the maximum observed error.  Suites: ``equivalence``
(kernel simulator vs naive reference, degenerate modes, selective V),
``gradients`` (analytic vs central finite differences: only the first graph
stage that reads a perturbed tensor runs once per perturbation, and the later
stages run once over that tensor's stacked perturbations), ``cache``
(footprint accounting and incremental consistency), ``cost`` (exact reduction
rates and cost-curve structure), and ``all``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# config.check_int is not imported by name: every check_* here is a property the benchmark runs.
from . import autodiff as ad, config, kernel
from .attention import (
    SelectivePolicy,
    apply_rope,
    attention_scores,
    init_attention_weights,
    naive_diffqkv_attention,
    project_qkv,
    select_top_k,
    weighted_value_sum,
)
from .config import AttentionConfig, ModelConfig, PRESETS
from .costmodel import (
    CostGrid,
    CostModelParams,
    LONG_CONTEXT_GRID,
    crossover_prefix,
    format_rate,
    kv_cache_cost,
    reduction_rate,
    total_cost_curve,
)
from .errors import UsageError
from .kvcache import DifferentialKVCache
from .model import as_parameter_tensors, init_model, loss_graph, staged_forward
from .reference import grouped_attention_by_duplication, vanilla_mha_attention

SUITES = ("equivalence", "gradients", "cache", "cost", "all")


@dataclass
class PropertyResult:
    name: str
    instances: int
    max_error: float
    passed: bool
    detail: str = ""

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"[{status}] {self.name:<40s} instances={self.instances:<5d} max_err={self.max_error:.3e}"
        if self.detail:
            line += f"  ({self.detail})"
        return line


@dataclass
class VerifyReport:
    suite: str
    results: list[PropertyResult]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def format(self) -> str:
        lines = [f"suite: {self.suite}"]
        lines += ["  " + r.format() for r in self.results]
        lines.append("result: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


# -- equivalence -------------------------------------------------------------

_EQUIV_CONFIGS = [
    # (label, heads, d_head, d_k_head, aug_q_dim)
    ("mha", (8, 8, 8), 8, None, 0),
    ("mqa", (8, 1, 1), 8, None, 0),
    ("gqa", (8, 4, 4), 8, None, 0),
    ("diffqkv", (8, 2, 4), 8, None, 0),
    ("diffqkv+halfk", (8, 2, 4), 8, 4, 0),
    ("diffqkv+augq", (8, 2, 4), 8, None, 24),
    ("diffqkv+halfk+augq", (8, 2, 4), 8, 4, 24),
]


def check_flexhead_vs_naive(instances: int = 200, seed: int = 42) -> PropertyResult:
    """Chunked kernel attention equals the one-shot head-duplication reference (<= 1e-9)."""
    rng = np.random.default_rng(seed)
    lengths = [1, 2, 3, 7, 16, 33, 64, 257]
    max_err = 0.0
    for i in range(instances):
        label, heads, d_head, d_k_head, aug = _EQUIV_CONFIGS[i % len(_EQUIV_CONFIGS)]
        cfg = AttentionConfig(*heads, d_head, d_k_head, aug)
        t = int(rng.choice(lengths))
        w = init_attention_weights(cfg, rng)
        x = rng.normal(size=(1, t, cfg.n_q_heads * cfg.d_head))
        chunk_sizes = (1, 3, 64, t)
        drawn = [int(rng.integers(0, t)) for _ in chunk_sizes]
        # The reference scores only the positions compared below.
        rows = sorted({t - 1, *drawn})
        expected = dict(zip(rows, grouped_attention_by_duplication(x, w, cfg, rows)[0]))

        q, k, v = project_qkv(x, w, cfg)
        q, k = apply_rope(q, k, np.arange(t), cfg.rope_theta)
        cache = DifferentialKVCache(cfg, 1, t)
        cache.append(k, v)

        for chunk_size, pos_drawn in zip(chunk_sizes, drawn):
            for pos in {t - 1, pos_drawn}:
                heads_out = kernel.flexhead_attention(q[:, pos], cache, chunk_size, w, causal_limit=pos + 1)
                got = heads_out.reshape(1, -1) @ w.w_o
                err = float(np.max(np.abs(got[0] - expected[pos])))
                max_err = max(max_err, err)
    return PropertyResult(
        "flexhead_attention == naive reference", instances, max_err, max_err <= 1e-9
    )


def check_degenerate_mha(instances: int = 50, seed: int = 7) -> PropertyResult:
    """DiffQKV with equal heads, no AugQ, full K dim == vanilla MHA (<= 1e-12)."""
    rng = np.random.default_rng(seed)
    cfg = AttentionConfig(4, 4, 4, 8)
    max_err = 0.0
    for _ in range(instances):
        w = init_attention_weights(cfg, rng)
        x = rng.normal(size=(2, int(rng.integers(1, 9)), 32))
        err = float(
            np.max(np.abs(naive_diffqkv_attention(x, w, cfg) - vanilla_mha_attention(x, w, cfg)))
        )
        max_err = max(max_err, err)
    return PropertyResult("degenerate MHA equivalence", instances, max_err, max_err <= 1e-12)


def check_grouped_duplication(instances: int = 50, seed: int = 11) -> PropertyResult:
    """Grouped attention equals a reference built by explicit head duplication."""
    rng = np.random.default_rng(seed)
    max_err = 0.0
    for i in range(instances):
        label, heads, d_head, d_k_head, aug = _EQUIV_CONFIGS[i % len(_EQUIV_CONFIGS)]
        cfg = AttentionConfig(*heads, d_head, d_k_head, aug)
        w = init_attention_weights(cfg, rng)
        x = rng.normal(size=(1, int(rng.integers(1, 12)), cfg.n_q_heads * cfg.d_head))
        err = float(
            np.max(
                np.abs(
                    naive_diffqkv_attention(x, w, cfg)
                    - grouped_attention_by_duplication(x, w, cfg)
                )
            )
        )
        max_err = max(max_err, err)
    return PropertyResult("grouped-attention duplication equivalence", instances, max_err, max_err <= 1e-12)


def check_selective_v(instances: int = 100, seed: int = 13) -> PropertyResult:
    """k_top >= t is bit-identical; k_top < t obeys the dropped-mass bound."""
    name = "selective-V exactness and error bound"
    rng = np.random.default_rng(seed)
    max_excess = 0.0
    for i in range(instances):
        b, n_q, t, d = 1, 4, int(rng.integers(2, 30)), 6
        v_shared = rng.normal(size=(b, t, n_q, d))
        logits = rng.normal(size=(b, n_q, t))
        alpha = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        exact = weighted_value_sum(alpha, v_shared)

        full = select_top_k(alpha, SelectivePolicy(k_top=t + 1))
        if full is not alpha:
            return PropertyResult(name, i + 1, np.inf, False, "k>=t not identity")

        k_top = int(rng.integers(1, t))
        kept = select_top_k(alpha, SelectivePolicy(k_top=k_top))
        approx = weighted_value_sum(kept, v_shared)
        # Per head: |exact - approx|_inf <= (dropped mass) * max |V row|_inf.
        for h in range(n_q):
            dropped = alpha[0, h] * (kept[0, h] == 0)
            if not np.any(dropped):
                continue
            bound = dropped.sum() * np.max(np.abs(v_shared[0, dropped > 0, h, :]))
            observed = np.max(np.abs(exact[0, h] - approx[0, h]))
            max_excess = max(max_excess, float(observed - bound))
    return PropertyResult(name, instances, max(max_excess, 0.0), max_excess <= 1e-12)


def equivalence_suite(instances: int = 200) -> list[PropertyResult]:
    return [
        check_flexhead_vs_naive(instances),
        check_degenerate_mha(),
        check_grouped_duplication(),
        check_selective_v(),
    ]


# -- gradients ---------------------------------------------------------------

GRADCHECK_SAMPLES = 4  # elements perturbed per tensor
GRADCHECK_VARIANTS = {
    "mha": ((4, 4, 4), None, 0),
    "gqa-4": ((8, 2, 2), None, 0),
    "diffqkv": ((8, 2, 4), None, 0),
    "diffqkv+augq": ((8, 2, 4), None, 24),
    "diffqkv+halfk": ((8, 2, 4), 2, 0),
}


def _gradcheck_model_config(heads, d_k_head, aug) -> ModelConfig:
    attn = AttentionConfig(*heads, d_head=4, d_k_head=d_k_head, aug_q_dim=aug)
    return ModelConfig(
        attention=attn, n_layers=2, d_model=heads[0] * 4, d_ffn=24, vocab_size=16, max_seq_len=64
    )


def gradient_check(
    cfg: ModelConfig, seed: int = 0, samples_per_tensor: int = GRADCHECK_SAMPLES
) -> dict[str, float]:
    """Analytic gradients vs 1e-5 central differences of the loss on 2 seeded 5-token rows.

    Returns the max relative error per tensor name.  The denominator is
    floored at 1e-4 so near-zero gradients do not amplify finite-difference
    noise: a floored ratio below the 1e-4 threshold means the absolute
    disagreement is under 1e-8.

    Only the first graph stage that reads the perturbed tensor sees the
    perturbation: it runs once per perturbed value, on its saved input, and
    the element is restored after each run.  The stages before it see
    unchanged inputs and weights; the stages after it read no perturbed
    weight (each parameter is read by one stage), so they run once over the
    tensor's 2n outputs stacked on the batch axis, and each perturbation's
    loss is taken on its own block of 2 rows.  Every operation on the
    stack works row by row, and at these shapes the attention pass picks the
    same tiles for the stack as for one batch, so the losses are those of a
    whole forward pass, bit for bit.
    """
    config.check_int("samples_per_tensor", samples_per_tensor, 1, UsageError)
    model = init_model(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    tokens = rng.integers(0, cfg.vocab_size, size=(2, 5))
    step = 1e-5

    params = as_parameter_tensors(model)
    loss = loss_graph(params, cfg, tokens)
    loss.backward()
    analytic = {name: t.grad for name, t in params.items()}

    stages, inputs, reads = staged_forward(model, tokens)

    errors: dict[str, float] = {}
    arrays = model.named_tensors()
    for name, arr in arrays.items():
        start = next(k for k, names in enumerate(reads) if name in names)
        flat = arr.ravel()
        n = min(samples_per_tensor, flat.size)
        idxs = rng.choice(flat.size, size=n, replace=False)
        outs = []
        for idx in idxs:
            original = flat[idx]
            for value in (original + step, original - step):
                flat[idx] = value
                outs.append(stages[start](inputs[start]).data)
                flat[idx] = original
        x = ad.Tensor(np.concatenate(outs))
        for stage in stages[start + 1:]:
            x = stage(x)
        blocks = x.data.reshape(len(outs), len(tokens), *x.shape[1:])
        losses = [float(ad.cross_entropy_next_token(ad.Tensor(blk), tokens).data) for blk in blocks]
        worst = 0.0
        grad_flat = analytic[name].ravel() if analytic[name] is not None else np.zeros(flat.size)
        for idx, f_plus, f_minus in zip(idxs, losses[0::2], losses[1::2]):
            fd = (f_plus - f_minus) / (2 * step)
            a = grad_flat[idx]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-4))
        errors[name] = worst
    return errors


def gradients_suite() -> list[PropertyResult]:
    results = []
    for label, (heads, d_k, aug) in GRADCHECK_VARIANTS.items():
        errors = gradient_check(_gradcheck_model_config(heads, d_k, aug))
        worst = max(errors.values())
        results.append(
            PropertyResult(
                f"gradient check [{label}]",
                len(errors) * GRADCHECK_SAMPLES,
                worst,
                worst < 1e-4,
            )
        )
    return results


# -- cache -------------------------------------------------------------------

def check_footprint_accounting(instances: int = 50, seed: int = 23) -> PropertyResult:
    rng = np.random.default_rng(seed)
    cfg = PRESETS["sigma-1.5b"].attention
    for i in range(instances):
        b = int(rng.integers(1, 4))
        m = int(rng.integers(0, 40))
        cache = DifferentialKVCache(cfg, b, max(m, 1))
        cache.append(
            np.zeros((b, m, cfg.n_k_heads, cfg.d_k_head)),
            np.zeros((b, m, cfg.n_v_heads, cfg.d_head)),
        )
        fp = cache.footprint()
        if fp.total != b * m * cfg.cache_bracket or fp.total != fp.k_elements + fp.v_elements:
            return PropertyResult("cache footprint accounting", i + 1, np.inf, False)
    return PropertyResult("cache footprint accounting", instances, 0.0, True)


def check_cache_ratio() -> PropertyResult:
    sigma = PRESETS["sigma-1.5b"].attention
    gqa = PRESETS["gqa-16"].attention
    ratio = Fraction(sigma.cache_bracket, gqa.cache_bracket)
    ok = ratio == Fraction(5, 8)
    return PropertyResult(
        "sigma/gqa-16 footprint ratio == 0.625", 1, 0.0 if ok else np.inf, ok, f"ratio={ratio}"
    )


def check_incremental_matches_direct(instances: int = 20, seed: int = 29) -> PropertyResult:
    """Attention on cache views is bit-identical to the same full tensors."""
    rng = np.random.default_rng(seed)
    cfg = AttentionConfig(8, 2, 4, 8)
    max_err = 0.0
    for _ in range(instances):
        b, t = 2, int(rng.integers(1, 20))
        k = rng.normal(size=(b, t, cfg.n_k_heads, cfg.d_k_head))
        v = rng.normal(size=(b, t, cfg.n_v_heads, cfg.d_head))
        q = rng.normal(size=(b, cfg.n_q_heads, cfg.d_head))
        cache = DifferentialKVCache(cfg, b, t)
        cache.append(k, v)
        k_view, v_view = cache.view()

        def attend(kk, vv):
            return weighted_value_sum(attention_scores(q, kk, t), vv)

        direct = attend(k, v)
        incremental = attend(k_view, v_view)
        if not np.array_equal(direct, incremental):
            max_err = max(max_err, float(np.max(np.abs(direct - incremental))))
    return PropertyResult(
        "cache-view attention bit-identical to direct", instances, max_err, max_err == 0.0
    )


CACHE_CHECKS = (check_footprint_accounting, check_cache_ratio, check_incremental_matches_direct)


# -- cost --------------------------------------------------------------------

def check_reduction_rate_exact() -> PropertyResult:
    rate = reduction_rate(PRESETS["gqa-16"].attention, PRESETS["sigma-1.5b"].attention)
    ok = rate == Fraction(3, 8)
    return PropertyResult(
        "reduction rate gqa-16 -> sigma == 37.5%", 1, 0.0 if ok else np.inf, ok,
        f"r = {format_rate(rate)}",
    )


def check_cost_curve_structure() -> PropertyResult:
    std = PRESETS["gqa-16"].attention
    sigma = PRESETS["sigma-1.5b"].attention
    rate = float(reduction_rate(std, sigma))
    grid = CostGrid(
        prefix_lengths=tuple(2**i for i in range(7, 21, 2)),
        output_lengths=(16, 256, 4096),
    )
    worst = 0.0
    for augq in (0.0, 1e3, 1e7):
        p = CostModelParams(alpha=1.0, beta=5.0, attn_alpha=0.5, augq_cost_per_token=augq)
        rows = total_cost_curve(std, sigma, grid, p)
        for output in grid.output_lengths:
            series = [r.rel_improvement for r in rows if r.output == output]
            for a, b in zip(series, series[1:]):
                worst = max(worst, a - b)  # must be non-decreasing
            worst = max(worst, max(series) - rate)  # bounded by the exact rate
    return PropertyResult("cost curve monotone and rate-bounded", 9, max(worst, 0.0), worst <= 1e-12)


def check_crossover_monotone() -> PropertyResult:
    std = PRESETS["gqa-16"].attention
    sigma = PRESETS["sigma-1.5b"].attention
    p = CostModelParams(alpha=1.0, beta=0.0, attn_alpha=1.0, augq_cost_per_token=5e6)
    crossovers = [
        crossover_prefix(std, sigma, n, p) for n in LONG_CONTEXT_GRID.output_lengths
    ]
    ok = all(c is not None for c in crossovers) and all(
        a >= b for a, b in zip(crossovers, crossovers[1:])
    )
    return PropertyResult(
        "crossover prefix non-increasing in output length",
        len(crossovers),
        0.0 if ok else np.inf,
        ok,
        f"crossovers={crossovers}",
    )


def check_cost_affine() -> PropertyResult:
    cfg = PRESETS["sigma-1.5b"].attention
    p = CostModelParams(alpha=0.37, beta=11.0)
    worst = 0.0
    for b, s in [(1, 100), (3, 977), (2, 4096)]:
        lhs = kv_cache_cost(cfg, b, 2 * s, p) - kv_cache_cost(cfg, b, s, p)
        rhs = kv_cache_cost(cfg, b, 3 * s, p) - kv_cache_cost(cfg, b, 2 * s, p)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return PropertyResult("kv_cache_cost affine in s", 3, worst, worst <= 1e-12)


COST_CHECKS = (
    check_reduction_rate_exact,
    check_cache_ratio,
    check_cost_curve_structure,
    check_crossover_monotone,
    check_cost_affine,
)


def run_verify(suite: str, instances: int = 200) -> VerifyReport:
    """Run one named property suite; raises UsageError for a bad name or instances below 1."""
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    config.check_int("instances", instances, 1, UsageError)
    results: list[PropertyResult] = []
    if suite in ("equivalence", "all"):
        results += equivalence_suite(instances)
    if suite in ("gradients", "all"):
        results += gradients_suite()
    checks = (CACHE_CHECKS if suite in ("cache", "all") else ()) + (
        COST_CHECKS if suite in ("cost", "all") else ()
    )
    # check_cache_ratio is in both suites; "all" runs it once, in its cache position.
    results += [check() for check in dict.fromkeys(checks)]
    return VerifyReport(suite=suite, results=results)
