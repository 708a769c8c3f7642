"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import time
from fractions import Fraction

import numpy as np

from diffqkv.attention import attention_output, select_top_k, selective_v_attention, SelectivePolicy
from diffqkv.bench import augq_prefix_independence, run_bench, traffic_ratio
from diffqkv.config import PRESETS, toy_preset
from diffqkv.costmodel import (
    CostGrid,
    CostModelParams,
    LONG_CONTEXT_GRID,
    SCALED_GRID,
    crossover_prefix,
    reduction_rate,
    total_cost_curve,
)
from diffqkv.kvcache import cache_new
from diffqkv.model import copy_task_batch, decode, forward, init_model, train_step
from diffqkv.verify import (
    GRADCHECK_VARIANTS,
    _gradcheck_model_config,
    check_degenerate_mha,
    check_flexhead_vs_naive,
    gradient_check,
)

SIGMA = PRESETS["sigma-1.5b"].attention
GQA16 = PRESETS["gqa-16"].attention


def _report(number: int, label: str, passed: bool, started: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number:02d}: {label} [{time.time() - started:.1f}s]{suffix}")
    assert passed, f"criterion {number:02d} failed: {label} {detail}"


def test_criterion_01_reduction_rate_exact():
    t0 = time.time()
    rate = reduction_rate(GQA16, SIGMA)
    _report(1, "exact 37.5% cache reduction rate", rate == Fraction(3, 8), t0,
            f"r = {rate} (zero tolerance)")


def test_criterion_02_cache_footprint_ratio():
    t0 = time.time()
    ok = True
    for b, length in [(1, 1), (1, 1000), (2, 37), (3, 4096), (7, 123)]:
        sigma = cache_new(SIGMA, b, length)
        gqa = cache_new(GQA16, b, length)
        zeros_s = (np.zeros((b, 1, 4, 64)), np.zeros((b, 1, 16, 64)))
        zeros_g = (np.zeros((b, 1, 16, 64)), np.zeros((b, 1, 16, 64)))
        for _ in range(length):
            sigma.append(*zeros_s)
            gqa.append(*zeros_g)
        ok &= Fraction(sigma.footprint().total, gqa.footprint().total) == Fraction(5, 8)
    _report(2, "sigma/gqa-16 footprint ratio 0.625 for all (b, len)", ok, t0, "zero tolerance")


def test_criterion_03_kernel_simulator_equivalence():
    t0 = time.time()
    result = check_flexhead_vs_naive(instances=200, seed=42)
    _report(3, "flexhead kernel == naive attention over 200 instances",
            result.passed and result.instances >= 200, t0,
            f"max err {result.max_error:.2e} <= 1e-9")


def test_criterion_04_degenerate_mha_equivalence():
    t0 = time.time()
    result = check_degenerate_mha(instances=50)
    _report(4, "degenerate config == head-duplication reference", result.passed, t0,
            f"max err {result.max_error:.2e} <= 1e-12 over {result.instances} instances")


def test_criterion_05_selective_v():
    t0 = time.time()
    rng = np.random.default_rng(5)
    ok = True
    worst_excess = 0.0
    for _ in range(100):
        t = int(rng.integers(2, 50))
        n_q, d = 4, 6
        alpha = rng.dirichlet(np.ones(t), size=(1, n_q))
        v = rng.normal(size=(1, t, n_q, d))
        w_o = rng.normal(size=(n_q * d, 8))

        exact = attention_output(alpha, v, w_o)
        identical = selective_v_attention(alpha, v, SelectivePolicy(k_top=t), w_o)
        ok &= np.array_equal(identical, exact)

        k_top = int(rng.integers(1, t))
        kept = select_top_k(alpha, SelectivePolicy(k_top=k_top))
        approx = np.einsum("bht,bthd->bhd", kept, v)
        full = np.einsum("bht,bthd->bhd", alpha, v)
        for h in range(n_q):
            dropped = alpha[0, h] * (kept[0, h] == 0)
            if not dropped.any():
                continue
            bound = dropped.sum() * np.abs(v[0, dropped > 0, h, :]).max()
            excess = float(np.abs(full[0, h] - approx[0, h]).max() - bound)
            worst_excess = max(worst_excess, excess)
    ok &= worst_excess <= 1e-12
    _report(5, "selective V: k>=t bit-identical, k<t within dropped-mass bound", ok, t0,
            f"worst bound excess {worst_excess:.2e}")


def test_criterion_06_decode_consistency():
    t0 = time.time()
    variants = [(name, half_k) for name in PRESETS for half_k in (False, True)]
    ok = True
    for i in range(20):
        name, half_k = variants[i % len(variants)]
        cfg = toy_preset(name, half_k=half_k)
        model = init_model(cfg, seed=100 + i)
        rng = np.random.default_rng(200 + i)
        prompt = rng.integers(0, cfg.vocab_size, size=4)
        produced = decode(model, prompt, 64)
        seq = list(prompt)
        for _ in range(64):
            seq.append(int(np.argmax(forward(model, np.array([seq]))[0, -1])))
        ok &= produced.tolist() == seq
    _report(6, "64-step incremental decode token-identical to recompute (20 models)", ok, t0)


def test_criterion_07_gradient_checks():
    t0 = time.time()
    worst = {}
    for label, (heads, d_k, aug) in GRADCHECK_VARIANTS.items():
        errors = gradient_check(
            _gradcheck_model_config(heads, d_k, aug), samples_per_tensor=4
        )
        worst[label] = max(errors.values())
    ok = all(err < 1e-4 for err in worst.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _report(7, "analytic vs central-difference gradients, every tensor, 5 variants",
            ok, t0, detail + " (< 1e-4)")


def test_criterion_08_cost_curve_properties():
    t0 = time.time()
    rate = float(reduction_rate(GQA16, SIGMA))
    ok = True
    grid = CostGrid(prefix_lengths=tuple(2**e for e in range(7, 21, 2)), output_lengths=(64, 2048))
    for augq in (0.0, 1.0, 1e4, 1e8):
        p = CostModelParams(alpha=1.0, beta=2.0, attn_alpha=1.0, augq_cost_per_token=augq)
        rows = total_cost_curve(GQA16, SIGMA, grid, p)
        for n in grid.output_lengths:
            series = [r.rel_improvement for r in rows if r.output == n]
            ok &= all(b >= a for a, b in zip(series, series[1:]))
            ok &= all(r <= rate + 1e-15 for r in series)
    p = CostModelParams(alpha=1.0, beta=0.0, attn_alpha=1.0, augq_cost_per_token=5e6)
    crossings = [crossover_prefix(GQA16, SIGMA, n, p) for n in LONG_CONTEXT_GRID.output_lengths]
    ok &= all(c is not None for c in crossings)
    ok &= all(a >= b for a, b in zip(crossings, crossings[1:]))
    _report(8, "improvement monotone in prefix, rate-bounded; crossover non-increasing",
            ok, t0, f"crossovers {crossings}")


def test_criterion_09_toy_training_halves_loss():
    t0 = time.time()
    cfg = toy_preset("sigma-1.5b")
    model = init_model(cfg, seed=42)
    rng = np.random.default_rng(42)
    losses = [
        train_step(model, copy_task_batch(rng, 16, 32, cfg.vocab_size), lr=0.2)
        for _ in range(200)
    ]
    ratio = losses[-1] / losses[0]
    _report(9, "copy-task loss halves within 200 steps (diffqkv preset, seed 42)",
            ratio <= 0.5, t0, f"loss {losses[0]:.3f} -> {losses[-1]:.3f} (ratio {ratio:.3f})")


def test_criterion_10_bench_methodology():
    t0 = time.time()
    report = run_bench(GQA16, SIGMA, SCALED_GRID, reps=3, seed=42)
    ratios = traffic_ratio(report, "kv_cache")
    ratio_ok = len(ratios) == 36 and all(r == 0.625 for r in ratios)
    spread, allowance, augq_ok = augq_prefix_independence(report)
    _report(10, "bench: kv-cache traffic ratio 0.625; augmented-Q prefix-independent",
            ratio_ok and augq_ok, t0,
            f"spread {spread * 1e3:.2f}ms within {allowance * 1e3:.2f}ms over scaled grid")
