"""Names and units of every metric the benchmark reports.

``END_TO_END`` is what a run with tracing off prints; ``PER_LAYER`` is what a
traced run prints.  Every workload reports every name; a per-layer metric for
a layer or phase the workload never reaches reads 0.
"""

from __future__ import annotations

END_TO_END = {
    # Time before the first operation: median of several set-ups in one run,
    # in plain wall seconds.
    "setup_s": "s",
    # Median time of one whole operation: a request from prompt to last
    # token (chat, long-context), a 200-step training run (train), one pass
    # over every verify property (verify).  In reference seconds: wall time
    # scaled to the speed probe's nominal speed (speed.py).
    "op_ref_s": "ref-s",
    # Median time of one step, in reference milliseconds: the gap between
    # generated tokens (chat, long-context), one train_step (train), the mean
    # time of one property within a pass (verify).
    "step_ref_ms_p50": "ref-ms",
    "peak_rss_mib": "MiB",
}

PHASES = ("prefill", "decode")

# Per prompt token (prefill) or per generated token (decode).
PHASE_METRICS = {
    "attention.ms_per_tok": "ms/tok",
    "attention.group_share.ms_per_tok": "ms/tok",
    "attention.expand_k_dim.ms_per_tok": "ms/tok",
    "attention.attention_scores.ms_per_tok": "ms/tok",
    "attention.weighted_value_sum.ms_per_tok": "ms/tok",
    "attention.augment_q.ms_per_tok": "ms/tok",
    "attention.project_qkv.ms_per_tok": "ms/tok",
    "attention.materialized_bytes_per_tok": "B/tok",
    "attention.step_share": "frac",
    "model.ms_per_tok": "ms/tok",
    "kvcache.ms_per_tok": "ms/tok",
    "kernel.ms_per_tok": "ms/tok",
    "model.calls_per_tok": "calls/tok",
    "attention.calls_per_tok": "calls/tok",
    "kvcache.calls_per_tok": "calls/tok",
    "kernel.calls_per_tok": "calls/tok",
}

VERIFY_LAYERS = ("kernel", "reference", "attention", "autodiff", "model", "kvcache", "costmodel", "verify")

VERIFY_CHECKS = (
    "flexhead_vs_naive",
    "degenerate_mha",
    "grouped_duplication",
    "selective_v",
    "group_balance",
    "footprint_accounting",
    "cache_ratio",
    "incremental_matches_direct",
    "reduction_rate_exact",
    "cost_curve_structure",
    "crossover_monotone",
    "cost_affine",
    "gradients.mha",
    "gradients.gqa-4",
    "gradients.diffqkv",
    "gradients.diffqkv-augq",
    "gradients.diffqkv-halfk",
)

PER_LAYER = {
    **{f"{phase}.{name}": unit for phase in PHASES for name, unit in PHASE_METRICS.items()},
    "decode.model.peak_transient_bytes": "B",
    "decode.model.transient_over_cache": "ratio",
    "kvcache.bytes": "B",
    "kvcache.bytes_per_pos": "B",
    "costmodel.ns_per_cache_elem": "ns",
    "costmodel.fit_rel_err": "frac",
    "setup.tensorio.read_tensors.ms": "ms",
    "setup.model.load_checkpoint.ms": "ms",
    "setup.model.init_model.ms": "ms",
    "step.autodiff.forward_ms": "ms",
    "step.autodiff.backward_ms": "ms",
    "step.model.update_ms": "ms",
    **{f"verify.{layer}.ms": "ms" for layer in VERIFY_LAYERS},
    **{f"verify.{check}.s": "s" for check in VERIFY_CHECKS},
    "trace_overhead_frac": "frac",
    "trace_accounted_frac": "frac",
}
