"""The four workloads: seeded inputs, the closed request/step loops, output checks.

Each workload runs in its own process with one client: the next request,
step or property starts only after the previous one has finished.  Inputs
come from the workload seed alone; the library receives only the generated
checkpoint, prompts, batches and property seeds.

A run measures for a given number of seconds: it never cuts an operation
short, always completes at least one round of operations, and starts another
round only if the previous round's duration says it will end in time.  While
an untraced run measures, a speed probe (speed.py) runs on a timer; every
sample is kept as a (start, end) interval and turned into seconds, with and
without the probe's normalisation, once the loop is over.
"""

from __future__ import annotations

import functools
import inspect
import math
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from diffqkv import config as dc
from diffqkv import costmodel as cm
from diffqkv import model as dm
from diffqkv import verify as dv

from layers import Probe, categories
from metrics import PER_LAYER, PHASES, VERIFY_CHECKS, VERIFY_LAYERS
from speed import SpeedProbe
from tracer import END, NAME, NBYTES, PARENT, START, nesting_violations, roots, self_times

WORKLOADS = ("chat", "long-context", "train", "verify")

clock = time.perf_counter

CHAT_PROMPT_LENS = (16, 40, 64)  # one round: every length once, in seeded order
CHAT_NEW = 96
# The long-context prompt is shortened from 2k so that one request fits a
# run; attention still dominates the decode step at this length.  256 new
# tokens (not 128) use the rest of the run: twice the decode steps per run,
# over a longer stretch of the host's speed drift.
LONG_PROMPT = 1536
LONG_NEW = 256
CHECK_PROMPT, CHECK_NEW = 8, 8  # the short request checked against decode/forward
LOGIT_TOL = 1e-9

TRAIN_BATCH, TRAIN_SEQ, TRAIN_LR, TRAIN_STEPS = 16, 32, 0.2, 200
GRADIENT_TOL = 1e-4  # the threshold gradients_suite applies

# A fresh-interpreter import (verify) is the noisiest set-up; it gets the most samples.
SETUP_REPEATS = {"chat": 3, "long-context": 7, "train": 7, "verify": 15}


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def chat_config() -> dc.ModelConfig:
    """The real sigma-1.5b attention shape in a single layer with a small FFN and vocab."""
    sigma = dc.PRESETS["sigma-1.5b"]
    return dc.validate_model_config(
        dc.ModelConfig(
            attention=sigma.attention,
            n_layers=1,
            d_model=sigma.d_model,
            d_ffn=2048,
            vocab_size=2048,
            max_seq_len=4096,
        )
    )


def long_config() -> dc.ModelConfig:
    """sigma-1.5b's 32/4/16 head pattern in half-K mode at d_head 16."""
    sigma = dc.PRESETS["sigma-1.5b"].attention
    attn = dc.AttentionConfig(
        n_q_heads=sigma.n_q_heads,
        n_k_heads=sigma.n_k_heads,
        n_v_heads=sigma.n_v_heads,
        d_head=16,
        d_k_head=8,
        aug_q_dim=768,
        rope_theta=sigma.rope_theta,
    )
    return dc.validate_model_config(
        dc.ModelConfig(
            attention=attn, n_layers=2, d_model=512, d_ffn=1536, vocab_size=2048, max_seq_len=4096
        )
    )


def train_config() -> dc.ModelConfig:
    return dc.toy_preset("sigma-1.5b")


@dataclass(frozen=True)
class DecodeInputs:
    config: dc.ModelConfig
    weights_seed: int
    prompts: tuple[np.ndarray, ...]
    n_new: int


def decode_inputs(workload: str, seed: int) -> DecodeInputs:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "chat":
        cfg, lengths, n_new = chat_config(), rng.permutation(CHAT_PROMPT_LENS), CHAT_NEW
    else:
        cfg, lengths, n_new = long_config(), [LONG_PROMPT], LONG_NEW
    prompts = tuple(rng.integers(0, cfg.vocab_size, size=int(n)) for n in lengths)
    return DecodeInputs(cfg, int(rng.integers(2**31)), prompts, n_new)


def train_weights_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, WORKLOADS.index("train")]).integers(2**31))


def train_batches(seed: int, job: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, WORKLOADS.index("train"), job])
    vocab = train_config().vocab_size
    return [dm.copy_task_batch(rng, TRAIN_BATCH, TRAIN_SEQ, vocab) for _ in range(TRAIN_STEPS)]


# This property draws sequence lengths up to 257 at random, so its work varied
# by about 15% between seeds; it keeps its default seed so that every run does
# the same work.
FIXED_SEED_CHECKS = ("check_flexhead_vs_naive",)


def verify_checks(seed: int) -> list[tuple[str, object]]:
    """Every ``check_*`` property of diffqkv.verify plus a gradient check per variant.

    Each property takes the workload seed, except those in FIXED_SEED_CHECKS.
    Each entry calls through the module attribute at call time, so a traced
    run sees the property itself as a span.
    """
    checks = []
    for attr, fn in vars(dv).items():
        if attr.startswith("check_") and inspect.isfunction(fn):
            seeded = "seed" in inspect.signature(fn).parameters and attr not in FIXED_SEED_CHECKS
            kwargs = {"seed": seed} if seeded else {}
            checks.append((attr[len("check_"):], functools.partial(_property, attr, kwargs)))
    for variant, (heads, d_k_head, aug_q_dim) in dv.GRADCHECK_VARIANTS.items():
        cfg = dv._gradcheck_model_config(heads, d_k_head, aug_q_dim)
        checks.append((f"gradients.{variant.replace('+', '-')}", functools.partial(_gradients, cfg, seed)))
    return checks


def _property(attr: str, kwargs: dict) -> bool:
    return bool(getattr(dv, attr)(**kwargs).passed)


def _gradients(cfg: dc.ModelConfig, seed: int) -> bool:
    return max(dv.gradient_check(cfg, seed=seed).values()) < GRADIENT_TOL


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)  # seconds; no speed probe runs during set-up
    samples: dict[str, list[tuple[float, float]]] = field(default_factory=dict)  # (start, end)
    steps_per_sample: int = 1  # a verify "step" sample is a whole pass over the properties
    per_layer: dict[str, float] = field(default_factory=dict)
    summary: dict[str, tuple[float, str, int]] = field(default_factory=dict)  # printed metrics

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def add(self, name: str, interval: tuple[float, float]) -> None:
        self.samples.setdefault(name, []).append(interval)


def timed(fn, probe: Probe | None = None, span: str = ""):
    """Run ``fn()``, returning its result and (start, end) interval.

    With a probe, the call is routed through the tracer under a root span.
    """
    if probe is None:
        start = clock()
        result = fn()
        return result, (start, clock())
    probe.install()
    try:
        start = clock()
        with probe.tracer.span(span):
            result = fn()
        end = clock()
    finally:
        probe.uninstall()
    probe.traced_wall += end - start
    return result, (start, end)


def length(interval: tuple[float, float]) -> float:
    return interval[1] - interval[0]


def transient_peak(fn) -> int:
    """tracemalloc peak of ``fn()`` above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def keep_going(start: float, seconds: float, last_round: float) -> bool:
    return clock() - start + last_round <= seconds


# ---------------------------------------------------------------------------
# chat and long-context: prefill plus token-by-token greedy decode
# ---------------------------------------------------------------------------


@dataclass
class Served:
    tokens: list[int]
    logits: list[np.ndarray]  # prefill logits [P, V], then one [1, V] per decode step
    ttft: tuple[float, float]  # (start, end) intervals, as timed() returns them
    gaps: list[tuple[float, float]]
    traced_gaps: list[tuple[float, float]]
    decode_elements: list[int]  # cache elements after each traced decode step
    peak_transient: int
    wall: tuple[float, float]
    caches: list


def serve(model, prompt: np.ndarray, n_new: int, caches=None, probe: Probe | None = None) -> Served:
    """One greedy request making exactly the calls ``model.decode`` makes.

    One forward_incremental over the prompt, then one per generated token,
    the last of which only appends the final token to the caches.  With a
    probe the prefill and every other decode step are traced, and the final
    append runs under tracemalloc.
    """
    start = clock()
    if caches is None:
        caches = dm.make_caches(model, 1, len(prompt) + n_new)
    per_pos = model.config.n_layers * model.config.attention.cache_bracket

    def prefill():
        logits = dm.forward_incremental(model, prompt[None, :], caches, 0)
        return logits[0], int(np.argmax(logits[0, -1]))

    (logits, token), ttft = timed(prefill, probe, "bench.prefill")
    tokens = [*prompt.tolist(), token]
    out = Served(tokens, [logits], ttft, [], [], [], 0, (start, start), caches)

    def step():
        logits = dm.forward_incremental(model, np.array([[tokens[-1]]]), caches, len(tokens) - 1)
        return logits[0], int(np.argmax(logits[0, -1]))

    for i in range(n_new - 1):
        traced = probe is not None and i % 2 == 0
        (logits, token), gap = timed(step, probe if traced else None, "bench.decode")
        tokens.append(token)
        out.logits.append(logits)
        out.gaps.append(gap)
        if traced:
            out.traced_gaps.append(gap)
            out.decode_elements.append(caches[0].len * per_pos)

    def append_last():
        dm.forward_incremental(model, np.array([[tokens[-1]]]), caches, len(tokens) - 1)

    if probe is None:
        append_last()
    else:
        out.peak_transient = transient_peak(append_last)
    out.wall = (start, clock())
    return out


def cache_bytes(caches) -> int:
    """Bytes of the written cache prefix, read from the arrays themselves."""
    total = 0
    for cache in caches:
        k, v = cache.view()
        total += k.nbytes + v.nbytes
    return total


def predicted_cache_bytes(caches) -> float:
    unit = cm.CostModelParams(alpha=1.0, beta=0.0)
    return 8 * sum(cm.kv_cache_cost(c.cfg, c.batch, c.len, unit) for c in caches)


def check_short_request(model, prompt: np.ndarray, out: Outcome) -> None:
    """Token stream equals model.decode; decode logits equal model.forward within 1e-9."""
    prompt = prompt[:CHECK_PROMPT]
    served = serve(model, prompt, CHECK_NEW)
    expected = dm.decode(model, prompt, CHECK_NEW)
    full = dm.forward(model, np.array(served.tokens[:-1])[None, :])[0]
    err = float(np.max(np.abs(np.concatenate(served.logits) - full)))
    same = np.array_equal(np.array(served.tokens), expected)
    out.record(same and err <= LOGIT_TOL, f"short request: same stream {same}, logit error {err:.2e}")


def check_request(model, prompt: np.ndarray, served: Served, out: Outcome) -> None:
    """Greedy tokens equal a full recompute; cache bytes equal the cost model's prediction."""
    full = dm.forward(model, np.array(served.tokens[:-1])[None, :])[0]
    expected = np.argmax(full[len(prompt) - 1 :], axis=-1)
    same = np.array_equal(expected, np.array(served.tokens[len(prompt) :]))
    measured, predicted = cache_bytes(served.caches), predicted_cache_bytes(served.caches)
    out.record(
        same and measured == predicted,
        f"request of {len(prompt)} tokens: stream matches recompute {same}, "
        f"cache bytes {measured} vs predicted {predicted}",
    )


def run_decode(
    workload: str, seed: int, seconds: float, probe: Probe | None, speed: SpeedProbe, workdir: Path
) -> Outcome:
    inputs = decode_inputs(workload, seed)
    out = Outcome()
    trace = probe is not None
    checkpoint = workdir / f"{workload}-{seed}.dqkv"
    dm.save_checkpoint(dm.init_model(inputs.config, inputs.weights_seed), checkpoint)
    first_capacity = len(inputs.prompts[0]) + inputs.n_new
    model = caches = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS[workload]):
            model = caches = None

            def setup():
                m = dm.load_checkpoint(checkpoint)
                return m, dm.make_caches(m, 1, first_capacity)

            (model, caches), interval = timed(setup, probe, "bench.setup")
            out.setups.append(length(interval))
    finally:
        checkpoint.unlink(missing_ok=True)

    check_short_request(model, inputs.prompts[0], out)

    served_all: list[tuple[np.ndarray, Served]] = []
    start, last_round = clock(), 0.0
    with speed:
        while not served_all or keep_going(start, seconds, last_round):
            round_start = clock()
            for prompt in inputs.prompts:
                served = serve(model, prompt, inputs.n_new, caches, probe)
                caches = None
                served_all.append((prompt, served))
                out.add("op", served.wall)
                out.add("ttft", served.ttft)
                for gap in served.gaps:
                    out.add("step", gap)
            last_round = clock() - round_start
    wall = clock() - start

    for prompt, served in served_all:
        check_request(model, prompt, served, out)

    prompt_tokens = sum(len(p) for p, _ in served_all)
    ttfts = [speed.seconds(iv) for iv in out.samples["ttft"]]
    gaps = [speed.seconds(iv) for iv in out.samples["step"]]
    out.summary.update(
        {
            "wall_s": (wall, "s", 1),
            "ttft_ms_p50": (1e3 * statistics.median(ttfts), "ms", len(served_all)),
            "prefill_tok_s": (prompt_tokens / sum(ttfts), "1/s", len(served_all)),
            "itl_ms_p50": (1e3 * statistics.median(gaps), "ms", len(gaps)),
            "itl_ms_p90": (1e3 * percentile(gaps, 90), "ms", len(gaps)),
            "gen_tok_s": (len(gaps) / sum(gaps), "1/s", len(gaps)),
        }
    )
    if trace:
        decode_layer_metrics(probe, served_all, out)
    return out


# ---------------------------------------------------------------------------
# train: train_step on the copy task
# ---------------------------------------------------------------------------


INIT_MODEL_CODE = """
import sys, time
sys.path.insert(0, {src!r})
from diffqkv import config as dc, model as dm
cfg = dc.toy_preset("sigma-1.5b")
start = time.perf_counter()
dm.init_model(cfg, {weights_seed})
print(time.perf_counter() - start)
"""


def init_model_seconds(src: Path, weights_seed: int) -> float:
    """The first init_model call in a fresh interpreter, after its imports.

    Each call gets a process of its own: repeated calls in one process ran at
    one of two speeds (about 0.6 or 0.85 ms) depending on the process, so
    their median jumped between runs by 45%; the first call, which also pays
    for first-touch allocations, is what a user of train-toy waits for.
    """
    code = INIT_MODEL_CODE.format(src=str(src), weights_seed=weights_seed)
    proc = subprocess.run(
        [sys.executable, "-c", code], check=True, cwd=src.parent, stdout=subprocess.PIPE, text=True
    )
    return float(proc.stdout)


def run_train(seed: int, seconds: float, probe: Probe | None, speed: SpeedProbe, src: Path) -> Outcome:
    cfg = train_config()
    weights_seed = train_weights_seed(seed)
    out = Outcome()
    trace = probe is not None
    if trace:
        model, _ = timed(lambda: dm.init_model(cfg, weights_seed), probe, "bench.setup")
    else:
        out.setups = [init_model_seconds(src, weights_seed) for _ in range(SETUP_REPEATS["train"])]
        model = dm.init_model(cfg, weights_seed)

    traced_steps, untraced_steps = [], []
    start, last_round, job = clock(), 0.0, 0
    with speed:
        while job == 0 or keep_going(start, seconds, last_round):
            if job > 0:
                model = dm.init_model(cfg, weights_seed)  # every run trains from the same weights
            batches = train_batches(seed, job)
            losses = []
            job_start = clock()
            for i, batch in enumerate(batches):
                traced = trace and i % 2 == 0
                loss, interval = timed(
                    lambda: dm.train_step(model, batch, TRAIN_LR), probe if traced else None, "bench.step"
                )
                losses.append(loss)
                out.add("step", interval)
                (traced_steps if traced else untraced_steps).append(length(interval))
                out.record(math.isfinite(loss), f"job {job} step {i}: loss {loss}")
            job_end = clock()
            last_round = job_end - job_start
            out.add("op", (job_start, job_end))
            out.record(
                losses[-1] <= losses[0] / 2,
                f"job {job}: copy-task loss {losses[0]:.3f} -> {losses[-1]:.3f} does not halve",
            )
            job += 1
    steps = [speed.seconds(iv) for iv in out.samples["step"]]
    out.summary.update(
        {
            "wall_s": (clock() - start, "s", 1),
            "train_step_ms_p50": (1e3 * statistics.median(steps), "ms", len(steps)),
            "train_step_ms_p90": (1e3 * percentile(steps, 90), "ms", len(steps)),
            "train_tok_s": (TRAIN_BATCH * TRAIN_SEQ * len(steps) / sum(steps), "1/s", len(steps)),
        }
    )
    if trace:
        spans = probe.tracer.spans
        own = self_times(spans)
        top = roots(spans)
        in_step = [spans[top[i]][NAME] == "bench.step" for i in range(len(spans))]
        n = len(traced_steps)
        out.per_layer.update(
            {
                "step.autodiff.forward_ms": 1e3 * inclusive(spans, "model.loss_graph", in_step) / n,
                "step.autodiff.backward_ms": 1e3 * inclusive(spans, "autodiff.backward", in_step) / n,
                "step.model.update_ms": 1e3 * sum(
                    own[i] for i, s in enumerate(spans) if in_step[i] and s[NAME] == "model.train_step"
                ) / n,
            }
        )
        setup_layer_metrics(spans, top, out)
        finish_trace(probe, statistics.median(traced_steps) / statistics.median(untraced_steps) - 1, out)
    return out


# ---------------------------------------------------------------------------
# verify: every property of diffqkv.verify
# ---------------------------------------------------------------------------


def import_seconds(src: Path) -> float:
    """A fresh interpreter importing diffqkv.verify: the set-up before a property can run."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import diffqkv.verify"
    start = clock()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=src.parent)
    return clock() - start


def run_verify(seed: int, seconds: float, probe: Probe | None, speed: SpeedProbe, src: Path) -> Outcome:
    out = Outcome(steps_per_sample=len(VERIFY_CHECKS))
    trace = probe is not None
    if not trace:
        for _ in range(SETUP_REPEATS["verify"]):
            out.setups.append(import_seconds(src))

    def one_pass(traced: bool) -> tuple[float, float]:
        start = clock()
        for label, call in verify_checks(seed):
            ok, _ = timed(call, probe if traced else None, f"check.{label}")
            out.record(ok, f"property {label} (seed {seed}) failed")
        return start, clock()

    traced_passes, untraced_passes = [], []
    start, last_round = clock(), 0.0
    with speed:
        while not untraced_passes or keep_going(start, seconds, last_round):
            round_start = clock()
            untraced_passes.append(one_pass(False))
            # A step sample is a whole pass: its time over the property count is
            # the mean time of one property.
            out.add("op", untraced_passes[-1])
            out.add("step", untraced_passes[-1])
            if trace:
                # The same pass again with tracing on, so the overhead compares equal work.
                traced_passes.append(length(one_pass(True)))
            last_round = clock() - round_start
    passes = [speed.seconds(iv) for iv in untraced_passes]
    out.summary.update(
        {
            "wall_s": (clock() - start, "s", 1),
            "verify_s": (statistics.median(passes), "s", len(passes)),
        }
    )
    if trace:
        spans = probe.tracer.spans
        own = self_times(spans)
        n = len(traced_passes)
        by_layer: dict[str, float] = {}
        for s, t in zip(spans, own):
            layer = s[NAME].partition(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + t
        for layer in VERIFY_LAYERS:
            out.per_layer[f"verify.{layer}.ms"] = 1e3 * by_layer.get(layer, 0.0) / n
        for check in VERIFY_CHECKS:
            name = f"check.{check}"
            out.per_layer[f"verify.{check}.s"] = sum(
                s[END] - s[START] for s in spans if s[PARENT] < 0 and s[NAME] == name
            ) / n
        finish_trace(probe, sum(traced_passes) / sum(passes[: len(traced_passes)]) - 1, out)
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def inclusive(spans, name: str, mask) -> float:
    return sum(s[END] - s[START] for i, s in enumerate(spans) if mask[i] and s[NAME] == name)


def setup_layer_metrics(spans, top, out: Outcome) -> None:
    in_setup = [spans[top[i]][NAME] == "bench.setup" for i in range(len(spans))]
    for metric, name in (
        ("setup.tensorio.read_tensors.ms", "tensorio.read_tensors"),
        ("setup.model.load_checkpoint.ms", "model.load_checkpoint"),
        ("setup.model.init_model.ms", "model.init_model"),
    ):
        out.per_layer[metric] = 1e3 * inclusive(spans, name, in_setup)


def decode_layer_metrics(probe: Probe, served_all, out: Outcome) -> None:
    spans = probe.tracer.spans
    own = self_times(spans)
    top = roots(spans)
    cats = categories(spans)
    phase_of_root = {"bench.prefill": "prefill", "bench.decode": "decode"}
    tokens = {
        "prefill": sum(len(p) for p, _ in served_all),
        "decode": sum(len(s.traced_gaps) for _, s in served_all),
    }
    sums: dict[tuple[str, str], float] = {}
    step_time = {phase: 0.0 for phase in PHASES}
    # Attention core + kvcache seconds per position: a decode root is one
    # position; inside a prefill root, each layer-0 project_qkv starts one.
    per_pos: dict[tuple[int, int], float] = {}
    n_layers = len(served_all[0][1].caches)
    projections = 0
    for i, s in enumerate(spans):
        phase = phase_of_root.get(spans[top[i]][NAME])
        if phase is None:
            continue
        if s[PARENT] < 0:
            projections = 0
        elif s[NAME] == "attention.project_qkv":
            projections += 1
        layer = s[NAME].partition(".")[0]
        for key in (f"cat:{cats[i]}", f"fn:{s[NAME]}"):
            sums[(phase, key)] = sums.get((phase, key), 0.0) + own[i]
        sums[(phase, f"calls:{layer}")] = sums.get((phase, f"calls:{layer}"), 0.0) + 1
        sums[(phase, "bytes")] = sums.get((phase, "bytes"), 0.0) + s[NBYTES]
        if s[PARENT] < 0:
            step_time[phase] += s[END] - s[START]
        if cats[i] in ("attention", "kvcache"):
            key = (top[i], (projections - 1) // n_layers if phase == "prefill" else 0)
            per_pos[key] = per_pos.get(key, 0.0) + own[i]

    for phase in PHASES:
        n = tokens[phase]

        def get(key):
            return sums.get((phase, key), 0.0)

        values = {
            "attention.ms_per_tok": 1e3 * get("cat:attention") / n,
            "attention.group_share.ms_per_tok": 1e3 * get("fn:attention.group_share") / n,
            "attention.expand_k_dim.ms_per_tok": 1e3 * get("fn:attention.expand_k_dim") / n,
            "attention.attention_scores.ms_per_tok": 1e3 * get("fn:attention.attention_scores") / n,
            "attention.weighted_value_sum.ms_per_tok": 1e3 * get("fn:attention.weighted_value_sum") / n,
            "attention.augment_q.ms_per_tok": 1e3 * get("cat:attention.augment_q") / n,
            "attention.project_qkv.ms_per_tok": 1e3 * get("cat:attention.project_qkv") / n,
            "attention.materialized_bytes_per_tok": get("bytes") / n,
            "attention.step_share": get("cat:attention") / step_time[phase],
            "model.ms_per_tok": 1e3 * get("cat:model") / n,
            "kvcache.ms_per_tok": 1e3 * get("cat:kvcache") / n,
            "kernel.ms_per_tok": 1e3 * get("cat:kernel") / n,
        }
        for layer in ("model", "attention", "kvcache", "kernel"):
            values[f"{layer}.calls_per_tok"] = get(f"calls:{layer}") / n
        for name, value in values.items():
            out.per_layer[f"{phase}.{name}"] = value

    finals = [s for _, s in served_all]
    peak = statistics.median(s.peak_transient for s in finals)
    final_bytes = [cache_bytes(s.caches) for s in finals]
    out.per_layer.update(
        {
            "decode.model.peak_transient_bytes": float(peak),
            "decode.model.transient_over_cache": statistics.median(
                s.peak_transient / b for s, b in zip(finals, final_bytes)
            ),
            "kvcache.bytes": float(statistics.median(final_bytes)),
            "kvcache.bytes_per_pos": final_bytes[0] / finals[0].caches[0].len,
        }
    )

    # Cost-model calibration: fit_cost_params over (cache elements, attention +
    # kvcache seconds) of every traced position, prompt positions included so
    # that the cache sizes span a wide range; then predicted against measured
    # on the decode steps.
    per_elem = served_all[0][1].caches[0].cfg.cache_bracket * n_layers
    prefill_roots = [i for i, s in enumerate(spans) if s[PARENT] < 0 and s[NAME] == "bench.prefill"]
    decode_roots = [i for i, s in enumerate(spans) if s[PARENT] < 0 and s[NAME] == "bench.decode"]
    prompt_points = [
        ((pos + 1) * per_elem, per_pos[(root, pos)])
        for root, (prompt, _) in zip(prefill_roots, served_all)
        for pos in range(len(prompt))
    ]
    elements = [e for _, s in served_all for e in s.decode_elements]
    points = [(e, per_pos[(r, 0)]) for e, r in zip(elements, decode_roots)]
    params = cm.fit_cost_params(prompt_points + points)
    errors = [abs(params.alpha * e + params.beta - t) / t for e, t in points]
    out.per_layer["costmodel.ns_per_cache_elem"] = 1e9 * params.alpha
    out.per_layer["costmodel.fit_rel_err"] = statistics.median(errors)
    out.summary["costmodel.predicted_attn_kv_ms"] = (
        1e3 * statistics.median(params.alpha * e + params.beta for e, _ in points), "ms", len(points)
    )
    out.summary["costmodel.measured_attn_kv_ms"] = (
        1e3 * statistics.median(t for _, t in points), "ms", len(points)
    )

    setup_layer_metrics(spans, top, out)
    traced = [length(g) for _, s in served_all for g in s.traced_gaps]
    untraced = [length(g) for _, s in served_all for i, g in enumerate(s.gaps) if i % 2 == 1]
    finish_trace(probe, statistics.median(traced) / statistics.median(untraced) - 1, out)


def finish_trace(probe: Probe, overhead: float, out: Outcome) -> None:
    """Check that the spans account for the traced wall time, then fill absent metrics with 0."""
    spans = probe.tracer.spans
    accounted = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    selves = sum(self_times(spans))
    bad = nesting_violations(spans)
    frac = accounted / probe.traced_wall
    out.record(
        bad == 0 and math.isclose(selves, accounted, rel_tol=1e-9) and 0.95 <= frac <= 1.0,
        f"trace accounting: {bad} badly nested spans, self-time sum {selves} vs roots "
        f"{accounted}, roots over traced wall {frac}",
    )
    out.per_layer["trace_overhead_frac"] = overhead
    out.per_layer["trace_accounted_frac"] = frac
    traced_ops = sum(1 for s in spans if s[PARENT] < 0)
    out.summary["traced_operations"] = (traced_ops, "count", traced_ops)
    for name in PER_LAYER:
        out.per_layer.setdefault(name, 0.0)


# ---------------------------------------------------------------------------
# Entry point for one workload
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[Outcome, dict]:
    """Run one workload; returns the outcome and, with tracing off, the end-to-end metrics.

    A traced run writes its spans to perfbench/out/ when it ends.
    """
    workdir = root / "perfbench" / "out"
    workdir.mkdir(parents=True, exist_ok=True)
    probe = Probe() if trace else None
    # The speed probe runs only in untraced runs, whose timings are bounded.
    speed = SpeedProbe(active=not trace)
    if workload in ("chat", "long-context"):
        out = run_decode(workload, seed, seconds, probe, speed, workdir)
    elif workload == "train":
        out = run_train(seed, seconds, probe, speed, root / "src")
    else:
        out = run_verify(seed, seconds, probe, speed, root / "src")
    if trace:
        probe.tracer.write(workdir / f"spans-{workload}-{seed}.json")

    rss = peak_rss_mib()
    setups = out.setups
    if setups:
        out.summary["setup_s"] = (statistics.median(setups), "s", len(setups))
    out.summary["peak_rss_mib"] = (rss, "MiB", 1)
    out.summary["failed_frac"] = (out.failed / out.attempted, "frac", out.attempted)
    metrics: dict[str, tuple[float, int]] = {}
    if not trace:
        ops, steps = out.samples["op"], out.samples["step"]
        per_step = 1e3 / out.steps_per_sample
        out.summary.update(
            {
                "op_s": (statistics.median(speed.seconds(iv) for iv in ops), "s", len(ops)),
                "step_ms_p50": (per_step * statistics.median(speed.seconds(iv) for iv in steps), "ms", len(steps)),
                "probe_ms_p50": (1e3 * speed.median_duration(), "ms", len(speed.durations)),
            }
        )
        metrics = {
            "setup_s": (statistics.median(setups), len(setups)),
            "op_ref_s": (statistics.median(speed.ref_seconds(iv) for iv in ops), len(ops)),
            "step_ref_ms_p50": (per_step * statistics.median(speed.ref_seconds(iv) for iv in steps), len(steps)),
            "peak_rss_mib": (rss, 1),
        }
    return out, metrics
