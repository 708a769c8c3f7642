"""Tests of the benchmark's own arithmetic and inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from itertools import count
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import diffqkv.attention as da  # noqa: E402
import diffqkv.model as dm  # noqa: E402

import layers  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from speed import NOMINAL_S, SpeedProbe  # noqa: E402
from tracer import Tracer, nesting_violations, roots, self_times  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_and_sibling_spans():
    # a [0, 10] holds b [1, 6] and its sibling d [7, 9]; b holds c [2, 4].
    tracer = Tracer(clock=fake_clock(0, 1, 2, 4, 6, 7, 9, 10))
    a = tracer.begin("a")
    b = tracer.begin("b")
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(b)
    d = tracer.begin("d")
    tracer.end(d)
    tracer.end(a)
    assert self_times(tracer.spans) == [10 - 5 - 2, 5 - 2, 2, 2]
    assert roots(tracer.spans) == [0, 0, 0, 0]
    assert sum(self_times(tracer.spans)) == 10
    assert nesting_violations(tracer.spans) == 0


def test_sibling_roots_and_wrapped_calls():
    ticks = count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap("layer.leaf", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_outer = tracer.wrap("layer.outer", outer)
    assert wrapped_outer() == 2
    assert wrapped_outer() == 2
    # Each outer call spans 5 ticks (begin, two 1-tick leaves, end); leaves are children.
    assert [s[0] for s in tracer.spans] == ["layer.outer", "layer.leaf", "layer.leaf"] * 2
    assert roots(tracer.spans) == [0, 0, 0, 3, 3, 3]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0, 3.0, 1.0, 1.0]


def test_speed_probe_subtracts_probes_and_scales_by_their_speed():
    speed = SpeedProbe(active=False)
    for start, duration in ((1.0, 0.1), (2.0, 0.2), (3.0, 0.1), (4.0, 0.2), (10.0, 0.4)):
        speed.record(start, duration)
    # Probes at 1, 2 and 3 lie inside; the one at 4 starts at the interval's end.
    assert speed.seconds((0.5, 4.0)) == pytest.approx(3.5 - 0.4)
    assert speed.speed((0.5, 4.5)) == pytest.approx(0.15)
    # One probe inside: widened to the four nearest, at 10, 4, 3 and 2.
    assert speed.speed((9.5, 10.5)) == pytest.approx((0.4 + 0.2 + 0.1 + 0.2) / 4)
    assert speed.ref_seconds((0.5, 4.5)) == pytest.approx((4.0 - 0.6) * NOMINAL_S / 0.15)


def test_speed_probe_runs_on_its_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(period=0.01) as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(speed.durations) >= 5
    assert 0 < speed.seconds((start, end)) < end - start


def test_nesting_violation_is_detected():
    spans = [["a", 0.0, 5.0, -1, 0], ["b", 4.0, 6.0, 0, 0]]
    assert nesting_violations(spans) == 1


def test_probe_patches_every_binding_and_restores_them():
    original = da.group_share
    probe = layers.Probe()
    probe.install()
    try:
        assert dm.group_share is not original and da.group_share is dm.group_share
        heads = np.zeros((1, 3, 2, 4))
        dm.group_share(heads, 4)
    finally:
        probe.uninstall()
    assert dm.group_share is original and da.group_share is original
    (span,) = probe.tracer.spans
    assert span[0] == "attention.group_share" and span[4] == 1 * 3 * 4 * 4 * 8


def test_categories_split_augmented_q_and_ffn_silu():
    spans = [
        ["model.forward_incremental", 0, 9, -1, 0],
        ["attention.project_qkv", 1, 4, 0, 0],
        ["attention.augment_q", 2, 3, 1, 0],
        ["attention.silu", 2, 3, 2, 0],
        ["attention.silu", 5, 6, 0, 0],
        ["attention.attention_scores", 6, 7, 0, 0],
    ]
    assert layers.categories(spans) == [
        "model",
        "attention.project_qkv",
        "attention.augment_q",
        "attention.augment_q",
        "model",
        "attention",
    ]


@pytest.mark.parametrize("workload", ["chat", "long-context"])
def test_seed_changes_prompts_not_shapes(workload):
    a, again, b = (workloads.decode_inputs(workload, s) for s in (3, 3, 4))
    assert a.weights_seed == again.weights_seed != b.weights_seed
    assert all(np.array_equal(x, y) for x, y in zip(a.prompts, again.prompts))
    assert sorted(len(p) for p in a.prompts) == sorted(len(p) for p in b.prompts)
    assert any(not np.array_equal(x, y) for x, y in zip(a.prompts, b.prompts))
    assert a.config == b.config


def test_seed_changes_weights_not_shapes():
    cfg = workloads.long_config()
    a, again, b = (
        dm.init_model(cfg, workloads.decode_inputs("long-context", s).weights_seed).named_tensors()
        for s in (3, 3, 4)
    )
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], again[name])
        assert a[name].shape == b[name].shape
    assert not np.array_equal(a["embedding"], b["embedding"])


def test_train_and_verify_inputs_follow_the_seed():
    assert workloads.train_weights_seed(3) == workloads.train_weights_seed(3)
    assert workloads.train_weights_seed(3) != workloads.train_weights_seed(4)
    a, again, b = workloads.train_batches(3, 0), workloads.train_batches(3, 0), workloads.train_batches(4, 0)
    assert all(np.array_equal(x, y) for x, y in zip(a, again))
    assert [x.shape for x in a] == [y.shape for y in b]
    assert not all(np.array_equal(x, y) for x, y in zip(a, b))
    labels = [label for label, _ in workloads.verify_checks(3)]
    assert labels == list(metrics.VERIFY_CHECKS)


def test_benchmark_json_matches_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
