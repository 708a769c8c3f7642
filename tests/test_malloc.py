"""Allocator policy set when ``diffqkv`` is imported."""

import ctypes
import platform

import numpy as np
import pytest

import diffqkv
from diffqkv.config import toy_preset
from diffqkv.model import copy_task_batch, init_model, train_step


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_warm_train_step_reuses_freed_memory():
    # Under glibc's default policy a warm step at train-toy's shape refaults
    # more than 4,000 pages that the step before it gave back to the kernel.
    import resource

    cfg = toy_preset("sigma-1.5b")
    model = init_model(cfg, seed=19)
    rng = np.random.default_rng(19)
    batches = [copy_task_batch(rng, 16, 32, cfg.vocab_size) for _ in range(13)]
    for batch in batches[:3]:
        train_step(model, batch, lr=0.2)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for batch in batches[3:]:
        train_step(model, batch, lr=0.2)
    per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10
    assert per_step < 50, f"{per_step} minor faults per warm train_step"


def _no_mallopt(name):
    return object()


def _no_dlopen(name):
    raise OSError("dlopen failed")


@pytest.mark.parametrize("stand_in", [_no_mallopt, _no_dlopen])
def test_missing_mallopt_keeps_the_default_policy(monkeypatch, stand_in):
    monkeypatch.setattr(ctypes, "CDLL", stand_in)
    diffqkv._reuse_freed_memory()


@pytest.mark.parametrize("accepted,calls", [(1, [(-3, 4 << 20), (-1, 32 << 20)]), (0, [(-3, 4 << 20)])])
def test_trim_threshold_set_only_after_mmap_threshold_accepted(monkeypatch, accepted, calls):
    made = []

    class Libc:
        def __init__(self, name):
            def mallopt(param, value):
                made.append((param, value))
                return accepted

            self.mallopt = mallopt

    monkeypatch.setattr(ctypes, "CDLL", Libc)
    diffqkv._reuse_freed_memory()
    assert made == calls
