"""DiffQKV attention at desk scale.

Differential rescaling of Q, K and V head counts and dimensions, the
differential KV cache it implies, one blocked causal softmax (per-block
partials merged by log-sum-exp) behind the FlexHead kernel, the pass every
cached attention call of the forward pass and decode runs, an analytic
inference-cost model, and a tiny trainable causal LM that exercises all of it
end to end.

Importing the package sets glibc's malloc thresholds for the whole process
(see ``_reuse_freed_memory``), so freed numpy temporaries are reused from the
heap instead of coming back as freshly faulted pages; elsewhere it does nothing.
"""

import ctypes

from .attention import (
    AttentionWeights,
    SelectivePolicy,
    apply_rope,
    attention_output,
    attention_scores,
    augment_q,
    cached_attention,
    init_attention_weights,
    naive_diffqkv_attention,
    project_qkv,
    scored_query,
    selective_v_attention,
)
from .config import (
    AttentionConfig,
    ModelConfig,
    PRESETS,
    load_config_file,
    toy_preset,
)
from .costmodel import (
    CostGrid,
    CostModelParams,
    LONG_CONTEXT_GRID,
    SCALED_GRID,
    crossover_prefix,
    kv_cache_cost,
    reduction_rate,
    total_cost_curve,
)
from .kernel import flexhead_attention
from .kvcache import DifferentialKVCache, cache_new
from .model import ToyModel, decode, forward, init_model, train_step

__version__ = "0.1.0"


def _reuse_freed_memory() -> None:
    """Let glibc serve numpy's per-step temporaries from memory freed earlier.

    By default glibc maps large blocks with ``mmap`` and gives the top of the
    heap back once a step's graph is freed, so each ``train_step`` at the
    train-toy shape refaulted more than 4,000 fresh zeroed pages. Setting either
    threshold turns glibc's dynamic adjustment off, so both are set. Without
    a glibc ``mallopt``, or if it rejects a value, the default policy stays:
    slower, not wrong, so nothing is raised.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt  # the process's own symbols: no search, no subprocess
    except (AttributeError, OSError, TypeError):  # no mallopt (macOS); no dlopen(NULL) (Windows)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's <malloc.h>
    # 4 MiB: above the largest per-op train temporary, the ~1 MiB attention-score block.
    if mallopt(m_mmap_threshold, 4 << 20):
        # 32 MiB: above the ~17 MiB one train step frees, so it stays on the heap for the next.
        mallopt(m_trim_threshold, 32 << 20)


_reuse_freed_memory()

__all__ = [
    "AttentionConfig",
    "AttentionWeights",
    "CostGrid",
    "CostModelParams",
    "DifferentialKVCache",
    "ModelConfig",
    "LONG_CONTEXT_GRID",
    "PRESETS",
    "SCALED_GRID",
    "SelectivePolicy",
    "ToyModel",
    "apply_rope",
    "attention_output",
    "attention_scores",
    "augment_q",
    "cache_new",
    "cached_attention",
    "crossover_prefix",
    "decode",
    "flexhead_attention",
    "forward",
    "init_attention_weights",
    "init_model",
    "kv_cache_cost",
    "load_config_file",
    "naive_diffqkv_attention",
    "project_qkv",
    "reduction_rate",
    "scored_query",
    "selective_v_attention",
    "total_cost_curve",
    "toy_preset",
    "train_step",
]
