"""DiffQKV attention at desk scale.

Differential rescaling of Q, K and V head counts and dimensions, the
differential KV cache it implies, one blocked causal softmax (per-block
partials merged by log-sum-exp) behind the forward pass, decode and a
chunked-attention kernel simulator, an analytic inference-cost model, and a
tiny trainable causal LM that exercises all of it end to end.
"""

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
    selective_v_attention,
)
from .config import (
    AttentionConfig,
    ModelConfig,
    PRESETS,
    load_config_file,
    preset,
    toy_preset,
    validate_config,
    validate_model_config,
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
from .kernel import ChunkPlan, flexhead_attention
from .kvcache import DifferentialKVCache, cache_new, kv_group_balance
from .model import ToyModel, decode, forward, init_model, train_step

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig",
    "AttentionWeights",
    "ChunkPlan",
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
    "kv_group_balance",
    "load_config_file",
    "naive_diffqkv_attention",
    "preset",
    "project_qkv",
    "reduction_rate",
    "selective_v_attention",
    "total_cost_curve",
    "toy_preset",
    "train_step",
    "validate_config",
    "validate_model_config",
]
