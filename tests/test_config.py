import math
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from diffqkv.attention import SelectivePolicy, init_attention_weights, naive_diffqkv_attention
from diffqkv.config import (
    AttentionConfig,
    ModelConfig,
    PRESETS,
    check_int,
    check_real,
    format_config_text,
    parse_config_text,
    resolve_config,
    toy_preset,
    validate_model_config,
)
from diffqkv.costmodel import (
    SCALED_GRID,
    CostGrid,
    CostModelParams,
    crossover_prefix,
    kv_cache_cost,
    reduction_rate,
    total_cost_curve,
)
from diffqkv.errors import (
    ConfigError,
    ConfigFileError,
    DiffQKVError,
    DimensionError,
    DivisibilityError,
    UsageError,
)
from diffqkv.kvcache import DifferentialKVCache


def attn(n_q, n_k, n_v, **kw):
    return AttentionConfig(n_q_heads=n_q, n_k_heads=n_k, n_v_heads=n_v, d_head=kw.pop("d_head", 64), **kw)


class TestValidate:
    def test_sigma_preset_values(self):
        model = PRESETS["sigma-1.5b"]
        cfg = model.attention
        assert (cfg.n_q_heads, cfg.n_k_heads, cfg.n_v_heads) == (32, 4, 16)
        assert cfg.d_head == cfg.d_k_head == 64
        assert cfg.aug_q_dim == 3072
        assert cfg.rope_theta == 50_000.0
        assert (model.n_layers, model.d_model, model.d_ffn) == (26, 2048, 6144)
        assert model.vocab_size == 128_256
        assert replace(model, attention=cfg) == model

    def test_non_divisible_k_heads(self):
        with pytest.raises(DivisibilityError):
            attn(32, 5, 16)

    def test_non_divisible_v_heads(self):
        with pytest.raises(DivisibilityError):
            attn(32, 4, 3)

    def test_mha_degenerate_valid(self):
        cfg = attn(32, 32, 32)
        model = ModelConfig(cfg, n_layers=2, d_model=2048, d_ffn=128, vocab_size=10, max_seq_len=8)
        assert replace(model, attention=cfg) == model

    def test_k_dim_larger_than_head_dim(self):
        with pytest.raises(DimensionError):
            attn(8, 2, 4, d_head=4, d_k_head=8)

    def test_head_times_dim_must_match_d_model(self):
        cfg = attn(8, 2, 4, d_head=4)
        with pytest.raises(DimensionError):
            ModelConfig(cfg, n_layers=1, d_model=64, d_ffn=16, vocab_size=10, max_seq_len=8)

    def test_pairing_checked_against_another_attention(self):
        model = toy_preset("sigma-1.5b")
        assert replace(model, attention=model.attention) == model
        with pytest.raises(DimensionError, match="must equal d_model = 32"):
            replace(model, attention=attn(8, 2, 4, d_head=8))

    def test_replace_is_checked(self):
        cfg = attn(8, 2, 4, d_head=4)
        with pytest.raises(DivisibilityError):
            replace(cfg, n_k_heads=3)
        with pytest.raises(DimensionError):
            replace(toy_preset("gqa-4"), d_model=64)

    @pytest.mark.parametrize("field,value", [
        ("n_q_heads", 0), ("n_k_heads", -1), ("d_head", 0), ("aug_q_dim", -1),
    ])
    def test_non_positive_fields(self, field, value):
        kwargs = dict(n_q_heads=8, n_k_heads=2, n_v_heads=4, d_head=4)
        kwargs[field] = value
        with pytest.raises(ValueError):
            AttentionConfig(**kwargs)

    def test_all_presets_validate(self):
        for name, model in PRESETS.items():
            assert validate_model_config(model) is model, name

    def test_toy_presets_validate(self):
        for name in PRESETS:
            validate_model_config(toy_preset(name))
            validate_model_config(toy_preset(name, half_k=True))

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_rope_theta_must_be_finite_and_positive(self, theta):
        with pytest.raises(ConfigError, match="rope_theta must be finite and positive"):
            attn(8, 2, 4, d_head=4, rope_theta=theta)

    def test_defaults_fill_in(self):
        cfg = attn(8, 2, 4, d_head=6)
        assert cfg.d_k_head == 6


class TestConfigFiles:
    def test_round_trip_model(self):
        model = PRESETS["sigma-1.5b"]
        assert parse_config_text(format_config_text(model)) == model

    def test_round_trip_attention_only(self):
        cfg = attn(8, 2, 4, d_head=4, aug_q_dim=48)
        assert parse_config_text(format_config_text(cfg)) == cfg

    def test_comments_and_blank_lines(self):
        text = """
        # a comment
        attention.n_q_heads = 8   # trailing comment
        attention.n_k_heads = 2
        attention.n_v_heads = 4
        attention.d_head = 4
        """
        cfg = parse_config_text(text)
        assert cfg.n_q_heads == 8 and cfg.d_k_head == 4

    def test_unknown_key(self):
        with pytest.raises(ConfigFileError, match="unknown key"):
            parse_config_text("attention.n_heads = 8")

    def test_missing_required_key(self):
        with pytest.raises(ConfigFileError, match="missing"):
            parse_config_text("attention.n_q_heads = 8")

    def test_partial_model_block(self):
        base = format_config_text(attn(8, 2, 4, d_head=4))
        with pytest.raises(ConfigFileError, match="missing"):
            parse_config_text(base + "model.d_model = 32\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigFileError, match="key = value"):
            parse_config_text("attention.n_q_heads 8")

    def test_non_integer_value(self):
        with pytest.raises(ConfigFileError, match="integer"):
            parse_config_text("attention.n_q_heads = eight")

    def test_resolve_preset_and_file(self, tmp_path):
        assert resolve_config("gqa-16") == PRESETS["gqa-16"]
        path = tmp_path / "toy.cfg"
        path.write_text(format_config_text(toy_preset("sigma-1.5b")))
        assert resolve_config(str(path)) == toy_preset("sigma-1.5b")
        with pytest.raises(ConfigFileError):
            resolve_config("no-such-thing")

    @pytest.mark.parametrize("value", ["inf", "nan", "-1e4"])
    def test_file_rope_theta_must_be_finite_and_positive(self, value):
        text = format_config_text(attn(8, 2, 4, d_head=4)).replace("50000.0", value)
        with pytest.raises(ConfigError, match="rope_theta must be finite and positive"):
            parse_config_text(text)

    def test_repeated_key(self):
        text = format_config_text(attn(8, 2, 4, d_head=4)) + "attention.n_k_heads = 4\n"
        with pytest.raises(ConfigFileError, match="line 8: repeated key 'attention.n_k_heads'"):
            parse_config_text(text)

    def test_nested_attention_is_not_a_key(self):
        with pytest.raises(ConfigFileError, match="line 1: unknown key 'model.attention'"):
            parse_config_text("model.attention = 3")

    def test_softmax_scale_dim_key_is_refused(self):
        # Logits are scaled by 1/sqrt(d_head) alone: a text that still sets the
        # old scale key, as every checkpoint written with it does, is refused.
        lines = format_config_text(PRESETS["sigma-1.5b"]).splitlines()
        lines.insert(6, "attention.softmax_scale_dim = 64")
        with pytest.raises(ConfigFileError, match="line 7: unknown key 'attention.softmax_scale_dim'"):
            parse_config_text("\n".join(lines))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_text_has_no_scale_key_and_round_trips(self, name):
        text = format_config_text(PRESETS[name])
        assert "softmax_scale_dim" not in text
        assert parse_config_text(text) == PRESETS[name]


# Every field at a valid value unlike its default and unlike every other field's,
# so a key dropped from, or crossed in, the file format cannot round-trip.
EVERY_FIELD = ModelConfig(
    AttentionConfig(
        n_q_heads=4, n_k_heads=2, n_v_heads=1, d_head=8, d_k_head=6,
        aug_q_dim=12, rope_theta=1e4,
    ),
    n_layers=3, d_model=32, d_ffn=40, vocab_size=50, max_seq_len=70,
)


class TestNamedOnce:
    def test_every_field_is_set_apart(self):
        given = EVERY_FIELD.attention
        values = [getattr(given, f.name) for f in fields(AttentionConfig)]
        values += [getattr(EVERY_FIELD, f.name) for f in fields(ModelConfig) if f.name != "attention"]
        assert len(set(values)) == len(values)
        required = {f.name: getattr(given, f.name) for f in fields(given) if f.default is MISSING}
        defaults = AttentionConfig(**required)
        for f in fields(AttentionConfig):
            assert f.name in required or getattr(given, f.name) != getattr(defaults, f.name), f.name

    @pytest.mark.parametrize("cfg", [EVERY_FIELD, EVERY_FIELD.attention], ids=["model", "attention"])
    def test_every_field_round_trips(self, cfg):
        assert validate_model_config(EVERY_FIELD) is EVERY_FIELD
        assert parse_config_text(format_config_text(cfg)) == cfg

    def test_written_keys_are_the_dataclass_fields(self):
        written = [line.split(" = ")[0] for line in format_config_text(EVERY_FIELD).splitlines()]
        expected = [f"attention.{f.name}" for f in fields(AttentionConfig)]
        expected += [f"model.{f.name}" for f in fields(ModelConfig) if f.name != "attention"]
        assert written == expected


# One valid value for every field of each value object; TYPE_CASES spoils one field at a time.
VALID_FIELDS = {
    AttentionConfig: dict(
        n_q_heads=8, n_k_heads=2, n_v_heads=4, d_head=4, d_k_head=2,
        aug_q_dim=48, rope_theta=1e4,
    ),
    ModelConfig: dict(
        attention=AttentionConfig(8, 2, 4, 4), n_layers=2, d_model=32, d_ffn=96,
        vocab_size=64, max_seq_len=512,
    ),
    SelectivePolicy: dict(k_top=2),
    CostGrid: dict(prefix_lengths=(0, 8), output_lengths=(1, 4), batch=2),
    CostModelParams: dict(alpha=1.0, beta=2.0, attn_alpha=0.5, augq_cost_per_token=3.0),
}

TYPE_CASES = [
    (cls, f.name, bad)
    for cls in VALID_FIELDS
    for f in fields(cls)
    for bad in (True, "5")
] + [
    (AttentionConfig, "rope_theta", math.nan),
    (AttentionConfig, "d_head", 4.0),
    (SelectivePolicy, "k_top", 1.5),
    (CostGrid, "prefix_lengths", (1.5,)),
    (CostGrid, "output_lengths", (True,)),
    (CostGrid, "prefix_lengths", [0, 8]),
    (CostModelParams, "alpha", "x"),
]


# (least, value, message): check_int's refusal for each kind of bound, None where it accepts.
CHECK_INT_CASES = [
    (None, -7, None),
    (None, 2.0, "n must be an integer, got 2.0"),
    (0, 0, None),
    (0, -1, "n must be a non-negative integer, got -1"),
    (1, 1, None),
    (1, 0, "n must be a positive integer, got 0"),
    (3, 3, None),
    (3, np.int64(4), None),
    (3, 2, "n must be an integer >= 3, got 2"),
    (3, True, "n must be an integer >= 3, got True"),
    (3, 3.0, "n must be an integer >= 3, got 3.0"),
]

# (value, accepted with positive=True, accepted with positive=False): check_real.
CHECK_REAL_CASES = [
    (1.5, True, True),
    (2, True, True),
    (np.float64(1e-300), True, True),
    (0.0, False, True),
    (0, False, True),
    (-1.0, False, False),
    (-1e-300, False, False),
    (math.nan, False, False),
    (math.inf, False, False),
    (-math.inf, False, False),
    (True, False, False),
    (False, False, False),
    ("1", False, False),
    (1 + 0j, False, False),
]


class TestNumericChecks:
    @pytest.mark.parametrize("least,value,message", CHECK_INT_CASES)
    def test_check_int(self, least, value, message):
        if message is None:
            check_int("n", value, least, UsageError)
        else:
            with pytest.raises(UsageError) as excinfo:
                check_int("n", value, least, UsageError)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("positive", [True, False])
    @pytest.mark.parametrize("value,when_positive,when_non_negative", CHECK_REAL_CASES)
    def test_check_real(self, value, when_positive, when_non_negative, positive):
        if when_positive if positive else when_non_negative:
            check_real("x", value, positive=positive, error=UsageError)
            return
        with pytest.raises(UsageError) as excinfo:
            check_real("x", value, positive=positive, error=UsageError)
        what = "positive" if positive else "non-negative"
        assert str(excinfo.value) == f"x must be finite and {what}, got {value!r}"

    def test_check_real_raises_config_error_by_default(self):
        with pytest.raises(ConfigError):
            check_real("x", 0.0)


class TestConstructionChecksTypes:
    @pytest.mark.parametrize("cls", list(VALID_FIELDS), ids=lambda cls: cls.__name__)
    def test_valid_fields_construct(self, cls):
        obj = cls(**VALID_FIELDS[cls])
        assert {name: getattr(obj, name) for name in VALID_FIELDS[cls]} == VALID_FIELDS[cls]

    @pytest.mark.parametrize(
        "cls,name,bad", TYPE_CASES, ids=[f"{c.__name__}.{n}={b!r}" for c, n, b in TYPE_CASES]
    )
    def test_wrong_type_rejected(self, cls, name, bad):
        with pytest.raises(DiffQKVError, match=name):
            cls(**{**VALID_FIELDS[cls], name: bad})

    def test_invalid_config_cannot_reach_its_consumers(self):
        valid = attn(8, 2, 4, d_head=4)
        x = np.zeros((1, 3, 32))
        w = init_attention_weights(valid)
        for change in (dict(d_k_head=-2), dict(rope_theta=math.nan), dict(n_v_heads=3)):
            with pytest.raises(ConfigError):
                kv_cache_cost(replace(valid, **change), 1, 1, CostModelParams())
            with pytest.raises(ConfigError):
                DifferentialKVCache(replace(valid, **change), 1, 4)
            with pytest.raises(ConfigError):
                naive_diffqkv_attention(x, w, replace(valid, **change))


# Every library entry point that takes an attention config, called with ``bad`` in its place.
CFG_CONSUMERS = {
    "kv_cache_cost": lambda bad: kv_cache_cost(bad, 1, 8, CostModelParams()),
    "reduction_rate": lambda bad: reduction_rate(PRESETS["gqa-16"].attention, bad),
    "total_cost_curve": lambda bad: total_cost_curve(
        bad, PRESETS["sigma-1.5b"].attention, SCALED_GRID, CostModelParams()
    ),
    "crossover_prefix": lambda bad: crossover_prefix(
        PRESETS["gqa-16"].attention, bad, 1, CostModelParams()
    ),
    "init_attention_weights": lambda bad: init_attention_weights(bad),
}


@pytest.mark.parametrize("bad", ["x", None, PRESETS["sigma-1.5b"]], ids=["str", "None", "ModelConfig"])
@pytest.mark.parametrize("consumer", list(CFG_CONSUMERS))
def test_non_attention_config_rejected(consumer, bad):
    with pytest.raises(ConfigError, match="must be an AttentionConfig"):
        CFG_CONSUMERS[consumer](bad)


class TestBenchmarkConfigs:
    """perfbench's configs, built as perfbench/workloads.py builds them."""

    def test_chat(self):
        sigma = PRESETS["sigma-1.5b"]
        model = validate_model_config(
            ModelConfig(
                attention=sigma.attention,
                n_layers=1,
                d_model=sigma.d_model,
                d_ffn=2048,
                vocab_size=2048,
                max_seq_len=4096,
            )
        )
        assert model.d_model == 2048 and model.attention == sigma.attention

    def test_long_context(self):
        sigma = PRESETS["sigma-1.5b"].attention
        attn_cfg = AttentionConfig(
            n_q_heads=sigma.n_q_heads,
            n_k_heads=sigma.n_k_heads,
            n_v_heads=sigma.n_v_heads,
            d_head=16,
            d_k_head=8,
            aug_q_dim=768,
            rope_theta=sigma.rope_theta,
        )
        model = validate_model_config(
            ModelConfig(
                attention=attn_cfg, n_layers=2, d_model=512, d_ffn=1536, vocab_size=2048,
                max_seq_len=4096,
            )
        )
        assert (attn_cfg.n_q_heads, attn_cfg.n_k_heads, attn_cfg.n_v_heads) == (32, 4, 16)
        assert model.attention.half_k and model.attention.has_aug_q
