"""`diffqkv` command line harness.

Subcommands:
    verify     run a property suite (equivalence | gradients | cache | cost | all)
    cost       analytic cost-model sweep over a prefix/output grid -> CSV
    bench      wall-clock micro-benchmarks over a grid -> CSV
    train-toy  train the toy causal LM on the copy task
    decode     greedy decoding from a saved checkpoint

Exit codes: 0 success, 1 property failure, 2 usage error.  --seed defaults
to 42.  Config arguments accept a preset name or a config-file path.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import astuple

import numpy as np

from .bench import augq_prefix_independence, emit_csv, run_bench, traffic_ratio
from .config import (
    ModelConfig,
    PRESETS,
    attention_of,
    check_int,
    resolve_config,
    toy_preset,
)
from .costmodel import (
    CostGrid,
    CostModelParams,
    LONG_CONTEXT_GRID,
    SCALED_GRID,
    cost_table_csv,
    format_rate,
    reduction_rate,
    total_cost_curve,
)
from .errors import ConfigError, DiffQKVError, DivergenceError, UsageError
from .model import (
    copy_task_batch,
    decode,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from .verify import run_verify

DEFAULT_SEED = 42


def _parse_grid(spec: str) -> CostGrid:
    if spec == "long":
        return LONG_CONTEXT_GRID
    if spec == "scaled":
        return SCALED_GRID
    try:
        prefix_part, output_part = spec.split(":")
        prefixes = tuple(int(v) for v in prefix_part.split(","))
        outputs = tuple(int(v) for v in output_part.split(","))
        return CostGrid(prefix_lengths=prefixes, output_lengths=outputs)
    except ValueError as exc:  # a malformed spec, or lengths CostGrid refuses
        raise UsageError(
            f"bad grid spec {spec!r} ({exc}); use 'scaled', 'long' or 'P1,P2,..:N1,N2,..'"
        ) from exc


def _write(write, content, path) -> None:
    """``write(content, path)``, with a failed write mapped to a UsageError."""
    try:
        write(content, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_out(path) -> None:
    """Refuse an output path that cannot be written, before a long run rather than after.

    The file itself is not created, so a run that fails later leaves none behind.
    """
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"cannot write {path}: no directory {parent}")
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")


def _cmd_verify(args) -> int:
    report = run_verify(args.suite)
    print(report.format())
    return 0 if report.ok else 1


def _cmd_cost(args) -> int:
    std = attention_of(resolve_config(args.std))
    sigma = attention_of(resolve_config(args.sigma))
    grid = _parse_grid(args.grid)
    try:
        params = CostModelParams(
            alpha=args.alpha,
            beta=args.beta,
            attn_alpha=args.attn_alpha,
            augq_cost_per_token=args.augq_cost,
        )
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc
    try:
        rows = total_cost_curve(std, sigma, grid, params)
        finite = all(math.isfinite(value) for row in rows for value in astuple(row))
    except OverflowError:  # a length too large to convert to float
        finite = False
    if not finite:
        raise UsageError("the modeled costs overflow on this grid; lower the lengths or parameters")
    _write(emit_csv, cost_table_csv(rows), args.out)
    rate = reduction_rate(std, sigma)
    print(f"asymptotic reduction rate: {format_rate(rate)}")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    std = attention_of(resolve_config(args.std))
    sigma = attention_of(resolve_config(args.sigma))
    grid = _parse_grid(args.grid)
    _check_out(args.out)
    check_int("--seed", args.seed, 0, UsageError)
    report = run_bench(std, sigma, grid, reps=args.reps, seed=args.seed)
    _write(emit_csv, report.to_csv(), args.out)
    ratios = traffic_ratio(report, "kv_cache")
    spread, allowance, augq_ok = augq_prefix_independence(report)
    print(f"kv_cache element-traffic ratio sigma/std: {ratios[0]:.6f}" if ratios else "no ratio")
    print(
        f"augmented-Q spread across grid: {spread * 1e3:.3f} ms "
        f"(allowance {allowance * 1e3:.3f} ms) -> {'ok' if augq_ok else 'PREFIX-DEPENDENT'}"
    )
    print(f"wrote {len(report.rows)} rows to {args.out}")
    return 0 if augq_ok else 1


# Least accepted value of each integer train-toy argument: the loss needs two positions.
_TRAIN_MINIMA = {"steps": 1, "batch": 1, "seq_len": 2, "log_every": 1, "seed": 0}


def _cmd_train_toy(args) -> int:
    for name, least in _TRAIN_MINIMA.items():
        check_int("--" + name.replace("_", "-"), getattr(args, name), least, UsageError)
    if args.config is None:
        cfg = toy_preset("sigma-1.5b")
    elif args.config in PRESETS:
        cfg = toy_preset(args.config)  # full presets are not desk-trainable
    else:
        cfg = resolve_config(args.config)
        if not isinstance(cfg, ModelConfig):
            raise UsageError("train-toy needs a config file with a model block")
    if args.seq_len > cfg.max_seq_len:
        raise UsageError(f"--seq-len {args.seq_len} exceeds the model's max_seq_len {cfg.max_seq_len}")
    if args.out:
        _check_out(args.out)
    model = init_model(cfg, seed=args.seed)
    rng = np.random.default_rng(args.seed)

    first_loss = None
    for step in range(1, args.steps + 1):
        batch = copy_task_batch(rng, args.batch, args.seq_len, cfg.vocab_size)
        try:
            loss = train_step(model, batch, args.lr)
        except DivergenceError as err:
            raise DivergenceError(f"step {step}: {err}; no checkpoint written") from None
        if first_loss is None:
            first_loss = loss
        if step == 1 or step % args.log_every == 0 or step == args.steps:
            print(f"step {step:5d}  loss {loss:.4f}")
    print(f"initial loss {first_loss:.4f}, final loss {loss:.4f}")
    if args.out:
        _write(save_checkpoint, model, args.out)
        print(f"checkpoint written to {args.out}")
    return 0


def _cmd_decode(args) -> int:
    check_int("--n", args.n, 0, UsageError)
    try:
        prompt = [int(tok) for tok in args.prompt.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"prompt must be token ids, got {args.prompt!r}") from exc
    if not prompt:
        raise UsageError("prompt must contain at least one token id")
    try:
        model = load_checkpoint(args.checkpoint)
    except OSError as exc:
        raise UsageError(f"cannot read checkpoint: {exc}") from exc
    tokens = decode(model, prompt, args.n)
    print(" ".join(str(t) for t in tokens))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diffqkv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("cost", help="analytic cost sweep -> CSV")
    p.add_argument("--std", default="gqa-16")
    p.add_argument("--sigma", default="sigma-1.5b")
    p.add_argument("--grid", default="long")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--attn-alpha", type=float, default=1.0)
    p.add_argument("--augq-cost", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_cost)

    p = sub.add_parser("bench", help="wall-clock micro-benchmarks -> CSV")
    p.add_argument("--std", default="gqa-16")
    p.add_argument("--sigma", default="sigma-1.5b")
    p.add_argument("--grid", default="scaled")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("train-toy", help="train the toy LM on the copy task")
    p.add_argument("--config", default=None, help="config file or preset name (toy-scaled)")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--lr", type=float, default=0.2)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--seq-len", type=int, default=32)
    p.add_argument("--log-every", type=int, default=20)
    p.add_argument("--out", default=None, help="write a checkpoint here")
    p.set_defaults(fn=_cmd_train_toy)

    p = sub.add_parser("decode", help="greedy decoding from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--prompt", required=True, help="token ids, e.g. '3 1 4 1'")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_decode)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's flush at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiffQKVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout: point it at devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
