import os
import subprocess
import sys

import numpy as np
import pytest

import diffqkv.attention
import diffqkv.cli
import diffqkv.verify
from diffqkv.cli import main
from diffqkv.config import format_config_text, toy_preset
from diffqkv.errors import UsageError
from diffqkv.kvcache import DifferentialKVCache
from diffqkv.model import init_model
from diffqkv.tensorio import write_tensors
from diffqkv.verify import run_verify


class TestVerifyCommand:
    def test_cost_suite_passes_and_reports_rate(self, capsys):
        assert main(["verify", "--suite", "cost"]) == 0
        out = capsys.readouterr().out
        assert "37.5000%" in out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("instances", [0, -1, 2.5])
    def test_run_verify_refuses_instances_below_one(self, instances):
        # instances=0 used to return a vacuous PASS over no instance.
        with pytest.raises(UsageError, match="instances"):
            run_verify("equivalence", instances=instances)

    def test_all_suite_runs_each_property_once(self):
        shared = "sigma/gqa-16 footprint ratio == 0.625"  # in both the cache and cost suites
        for suite in ("cache", "cost", "all"):
            names = [r.name for r in run_verify(suite, instances=8).results]
            assert shared in names and len(names) == len(set(names)), suite

    def test_corrupted_head_map_fails_equivalence(self, monkeypatch, capsys):
        real = diffqkv.attention._query_groups

        def corrupted(rows, n_src):
            # Serve each block of query heads from the next K/V head.
            return np.roll(real(rows, n_src), 1, axis=1)

        monkeypatch.setattr(diffqkv.attention, "_query_groups", corrupted)
        assert main(["verify", "--suite", "equivalence", "--instances", "8"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] grouped-attention duplication equivalence" in out

    def test_early_failures_report_property_name_and_instances_run(self, monkeypatch):
        monkeypatch.setattr(diffqkv.verify, "select_top_k", lambda alpha, policy: alpha.copy())
        real_footprint = DifferentialKVCache.footprint

        def overcounted(cache):
            fp = real_footprint(cache)
            return fp._replace(total=fp.total + 1)

        monkeypatch.setattr(DifferentialKVCache, "footprint", overcounted)
        for check, name in [
            (diffqkv.verify.check_selective_v, "selective-V exactness and error bound"),
            (diffqkv.verify.check_footprint_accounting, "cache footprint accounting"),
        ]:
            result = check()
            assert (result.name, result.instances, result.passed) == (name, 1, False)


class TestCostCommand:
    def test_writes_csv_and_prints_rate(self, tmp_path, capsys):
        out_path = tmp_path / "cost.csv"
        assert main(["cost", "--std", "gqa-16", "--sigma", "sigma-1.5b",
                     "--grid", "long", "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 37  # header + 6x6 grid
        assert "3/8 (37.5000%)" in capsys.readouterr().out

    def test_custom_grid_spec(self, tmp_path):
        out_path = tmp_path / "cost.csv"
        assert main(["cost", "--grid", "8,16:4", "--out", str(out_path)]) == 0
        assert len(out_path.read_text().strip().split("\n")) == 3

    def test_bad_grid_spec_exit_2(self, tmp_path):
        assert main(["cost", "--grid", "nope", "--out", str(tmp_path / "x.csv")]) == 2

    def test_unknown_config_exit_1(self, tmp_path):
        assert main(["cost", "--std", "missing.cfg", "--out", str(tmp_path / "x.csv")]) == 1


class TestBenchCommand:
    def test_small_bench_run(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        code = main(["bench", "--grid", "8,32:8", "--reps", "3", "--out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        assert "0.625" in capsys.readouterr().out

    def test_reps_below_three_exit_2(self, tmp_path):
        assert main(["bench", "--grid", "8:8", "--reps", "2", "--out", str(tmp_path / "x.csv")]) == 2


class TestTrainAndDecode:
    def test_train_writes_checkpoint_and_decode_runs(self, tmp_path, capsys):
        ckpt = tmp_path / "toy.ckpt"
        code = main(["train-toy", "--steps", "3", "--seed", "1",
                     "--batch", "4", "--seq-len", "8", "--out", str(ckpt)])
        assert code == 0
        assert ckpt.exists()
        out = capsys.readouterr().out
        assert "step     1" in out and "final loss" in out

        assert main(["decode", "--checkpoint", str(ckpt), "--prompt", "3 1 4 1", "--n", "5"]) == 0
        tokens = capsys.readouterr().out.split()
        assert len(tokens) == 9
        assert tokens[:4] == ["3", "1", "4", "1"]

    def test_train_stops_at_non_finite_loss(self, tmp_path, capsys, monkeypatch):
        real = diffqkv.cli.train_step
        steps = []

        def diverging(model, batch, lr):
            steps.append(len(steps) + 1)
            return float("nan") if len(steps) == 3 else real(model, batch, lr)

        monkeypatch.setattr(diffqkv.cli, "train_step", diverging)
        ckpt = tmp_path / "toy.ckpt"
        code = main(["train-toy", "--steps", "5", "--batch", "2", "--seq-len", "6",
                     "--out", str(ckpt)])
        assert code == 1
        assert steps == [1, 2, 3]
        assert capsys.readouterr().err.startswith("error: step 3")
        assert not ckpt.exists()

    def test_train_accepts_config_file(self, tmp_path):
        cfg_path = tmp_path / "toy.cfg"
        cfg_path.write_text(format_config_text(toy_preset("gqa-4")))
        assert main(["train-toy", "--config", str(cfg_path), "--steps", "2",
                     "--batch", "2", "--seq-len", "6"]) == 0

    def test_decode_bad_prompt_exit_2(self, tmp_path):
        ckpt = tmp_path / "toy.ckpt"
        main(["train-toy", "--steps", "1", "--batch", "2", "--seq-len", "6", "--out", str(ckpt)])
        assert main(["decode", "--checkpoint", str(ckpt), "--prompt", "abc", "--n", "2"]) == 2

    def test_decode_refuses_a_checkpoint_with_the_old_scale_key(self, tmp_path, capsys):
        # Checkpoints once echoed attention.softmax_scale_dim; logits now scale by d_head alone.
        model = init_model(toy_preset("gqa-4"))
        ckpt = tmp_path / "old.ckpt"
        text = format_config_text(model.config) + "attention.softmax_scale_dim = 4\n"
        write_tensors(ckpt, model.named_tensors(), text)
        assert main(["decode", "--checkpoint", str(ckpt), "--prompt", "1 2", "--n", "2"]) == 1
        assert "unknown key 'attention.softmax_scale_dim'" in capsys.readouterr().err

    def test_decode_bad_magic_exit_1(self, tmp_path, capsys):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(b"NOPE" + bytes(12))
        assert main(["decode", "--checkpoint", str(ckpt), "--prompt", "1 2", "--n", "2"]) == 1
        assert "error: bad magic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case,args,code",
        [
            ("ok", ["--prompt", "1 2", "--n", "2"], 0),
            ("zero new tokens", ["--prompt", "1 2", "--n", "0"], 0),
            ("no file", ["--checkpoint", "missing.ckpt", "--prompt", "1", "--n", "1"], 2),
            ("negative n", ["--prompt", "1 2", "--n", "-3"], 2),
            ("bad prompt", ["--prompt", "abc", "--n", "2"], 2),
            ("truncated checkpoint", ["--checkpoint", "truncated", "--prompt", "1", "--n", "2"], 1),
            ("token out of range", ["--prompt", "1 999", "--n", "2"], 1),
            ("past max_seq_len", ["--prompt", "1", "--n", "600"], 1),
        ],
    )
    def test_decode_exit_codes(self, tmp_path, capsys, case, args, code):
        ckpt = tmp_path / "toy.ckpt"
        main(["train-toy", "--steps", "1", "--batch", "2", "--seq-len", "6", "--out", str(ckpt)])
        truncated = tmp_path / "truncated.ckpt"
        truncated.write_bytes(ckpt.read_bytes()[:-100])
        paths = {"missing.ckpt": str(tmp_path / "missing.ckpt"), "truncated": str(truncated)}
        args = [paths.get(a, a) for a in args]
        if "--checkpoint" not in args:
            args = ["--checkpoint", str(ckpt), *args]
        capsys.readouterr()
        assert main(["decode", *args]) == code, case
        err = capsys.readouterr().err
        assert err.startswith("error: ") if code else err == ""

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        def run():
            main(["train-toy", "--steps", "2", "--batch", "2", "--seq-len", "6"])
            return capsys.readouterr().out

        monkeypatch.setenv("DIFFQKV_SEED", "7")
        with_env = run()
        monkeypatch.setenv("DIFFQKV_SEED", "8")
        other_env = run()
        monkeypatch.setenv("DIFFQKV_SEED", "7")
        assert run() == with_env
        assert with_env != other_env

    @pytest.mark.parametrize("command", ["bench", "train-toy"])
    def test_env_seed_not_an_integer_exit_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("DIFFQKV_SEED", "abc")
        args = {"bench": ["--grid", "8:8", "--reps", "3", "--out", str(tmp_path / "b.csv")],
                "train-toy": ["--steps", "1", "--batch", "2", "--seq-len", "6"]}[command]
        assert main([command, *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: DIFFQKV_SEED must be a non-negative integer, got 'abc'\n"


@pytest.mark.parametrize(
    "case,args,code",
    [
        ("cost ok", ["cost", "--grid", "8:4"], 0),
        ("cost alpha 0", ["cost", "--alpha", "0"], 2),
        ("cost alpha -1", ["cost", "--alpha", "-1"], 2),
        ("cost alpha nan", ["cost", "--alpha", "nan"], 2),
        ("cost descending grid", ["cost", "--grid", "16,8:4"], 2),
        ("train ok", ["train-toy", "--steps", "1", "--batch", "2", "--seq-len", "6"], 0),
        ("train batch 0", ["train-toy", "--batch", "0"], 2),
        ("train seq-len 1", ["train-toy", "--seq-len", "1"], 2),
        ("train seq-len past max_seq_len", ["train-toy", "--seq-len", "600"], 2),
        ("train steps 0", ["train-toy", "--steps", "0"], 2),
        ("train log-every 0", ["train-toy", "--steps", "2", "--log-every", "0"], 2),
        ("train lr nan", ["train-toy", "--lr", "nan"], 2),
        ("train lr inf", ["train-toy", "--lr", "inf"], 2),
        ("train lr 0", ["train-toy", "--lr", "0"], 2),
        ("cost unwritable out", ["cost", "--grid", "8:4", "--out", "/nonexistent/x.csv"], 2),
        ("bench unwritable out",
         ["bench", "--grid", "8:8", "--reps", "3", "--out", "/nonexistent/x.csv"], 2),
        ("train unwritable out", ["train-toy", "--steps", "1", "--batch", "2", "--seq-len", "6",
                                  "--out", "/nonexistent/x.ckpt"], 2),
        ("verify instances 0", ["verify", "--suite", "cache", "--instances", "0"], 2),
        ("verify instances -1", ["verify", "--suite", "cache", "--instances", "-1"], 2),
        ("cost beta nan", ["cost", "--grid", "8:8", "--beta", "nan"], 2),
        ("cost alpha inf", ["cost", "--grid", "8:8", "--alpha", "inf"], 2),
        ("cost attn-alpha inf", ["cost", "--grid", "8:8", "--attn-alpha", "inf"], 2),
        ("cost augq-cost nan", ["cost", "--grid", "8:8", "--augq-cost", "nan"], 2),
        ("bench seed -1", ["bench", "--grid", "8:8", "--reps", "3", "--seed", "-1"], 2),
        ("train seed -1", ["train-toy", "--steps", "1", "--batch", "2", "--seq-len", "6",
                           "--seed", "-1"], 2),
        ("cost grid 0:0", ["cost", "--grid", "0:0"], 2),
        ("cost attn-alpha -1", ["cost", "--grid", "8:8", "--attn-alpha", "-1"], 2),
        ("cost negative output", ["cost", "--grid=8:-8"], 2),
        ("bench negative prefix", ["bench", "--grid=-4:8", "--reps", "3"], 2),
        ("bench grid 0:0", ["bench", "--grid", "0:0", "--reps", "3"], 2),
        ("cost overflows to inf", ["cost", "--grid", "long", "--alpha", "1e300"], 2),
        ("cost output past float range", ["cost", "--grid", "8:" + "9" * 400], 2),
        ("cost beta -1", ["cost", "--grid", "8:8", "--beta", "-1"], 2),
        ("cost augq-cost -1", ["cost", "--grid", "8:8", "--augq-cost", "-1"], 2),
        ("cost prefix 0 ok", ["cost", "--grid", "0:1"], 0),
        ("bench caches past physical memory", ["bench", "--grid", "0:100000000", "--reps", "3"], 2),
    ],
)
def test_bad_number_exit_codes(tmp_path, capsys, case, args, code):
    if args[0] in ("cost", "bench") and "--out" not in args:
        args = [*args, "--out", str(tmp_path / f"{args[0]}.csv")]
    assert main(args) == code, case
    out, err = capsys.readouterr()
    assert err.startswith("error: ") if code else err == ""
    assert code == 0 or not (tmp_path / f"{args[0]}.csv").exists(), case
    if "unwritable" in case:
        assert out == "", case  # refused before any work is done


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_without_a_traceback(unbuffered):
    # The read end of stdout's pipe is closed before the run, as in `diffqkv verify ... | true`.
    # Buffered, the write fails only at the last flush; unbuffered, in the first print.
    src = os.path.dirname(os.path.dirname(diffqkv.cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env["PYTHONUNBUFFERED"] = unbuffered
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "diffqkv.cli", "verify", "--suite", "cost"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert run.returncode == 1, run.stderr
    assert "Traceback" not in run.stderr and "BrokenPipeError" not in run.stderr, run.stderr


class TestArgparseBehaviour:
    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
