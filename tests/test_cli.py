import numpy as np
import pytest

import diffqkv.attention
import diffqkv.cli
from diffqkv.cli import main
from diffqkv.config import format_config_text, toy_preset


class TestVerifyCommand:
    def test_cost_suite_passes_and_reports_rate(self, capsys):
        assert main(["verify", "--suite", "cost"]) == 0
        out = capsys.readouterr().out
        assert "37.5000%" in out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_corrupted_head_map_fails_equivalence(self, monkeypatch, capsys):
        real = diffqkv.attention._query_groups

        def corrupted(rows, n_src):
            # Serve each block of query heads from the next K/V head.
            return np.roll(real(rows, n_src), 1, axis=1)

        monkeypatch.setattr(diffqkv.attention, "_query_groups", corrupted)
        assert main(["verify", "--suite", "equivalence", "--instances", "8"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] grouped-attention duplication equivalence" in out


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
    ],
)
def test_bad_number_exit_codes(tmp_path, capsys, case, args, code):
    if args[0] == "cost":
        args = [*args, "--out", str(tmp_path / "cost.csv")]
    assert main(args) == code, case
    err = capsys.readouterr().err
    assert err.startswith("error: ") if code else err == ""


class TestArgparseBehaviour:
    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
