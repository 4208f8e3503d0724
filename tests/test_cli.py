import csv
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testtrim import cli
from testtrim.cli import main
from testtrim.config import CORPUS_KEYS, RunConfig, config_to_text, save_config
from testtrim.dataset import dataset_from_traces, split_corpus
from testtrim.diagnosis import read_traces
from testtrim.faultsim import FaultDictionary
from testtrim.models import load_model
from testtrim.netlist import format_bench

from conftest import move_line, random_small_circuit


def _write_config(tmp_path, **overrides) -> Path:
    cfg = RunConfig(**overrides)
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    return path


def _smoke_overrides(out_dir, circuits=2):
    return dict(
        corpus_circuits=circuits, corpus_patterns=24, corpus_seed=13,
        corpus_min_inputs=4, corpus_max_inputs=5,
        corpus_min_gates=8, corpus_max_gates=12,
        split_train_fraction=0.5, split_validation_fraction=0.0, split_seed=0,
        model_kind="linear", model_alpha=1e-3, policy_tau=0.9,
        out_dir=str(out_dir),
    )


def _tree(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _trained_config(run: Path) -> str:
    """The config a module fixture's ``run`` was generated and trained with
    (the out dir's own config.txt records the corpus and the split only)."""
    return str(run.parent / "config.txt")


def test_smoke_pipeline_two_circuits(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, **_smoke_overrides(out))
    t0 = time.time()
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    assert main(["oracle-eval", "--config", str(cfg_path)]) == 0
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"smoke pipeline took {elapsed:.1f}s"

    for name in ("dataset.csv", "traces.csv", "config.txt", "model.txt",
                 "report.csv", "summary.csv", "oracle_report.csv",
                 "oracle_summary.csv"):
        assert (out / name).exists(), name
    assert list((out / "netlists").glob("*.bench"))
    assert list((out / "dicts").glob("*.dict"))

    printed = capsys.readouterr().out
    assert "generated corpus: 2 circuits" in printed


def test_pipeline_reruns_byte_identical(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    overrides = _smoke_overrides(out1, circuits=6)
    cfg1 = _write_config(tmp_path / "a" if (tmp_path / "a").mkdir() or True else tmp_path,
                         **overrides)
    for cmd in ("generate", "train", "evaluate"):
        assert main([cmd, "--config", str(cfg1)]) == 0
    # same config, different output directory
    for cmd in ("generate", "train", "evaluate"):
        assert main([cmd, "--config", str(cfg1), "--out", str(out2)]) == 0
    assert _tree(out1) == _tree(out2)


def test_oracle_eval_reports_perfect_accuracy(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, **{**_smoke_overrides(out, circuits=6),
                                          "policy_tau": "auto",
                                          "split_validation_fraction": 0.34})
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["oracle-eval", "--config", str(cfg_path)]) == 0
    assert "diagnosis_accuracy=1.0000" in capsys.readouterr().out
    summary = (out / "oracle_summary.csv").read_text().splitlines()[1]
    assert summary.split(",")[2] == "1.000000"


def test_sweep_emits_grid_ordered_csvs(tmp_path):
    out = tmp_path / "run"
    overrides = _smoke_overrides(out, circuits=10)
    overrides.update(split_train_fraction=0.6, split_validation_fraction=0.34,
                     model_iterations=60, model_landmark_cap=32)
    cfg_path = _write_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["sweep", "--config", str(cfg_path)]) == 0

    sweep = (out / "sweep_alpha.csv").read_text().splitlines()
    assert len(sweep) == 1 + 4
    assert [line.split(",")[0] for line in sweep[1:]] == \
        ["0.0001", "0.001", "0.01", "0.1"]
    betas = (out / "beta_weights.csv").read_text().splitlines()
    assert len(betas) == 1 + 4
    curve = (out / "learning_curve.csv").read_text().splitlines()
    assert len(curve) >= 3
    sizes = [int(line.split(",")[0]) for line in curve[1:]]
    assert sizes == sorted(sizes)


def test_linear_model_scores_as_its_sweep_row(tmp_path):
    # train and evaluate fit the lasso that sweep fits at model.alpha, so
    # both score the test circuits alike; on this corpus a ridge fit at the
    # same alpha saves another volume
    out = tmp_path / "run"
    overrides = _smoke_overrides(out, circuits=10)
    overrides.update(model_kind="kernel-logistic", split_validation_fraction=0.34,
                     policy_tau="auto", model_iterations=60, model_landmark_cap=32)
    cfg_path = _write_config(tmp_path, **overrides)
    with redirect_stdout(io.StringIO()):
        for argv in (["generate"], ["sweep"], ["train", "--model", "linear"],
                     ["evaluate", "--model", "linear"]):
            assert main([*argv, "--config", str(cfg_path)]) == 0, argv
    with open(out / "sweep_alpha.csv", newline="") as fh:
        row = next(r for r in csv.DictReader(fh) if float(r["alpha"]) == 1e-3)
    with open(out / "summary.csv", newline="") as fh:
        summary = next(csv.DictReader(fh))
    assert [summary[key] for key in ("tau", "diagnosis_accuracy", "volume_reduction",
                                     "classification_accuracy")] == \
        [row[key] for key in ("tau", "diagnosis_accuracy", "volume_reduction",
                              "label_accuracy")]
    assert summary["model"] == "linear(alpha=0.001)"


def test_train_before_generate_fails_cleanly(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, **_smoke_overrides(tmp_path / "nope"))
    assert main(["train", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "generate" in err


@pytest.mark.parametrize("stage", ["train", "generate"])
def test_failed_stage_leaves_no_out_dir(tmp_path, capsys, stage):
    out = tmp_path / "nope_dir"
    if stage == "generate":
        # no .bench file to read: the corpus build fails
        empty = tmp_path / "benches"
        empty.mkdir()
        overrides = _smoke_overrides(out)
        overrides["corpus_netlist_dir"] = str(empty)
        argv = ["generate", "--config", str(_write_config(tmp_path, **overrides))]
    else:
        argv = ["train", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out.exists()


def test_evaluate_refuses_split_mismatch(tmp_path, capsys):
    out = tmp_path / "run"
    overrides = _smoke_overrides(out, circuits=8)
    cfg_path = _write_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0

    # a different split seed would send trained circuits into the test side
    overrides["split_seed"] = 7
    bad_cfg = tmp_path / "bad.txt"
    save_config(RunConfig(**overrides), bad_cfg)
    capsys.readouterr()
    assert main(["evaluate", "--config", str(bad_cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: split.seed = 7 differs from 0 recorded in {out / 'config.txt'}"]


def test_evaluate_rejects_model_missing_key(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, **_smoke_overrides(out, circuits=4))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    model_path = out / "model.txt"
    lines = model_path.read_text().splitlines()
    model_path.write_text("\n".join(ln for ln in lines if not ln.startswith("tau ")) + "\n")
    capsys.readouterr()

    assert main(["evaluate", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "'tau'" in err[0]


@pytest.fixture(scope="module")
def kernel_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("kernel")
    overrides = _smoke_overrides(base / "run", circuits=8)
    overrides.update(model_kind="kernel-logistic", model_iterations=20)
    cfg_path = _write_config(base, **overrides)
    with redirect_stdout(io.StringIO()):
        for cmd in ("generate", "train"):
            assert main([cmd, "--config", str(cfg_path)]) == 0
    return base / "run"


def _set_first_value(line: str, value: str) -> str:
    key, _, rest = line.partition(" ")
    if "." in key:  # a setting line: key = value
        return f"{key} = {value}"
    return " ".join([key, value, *rest.split()[1:]])


@pytest.mark.parametrize("key, value", [
    ("gamma", "nan"), ("gamma", "inf"), ("theta", "nan"),
    ("standardize_scale", "0.0"), ("tau", "nan"), ("tau", "7.5"), ("tau", "none"),
])
def test_evaluate_refuses_model_value_a_config_refuses(kernel_run, tmp_path, capsys,
                                                       key, value):
    out = tmp_path / "run"
    shutil.copytree(kernel_run, out)
    model_path = out / "model.txt"
    lines = model_path.read_text().splitlines()
    # gamma is the setting model.gamma
    lines = [_set_first_value(ln, value) if ln.split(" ", 1)[0] in (key, f"model.{key}") else ln
             for ln in lines]
    model_path.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--config", _trained_config(kernel_run), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    # a settings line is named by its line, as in a config file
    named = (f"error: {model_path}: ", f"error: {model_path} line ")
    assert len(err) == 1 and err[0].startswith(named) and key in err[0], err
    assert captured.out == "" and not (out / "summary.csv").exists()


def test_failed_learning_curve_leaves_no_sweep_files(tmp_path, capsys):
    # the 5 % curve subset of this corpus holds converged rows only
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, corpus_circuits=12, corpus_patterns=48,
                             corpus_seed=5, corpus_min_inputs=4, corpus_max_inputs=6,
                             corpus_min_gates=8, corpus_max_gates=16, out_dir=str(out))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err == ["error: learning curve at 3 train rows: "
                   "training labels contain a single class ([1.0])"]
    assert captured.out == ""
    for name in ("sweep_alpha.csv", "beta_weights.csv", "learning_curve.csv"):
        assert not (out / name).exists(), name


def test_sweep_refuses_a_train_side_too_small_for_a_curve(tmp_path, capsys):
    # three one-gate circuits leave one train row: no learning-curve size
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, corpus_circuits=3, corpus_seed=7,
                             corpus_min_inputs=1, corpus_max_inputs=1,
                             corpus_min_gates=1, corpus_max_gates=1, out_dir=str(out))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == \
        ["error: learning curve needs at least 2 train rows, got 1"]
    assert captured.out == ""
    for name in ("sweep_alpha.csv", "beta_weights.csv", "learning_curve.csv"):
        assert not (out / name).exists(), name


def test_evaluate_reads_pattern_count_from_traces(tmp_path, capsys):
    # a corpus.patterns in the recorded and the stage config must not
    # rescale the volume saved in traces.csv
    out = tmp_path / "run"
    overrides = _smoke_overrides(out, circuits=6)
    overrides.update(corpus_patterns=208, corpus_min_inputs=8, corpus_max_inputs=9)
    cfg_path = _write_config(tmp_path, **overrides)
    for cmd in ("generate", "train", "evaluate"):
        assert main([cmd, "--config", str(cfg_path)]) == 0
    matching = capsys.readouterr().out.splitlines()[-1]

    other = tmp_path / "other.txt"
    save_config(RunConfig(**{**overrides, "corpus_patterns": 64}), other)
    save_config(RunConfig(**{**overrides, "corpus_patterns": 64}), out / "config.txt",
                CORPUS_KEYS)
    assert main(["evaluate", "--config", str(other)]) == 0
    drifted = capsys.readouterr().out.splitlines()[-1]
    assert "volume_reduction=" in matching
    assert drifted == matching


@pytest.fixture(scope="module")
def generated_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("drift")
    overrides = _smoke_overrides(base / "run", circuits=8)
    overrides.update(split_validation_fraction=0.34, model_iterations=20)
    cfg_path = _write_config(base, **overrides)
    with redirect_stdout(io.StringIO()):
        for cmd in ("generate", "train"):
            assert main([cmd, "--config", str(cfg_path)]) == 0
    return cfg_path, overrides


@pytest.mark.parametrize("stage", ["train", "evaluate", "oracle-eval", "sweep"])
@pytest.mark.parametrize("drift", ["seed_flag", "patterns_in_config", "split_in_config"])
def test_stage_refuses_corpus_drift(generated_run, tmp_path, capsys, stage, drift):
    cfg_path, overrides = generated_run
    out = Path(overrides["out_dir"])
    before = _tree(out)
    if drift == "seed_flag":
        argv, key = ["--config", str(cfg_path), "--seed", "99"], "corpus.seed"
    else:
        attr, value = (("corpus_patterns", 64) if drift == "patterns_in_config"
                       else ("split_train_fraction", 0.9))
        drifted = tmp_path / "drifted.txt"
        save_config(RunConfig(**{**overrides, attr: value}), drifted)
        argv, key = ["--config", str(drifted)], attr.replace("_", ".", 1)
    assert main([stage, *argv]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} = ") and "config.txt" in err[0]
    assert captured.out == "" and _tree(out) == before


@pytest.fixture(scope="module")
def seed8_run(tmp_path_factory):
    """A corpus generated and a model trained with ``--seed 8`` from a config
    that leaves ``corpus.seed`` at its default, 7."""
    base = tmp_path_factory.mktemp("record")
    cfg_path = _write_config(base, corpus_circuits=12, split_train_fraction=0.5,
                             split_validation_fraction=0.34, split_seed=0, model_kind="linear",
                             policy_tau=0.9, out_dir=str(base / "run"))
    with redirect_stdout(io.StringIO()):
        for cmd in ("generate", "train"):
            assert main([cmd, "--config", str(cfg_path), "--seed", "8"]) == 0
    return cfg_path, base / "run"


def _drop_seed_line(lines):
    return [ln for ln in lines if not ln.startswith("corpus.seed ")]


def _swap_lines_2_and_3(lines):
    return [lines[0], lines[2], lines[1], *lines[3:]]


def _append_model_kind(lines):
    # a config.txt written before the linear model became the lasso held one
    return [*lines, "model.kind = linear\n"]


# config.txt lines 1-11: corpus.netlist_dir .. corpus.max_gates, then split.*
@pytest.mark.parametrize("edit, message", [
    (_drop_seed_line, "line 4: expected 'corpus.seed', got 'corpus.min_inputs'"),
    (_swap_lines_2_and_3, "line 2: expected 'corpus.circuits', got 'corpus.patterns'"),
    (_append_model_kind, "line 12: expected the end of the file, got 'model.kind'"),
], ids=["drop a line", "swap two lines", "append a model.kind line"])
def test_stage_refuses_a_config_record_not_as_generate_wrote_it(seed8_run, tmp_path, capsys,
                                                                 edit, message):
    # no default fills a dropped line: oracle-eval at the default seed once scored the
    # seed-8 corpus as seed 7
    cfg_path, run = seed8_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    record = out / "config.txt"
    for stage in ("train", "evaluate", "oracle-eval", "sweep"):
        assert main([stage, "--config", str(cfg_path), "--out", str(out), "--seed", "8"]) == 0
    capsys.readouterr()
    record.write_text("".join(edit(record.read_text().splitlines(keepends=True))))
    before = _tree(out)
    for stage in ("train", "evaluate", "oracle-eval", "sweep"):
        for seed in ([], ["--seed", "8"]):
            assert main([stage, "--config", str(cfg_path), "--out", str(out), *seed]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"error: {record} {message}"], (stage, seed)
            assert captured.out == ""
    assert _tree(out) == before


def test_train_refuses_record_contradicting_its_circuit(finished_run, tmp_path, capsys):
    # a circuit's second intermediate size rises above its first
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    lines = (out / "traces.csv").read_text().splitlines()
    line = next(i for i, ln in enumerate(lines[1:], 2) if len(ln.split(",")[4].split()) > 1)
    fields = lines[line - 1].split(",")
    sizes = fields[4].split()
    sizes[1] = str(int(sizes[0]) + 1)
    fields[4] = " ".join(sizes)
    lines[line - 1] = ",".join(fields)
    (out / "traces.csv").write_text("\n".join(lines) + "\n")
    assert main(["train", "--config", _trained_config(finished_run), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"traces.csv line {line}: intermediate size {sizes[1]} rises above" in err[0]
    assert captured.out == ""


def test_evaluate_refuses_a_pattern_count_no_int64_holds(finished_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(finished_run, out)
    lines = (out / "traces.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = str(10**23)
    lines[1] = ",".join(fields)
    (out / "traces.csv").write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--config", _trained_config(finished_run), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {out / 'traces.csv'} line 2: total_patterns {10**23} is above 2**53, "
        f"the largest int a float holds exactly"]
    assert captured.out == ""


def test_old_learning_rate_key_fails_cleanly(tmp_path, capsys):
    cfg_path = tmp_path / "old.txt"
    cfg_path.write_text("model.learning_rate = 0.3\n")
    assert main(["train", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "model.learning_rate" in err[0]


def test_train_reports_fit(tmp_path, capsys):
    out = tmp_path / "run"
    overrides = _smoke_overrides(out, circuits=6)
    overrides.update(model_kind="kernel-logistic", model_iterations=3)
    cfg_path = _write_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert "% positive)" in line
    assert "fit: 3 iterations, grad_norm=" in line and line.endswith("not converged")


def test_flag_overrides_win(tmp_path, capsys):
    out = tmp_path / "runA"
    cfg_path = _write_config(tmp_path, **_smoke_overrides(out))
    alt = tmp_path / "runB"
    assert main(["generate", "--config", str(cfg_path), "--out", str(alt),
                 "--seed", "99"]) == 0
    assert (alt / "dataset.csv").exists()
    assert not out.exists()
    echoed = (alt / "config.txt").read_text()
    assert "corpus.seed = 99" in echoed
    # the corpus and the split only: model.txt records the model's settings
    assert all(line.startswith(CORPUS_KEYS) for line in echoed.splitlines())


def test_unparseable_netlist_dir_fails(tmp_path, capsys):
    benches = tmp_path / "benches"
    benches.mkdir()
    (benches / "bad.bench").write_text("INPUT(a)\nz = WAT(a, a)\n")
    overrides = _smoke_overrides(tmp_path / "run")
    overrides["corpus_netlist_dir"] = str(benches)
    cfg_path = _write_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg_path)]) == 1
    assert "unknown gate kind" in capsys.readouterr().err


def test_bad_netlist_in_netlist_dir_is_named(tmp_path, capsys):
    benches = tmp_path / "benches"
    benches.mkdir()
    (benches / "a_ok.bench").write_text("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n")
    (benches / "b_bad.bench").write_text("INPUT(a)\nOUTPUT(z)\nz = AND(a, b)\n")
    overrides = _smoke_overrides(tmp_path / "run")
    overrides["corpus_netlist_dir"] = str(benches)
    cfg_path = _write_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {benches / 'b_bad.bench'}: line 3, col 12: "
                   f"undeclared signal 'b' used as input of 'z'"]


def test_exhaustive_limit_names_the_netlist(tmp_path, capsys):
    benches = tmp_path / "benches"
    benches.mkdir()
    (benches / "a_ok.bench").write_text("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n")
    names = [f"x{j}" for j in range(13)]
    (benches / "b_wide.bench").write_text(
        "".join(f"INPUT({n})\n" for n in names) + f"OUTPUT(z)\nz = XOR({', '.join(names)})\n")
    overrides = _smoke_overrides(tmp_path / "run")
    overrides.update(corpus_netlist_dir=str(benches), corpus_patterns="exhaustive")
    cfg_path = _write_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {benches / 'b_wide.bench'}: exhaustive pattern sets are limited to 12 "
        f"inputs, got 13"]


def test_exhaustive_limit_names_the_slot_and_max_inputs(tmp_path, capsys):
    overrides = _smoke_overrides(tmp_path / "run")
    overrides.update(corpus_patterns="exhaustive", corpus_min_inputs=13, corpus_max_inputs=13)
    cfg_path = _write_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: slot 0 (c000) with corpus.max_inputs = 13: exhaustive pattern sets are "
        "limited to 12 inputs, got 13"]


@pytest.mark.parametrize("patterns", (24, "exhaustive"))
def test_generate_reads_no_bit_tuple_patterns(tmp_path, monkeypatch, capsys, patterns):
    # FaultDictionary.patterns is a view kept for the benchmark's checks alone
    def refuse(fdict):
        raise AssertionError("FaultDictionary.patterns was read")
    monkeypatch.setattr(FaultDictionary, "patterns", property(refuse))
    overrides = _smoke_overrides(tmp_path / "run", circuits=4)
    overrides["corpus_patterns"] = patterns
    cfg_path = _write_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg_path)]) == 0, capsys.readouterr().err
    assert len(read_traces(tmp_path / "run" / "traces.csv")) == 4


def _negative_floats():
    return st.floats(max_value=-1e-300, allow_nan=False).map(repr)


# key -> values outside its range, with the default config around it
_OUT_OF_RANGE = {
    "model.alpha": st.sampled_from(["nan", "inf", "-inf"]) | _negative_floats(),
    "model.lambda": st.sampled_from(["nan", "inf", "-inf"]) | _negative_floats(),
    "model.gamma": st.sampled_from(["nan", "inf", "-inf", "0", "-0.0"]) | _negative_floats(),
    "model.iterations": st.integers(max_value=0).map(str),
    "model.landmark_cap": st.integers(max_value=0).map(str),
    "corpus.circuits": st.integers(max_value=0).map(str),
    "corpus.min_inputs": (st.integers(max_value=0)
                          | st.integers(min_value=RunConfig().corpus_max_inputs + 1)).map(str),
    "corpus.max_inputs": st.integers(max_value=RunConfig().corpus_min_inputs - 1).map(str),
    "corpus.min_gates": (st.integers(max_value=0)
                         | st.integers(min_value=RunConfig().corpus_max_gates + 1)).map(str),
    "corpus.max_gates": st.integers(max_value=RunConfig().corpus_min_gates - 1).map(str),
}
_FLAGS = {"model.alpha": "--alpha"}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), key=st.sampled_from(sorted(_OUT_OF_RANGE)),
       as_flag=st.sampled_from([None, "joined", "separate"]))
def test_out_of_range_config_value_fails_cleanly(data, key, as_flag):
    value = data.draw(_OUT_OF_RANGE[key])
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.txt"
        argv = ["train", "--config", str(cfg_path), "--out", str(Path(tmp) / "run")]
        if as_flag and key in _FLAGS:
            cfg_path.write_text("")
            # "--alpha v" as well as "--alpha=v": a value such as -1e-9 is still the value
            argv += [f"{_FLAGS[key]}={value}"] if as_flag == "joined" else [_FLAGS[key], value]
        else:
            cfg_path.write_text(f"{key} = {value}\n")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
        lines = err.getvalue().splitlines()
        assert rc == 1 and len(lines) == 1 and lines[0].startswith("error:"), lines
        assert key in lines[0]
        assert out.getvalue() == "" and not (Path(tmp) / "run").exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["train", "--alpha"], "expected one argument"),
    # the config checks the value, as it checks one set in a file
    pytest.param(["train", "--model", "tree"],
                 "model.kind must be 'linear' or 'kernel-logistic', got 'tree'", id="model-tree"),
    (["fit"], "invalid choice: 'fit'"),
    ([], "the following arguments are required: command"),
    # an error in a flag's value names the flag
    pytest.param(["train", "--seed", "x"], "error: --seed: bad value for 'corpus.seed': 'x'",
                 id="seed-x"),
])
def test_usage_error_ends_in_one_error_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines
    assert captured.out == "" and list(tmp_path.iterdir()) == []


# a value per overridden key that differs from its default and prints as given
_FLAG_VALUES = {"out.dir": "elsewhere", "corpus.seed": "11", "model.kind": "linear",
                "model.alpha": "0.5", "policy.tau": "0.9"}


@pytest.mark.parametrize("flag, key", [(flag, key) for flag, (key, _, _) in
                                       cli._OVERRIDES.items()])
def test_each_flag_overrides_its_key_alone(monkeypatch, capsys, flag, key):
    monkeypatch.setenv("COLUMNS", "200")   # one help line per flag
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    line, = [text for text in capsys.readouterr().out.splitlines()
             if text.split()[:1] == [flag]]
    assert line.endswith(f"(overrides {key})")
    args = cli._build_parser().parse_args(["train", flag, _FLAG_VALUES[key]])
    before = config_to_text(RunConfig()).splitlines()
    after = config_to_text(cli._effective_config(args)).splitlines()
    assert [b for a, b in zip(before, after) if a != b] == [f"{key} = {_FLAG_VALUES[key]}"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    assert "--alpha FLOAT" in capsys.readouterr().out


def test_defaults_without_config_flag(tmp_path):
    # no --config: built-in defaults with flag overrides only
    out = tmp_path / "run"
    rc = main(["generate", "--out", str(out), "--seed", "3"])
    assert rc == 0
    assert (out / "dataset.csv").exists()


@pytest.mark.parametrize("tau", ["1.5", "nan"])
def test_out_of_range_tau_flag_fails_cleanly(tmp_path, capsys, tau):
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, **_smoke_overrides(out))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["oracle-eval", "--config", str(cfg_path), "--tau", tau]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "policy.tau" in err[0]
    assert "volume_reduction" not in captured.out


def test_stages_read_rows_from_traces_not_dataset_export(tmp_path, capsys):
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, **_smoke_overrides(out, circuits=6))
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    trained = (out / "model.txt").read_bytes()
    (out / "dataset.csv").write_text("circuit_id,x1,x2,x3,x4,x5,y\n")
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (out / "model.txt").read_bytes() == trained


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, testtrim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cut")
    out = base / "run"
    cfg_path = _write_config(base, **_smoke_overrides(out, circuits=6))
    with redirect_stdout(io.StringIO()):
        for cmd in ("generate", "train", "evaluate"):
            assert main([cmd, "--config", str(cfg_path)]) == 0
    return out


def test_unedited_fixture_runs_pass_the_fuzzed_commands(kernel_run, finished_run, tmp_path,
                                                         capsys):
    # the truncation and model-file fuzz tests run these commands: each passes on
    # an unedited copy, so a refusal there comes from the edit alone
    for run, commands in ((finished_run, ("evaluate", "oracle-eval", "train")),
                          (kernel_run, ("evaluate",))):
        out = tmp_path / run.parent.name
        shutil.copytree(run, out)
        for cmd in commands:
            assert main([cmd, "--config", _trained_config(run), "--out", str(out)]) == 0, \
                (run, cmd, capsys.readouterr().err)
    assert capsys.readouterr().err == ""


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["traces.csv", "model.txt", "dataset.csv", "config.txt"]),
       fraction=st.floats(0.0, 1.0))
def test_truncated_files_end_in_one_error_line(finished_run, name, fraction):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(finished_run, out)
        data = (finished_run / name).read_bytes()
        (out / name).write_bytes(data[:int(fraction * len(data))])
        for cmd in ("evaluate", "oracle-eval", "train"):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                rc = main([cmd, "--config", _trained_config(finished_run), "--out", str(out)])
            lines = err.getvalue().splitlines()
            if name == "dataset.csv":
                # an export no stage reads back: a cut one changes nothing
                assert (rc, lines) == (0, []), (cmd, lines)
            assert (rc, lines) == (0, []) or (
                rc == 1 and len(lines) == 1 and lines[0].startswith("error:")), (cmd, lines)


@pytest.fixture(scope="module")
def default_model_run(tmp_path_factory):
    """A small corpus and a model trained at the default model settings:
    kernel-logistic, with ``policy.tau = auto``."""
    base = tmp_path_factory.mktemp("default_model")
    overrides = dict(corpus_circuits=12, corpus_patterns=48, corpus_seed=5,
                     corpus_min_inputs=4, corpus_max_inputs=6, corpus_min_gates=8,
                     corpus_max_gates=16, out_dir=str(base / "run"))
    cfg_path = _write_config(base, **overrides)
    with redirect_stdout(io.StringIO()):
        for cmd in ("generate", "train"):
            assert main([cmd, "--config", str(cfg_path)]) == 0
    return overrides


@pytest.mark.parametrize("flags, drift", [
    (["--tau", "0.9"], "policy.tau = 0.9 differs from auto"),
    (["--alpha", "5"], "model.alpha = 5.0 differs from 0.001"),
    (["--model", "linear", "--alpha", "5"], "model.kind = linear differs from kernel-logistic"),
])
def test_evaluate_refuses_model_settings_drift(default_model_run, tmp_path, capsys,
                                               flags, drift):
    out = tmp_path / "run"
    shutil.copytree(default_model_run["out_dir"], out)
    cfg_path = _write_config(tmp_path, **{**default_model_run, "out_dir": str(out)})
    assert main(["evaluate", "--config", str(cfg_path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {drift} recorded in {out / 'model.txt'}"]
    assert captured.out == ""
    assert not (out / "report.csv").exists() and not (out / "summary.csv").exists()


def test_evaluate_follows_a_model_trained_with_flags(default_model_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(default_model_run["out_dir"], out)
    cfg_path = _write_config(tmp_path, **{**default_model_run, "out_dir": str(out)})
    for cmd in ("train", "evaluate"):
        assert main([cmd, "--config", str(cfg_path), "--tau", "0.9"]) == 0
    assert " at tau=0.9: " in capsys.readouterr().out.splitlines()[-1]


def test_l1_model_names_its_alpha_as_set(tmp_path, capsys):
    # a lasso's alpha is per sample: n alpha overflows to inf on these n train rows
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, corpus_circuits=60, corpus_seed=5, out_dir=str(out),
                             model_kind="linear", model_alpha=1e307)
    for cmd in ("generate", "train", "evaluate"):
        assert main([cmd, "--config", str(cfg_path)]) == 0
    _, trained, evaluated = capsys.readouterr().out.splitlines()
    assert trained.startswith("trained linear(alpha=1e+307) on ")
    assert int(trained.split(" on ")[1].split()[0]) * 1e307 == math.inf
    assert evaluated.startswith("evaluated linear(alpha=1e+307) at ")
    summary = (out / "summary.csv").read_text().splitlines()[1]
    assert summary.startswith("linear(alpha=1e+307),")
    assert "model.alpha = 1e+307" in (out / "model.txt").read_text().splitlines()


def test_circuit_ids_with_spaces_round_trip(tmp_path, capsys):
    # 'my c1' trained must not read back as 'my' and 'c1'
    benches = tmp_path / "benches"
    benches.mkdir()
    for i in range(6):
        for name in (f"c{i}", f"my c{i}"):
            circuit = random_small_circuit(len(name) * 10 + i)
            (benches / f"{name}.bench").write_text(format_bench(circuit))
    overrides = _smoke_overrides(tmp_path / "run")
    overrides.update(corpus_netlist_dir=str(benches), split_seed=1)
    cfg_path = _write_config(tmp_path, **overrides)
    for cmd in ("generate", "train", "evaluate"):
        assert main([cmd, "--config", str(cfg_path)]) == 0, capsys.readouterr().err
    split = split_corpus(dataset_from_traces(read_traces(tmp_path / "run" / "traces.csv")),
                         RunConfig(**overrides), with_validation=False)
    trained = load_model(tmp_path / "run" / "model.txt").train_circuits
    assert trained == tuple(sorted(split.train.circuit_ids))
    assert any(f"my {cid}" in trained for cid in split.test.circuit_ids)


_TOKEN_VALUES = (st.floats().map(repr) | st.integers().map(str)
                 | st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["kernel", "linear"]), value=_TOKEN_VALUES)
def test_model_file_fuzz_ends_in_exit_0_or_one_error_line(kernel_run, finished_run,
                                                          data, kind, value):
    # one whitespace-separated token of a trained model.txt replaced
    run = kernel_run if kind == "kernel" else finished_run
    tokens = re.findall(r"\S+|\s+", (run / "model.txt").read_text())
    index = data.draw(st.sampled_from([i for i, t in enumerate(tokens) if not t.isspace()]))
    tokens[index] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(run, out)
        (out / "model.txt").write_text("".join(tokens))
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a numpy warning escapes main as an exception
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                rc = main(["evaluate", "--config", _trained_config(run), "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert (rc, lines) == (0, []) or (
            rc == 1 and len(lines) == 1 and lines[0].startswith("error: ")
            and "model.txt" in lines[0]), (tokens[index], lines)


def _landmark_rows(change):
    def edit(lines):
        i = next(i for i, ln in enumerate(lines) if ln.startswith("landmark "))
        return lines[:i] + lines[i:i + 1] * (1 + change) + lines[i + 1:]
    return edit


@pytest.mark.parametrize("kind, edit", [
    ("linear", move_line("intercept", after="beta")),
    ("linear", move_line("policy.tau", after="tau")),
    ("kernel", _landmark_rows(-1)),
    ("kernel", _landmark_rows(+1)),
], ids=["beta before intercept", "setting after tau", "landmark row too few",
        "landmark row too many"])
def test_model_file_out_of_order_ends_in_one_error_line(kernel_run, finished_run, tmp_path,
                                                        capsys, kind, edit):
    run = kernel_run if kind == "kernel" else finished_run
    out = tmp_path / "run"
    shutil.copytree(run, out)
    model_path = out / "model.txt"
    model_path.write_text("".join(edit(model_path.read_text().splitlines(keepends=True))))
    assert main(["evaluate", "--config", _trained_config(run), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {model_path} line "), err
    assert ": expected '" in err[0] and captured.out == ""


def _unreadable_input(case: str, base: Path, finished_run: Path):
    """``(argv, the path its error names, the out dir)`` of a run whose
    ``case`` input holds a byte or a file name that is not UTF-8."""
    out = base / "run"
    if case in ("traces.csv", "model.txt"):
        shutil.copytree(finished_run, out)
        bad = out / case
        bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xff", 1))
        return (["evaluate", "--config", _trained_config(finished_run), "--out", str(out)],
                str(bad), out)
    benches = base / "benches"
    benches.mkdir()
    for name in "abc":
        (benches / f"{name}.bench").write_text(format_bench(random_small_circuit(ord(name))))
    overrides = _smoke_overrides(out)
    overrides["corpus_netlist_dir"] = str(benches)
    cfg_path = _write_config(base, **overrides)
    if case == "netlist name":
        bad = Path(os.fsdecode(os.fsencode(benches) + b"/bad\xff.bench"))
        bad.write_text((benches / "a.bench").read_text())
        return ["generate", "--config", str(cfg_path)], repr(str(bad)), out
    if case == "netlist":
        bad = benches / "bad.bench"
        bad.write_bytes(b"INPUT(a)\n\xff\n")
    else:
        bad = cfg_path
        bad.write_bytes(cfg_path.read_bytes() + b"# \xff\n")
    return ["generate", "--config", str(cfg_path)], str(bad), out


@pytest.mark.parametrize("case", ["netlist name", "netlist", "traces.csv", "model.txt",
                                  "config"])
def test_undecodable_input_is_named(finished_run, tmp_path, capsys, case):
    argv, named, out = _unreadable_input(case, tmp_path, finished_run)
    before = _tree(out) if out.exists() else None
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0], lines
    assert captured.out == ""
    # generate writes no out dir, and evaluate no report
    assert (_tree(out) if out.exists() else None) == before


def test_generate_at_63_inputs(tmp_path, capsys):
    # 2**63 codes: range() of them has no C length
    out = tmp_path / "run"
    overrides = _smoke_overrides(out, circuits=4)
    overrides.update(corpus_min_inputs=63, corpus_max_inputs=63)
    cfg_path = _write_config(tmp_path, **overrides)
    for cmd in ("generate", "oracle-eval"):
        assert main([cmd, "--config", str(cfg_path)]) == 0, capsys.readouterr().err
    assert capsys.readouterr().err == ""
    for bench in sorted((out / "netlists").glob("*.bench")):
        assert bench.read_text().count("INPUT(") == 63
    traces = read_traces(out / "traces.csv")
    assert len(traces) == 4 and {t.total_patterns for t in traces} == {24}


def _xor_chain_bench(num_inputs: int) -> str:
    inputs = [f"x{i}" for i in range(num_inputs)]
    lines = [f"INPUT({name})" for name in inputs] + ["OUTPUT(z)"]
    prev = inputs[0]
    for i, name in enumerate(inputs[1:], 1):
        out = "z" if i == num_inputs - 1 else f"g{i}"
        lines.append(f"{out} = XOR({prev}, {name})")
        prev = out
    return "\n".join(lines) + "\n"


def test_generate_reads_netlists_of_62_to_100_inputs(tmp_path, capsys):
    benches = tmp_path / "benches"
    benches.mkdir()
    for n in (62, 63, 64, 100):
        (benches / f"w{n}.bench").write_text(_xor_chain_bench(n))
    overrides = _smoke_overrides(tmp_path / "run")
    overrides["corpus_netlist_dir"] = str(benches)
    cfg_path = _write_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg_path)]) == 0, capsys.readouterr().err
    assert capsys.readouterr().err == ""
    traces = read_traces(tmp_path / "run" / "traces.csv")
    assert sorted(t.circuit_id for t in traces) == ["w100", "w62", "w63", "w64"]
    assert {t.total_patterns for t in traces} == {24}


def test_huge_gamma_runs_every_stage(tmp_path, capsys):
    # a finite distance times gamma overflows to -inf, whose exp is the exact kernel 0
    out = tmp_path / "run"
    overrides = _smoke_overrides(out, circuits=10)
    overrides.update(split_train_fraction=0.6, split_validation_fraction=0.34,
                     model_kind="kernel-logistic", model_gamma=1e308, model_iterations=20,
                     policy_tau="auto")
    cfg_path = _write_config(tmp_path, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy warning escapes main as an exception
        for cmd in ("generate", "train", "evaluate", "sweep"):
            assert main([cmd, "--config", str(cfg_path)]) == 0, capsys.readouterr().err
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "kernel-logistic(lambda=1,gamma=1e+308)" in captured.out


# c17 (Brglez & Fujiwara, ISCAS 1985) with its outputs buffered, as the
# circulated ISCAS-85 files write a buffer
_C17_BUFF = """\
# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
20 = NAND(10, 16)
21 = NAND(16, 19)
22 = BUFF(20)
23 = BUFF(21)
"""


def test_generate_and_oracle_eval_read_buff_netlists(tmp_path, capsys):
    benches = tmp_path / "benches"
    benches.mkdir()
    (benches / "c17.bench").write_text(_C17_BUFF)
    for i in range(5):
        text = format_bench(random_small_circuit(100 + i)).replace("= BUF(", "= BUFF(")
        (benches / f"r{i}.bench").write_text(text + "z = BUFF(x1)\n")
    out = tmp_path / "run"
    overrides = _smoke_overrides(out)
    overrides["corpus_netlist_dir"] = str(benches)
    cfg_path = _write_config(tmp_path, **overrides)
    for cmd in ("generate", "oracle-eval"):
        assert main([cmd, "--config", str(cfg_path)]) == 0, capsys.readouterr().err
    assert capsys.readouterr().err == ""
    header = (out / "dicts" / "c17.dict").read_text().splitlines()[0]
    assert header == "# circuit=c17 signals=13 faults=26 patterns=24"
    traces = read_traces(out / "traces.csv")
    assert sorted(t.circuit_id for t in traces) == ["c17", "r0", "r1", "r2", "r3", "r4"]
