import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testtrim.cli import main
from testtrim.config import RunConfig, save_config


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
    lines = [_set_first_value(ln, value) if ln.split(" ", 1)[0] == key else ln
             for ln in lines]
    model_path.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--config", str(out / "config.txt"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"'{key}'" in err[0], err
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
                include_out_dir=False)
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
    assert main(["train", "--config", str(out / "config.txt"), "--out", str(out)]) == 1
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
    assert main(["evaluate", "--config", str(out / "config.txt"), "--out", str(out)]) == 1
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
    (["train", "--model", "tree"], "invalid choice: 'tree'"),
    (["fit"], "invalid choice: 'fit'"),
    ([], "the following arguments are required: command"),
])
def test_usage_error_ends_in_one_error_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines
    assert captured.out == "" and list(tmp_path.iterdir()) == []


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


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["traces.csv", "model.txt", "dataset.csv"]),
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
                rc = main([cmd, "--config", str(out / "config.txt"), "--out", str(out)])
            lines = err.getvalue().splitlines()
            if name == "dataset.csv":
                # an export no stage reads back: a cut one changes nothing
                assert (rc, lines) == (0, []), (cmd, lines)
            assert (rc, lines) == (0, []) or (
                rc == 1 and len(lines) == 1 and lines[0].startswith("error:")), (cmd, lines)
