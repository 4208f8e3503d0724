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
from testtrim.dataset import read_dataset


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


def test_evaluate_refuses_split_mismatch(tmp_path, capsys):
    out = tmp_path / "run"
    overrides = _smoke_overrides(out, circuits=8)
    cfg_path = _write_config(tmp_path, **overrides)
    assert main(["generate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0

    # different split seed sends trained circuits into the test side
    overrides["split_seed"] = 7
    bad_cfg = tmp_path / "bad.txt"
    save_config(RunConfig(**overrides), bad_cfg)
    assert main(["evaluate", "--config", str(bad_cfg)]) == 1
    assert "overlap" in capsys.readouterr().err


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


def test_evaluate_reads_pattern_count_from_traces(tmp_path, capsys):
    # a later stage's corpus.patterns must not rescale the saved volume
    out = tmp_path / "run"
    overrides = _smoke_overrides(out, circuits=6)
    overrides.update(corpus_patterns=208, corpus_min_inputs=8, corpus_max_inputs=9)
    cfg_path = _write_config(tmp_path, **overrides)
    for cmd in ("generate", "train", "evaluate"):
        assert main([cmd, "--config", str(cfg_path)]) == 0
    matching = capsys.readouterr().out.splitlines()[-1]

    other = tmp_path / "other.txt"
    save_config(RunConfig(**{**overrides, "corpus_patterns": 64}), other)
    assert main(["evaluate", "--config", str(other)]) == 0
    drifted = capsys.readouterr().out.splitlines()[-1]
    assert "volume_reduction=" in matching
    assert drifted == matching


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
        if name == "dataset.csv":
            # an export the stages never read back; its reader still refuses cuts
            try:
                read_dataset(out / name)
            except ValueError:
                pass
        for cmd in ("evaluate", "oracle-eval", "train"):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                rc = main([cmd, "--config", str(out / "config.txt"), "--out", str(out)])
            lines = err.getvalue().splitlines()
            assert (rc, lines) == (0, []) or (
                rc == 1 and len(lines) == 1 and lines[0].startswith("error:")), (cmd, lines)
