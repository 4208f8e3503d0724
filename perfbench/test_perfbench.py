"""Tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from checks import check_corpus, check_pipeline  # noqa: E402
from worker import load_oracles  # noqa: E402

from testtrim.config import RunConfig, save_config  # noqa: E402
from testtrim.corpus import build_corpus  # noqa: E402
from testtrim.netlist import format_bench  # noqa: E402

TINY_CORPUS = dict(corpus_circuits=6, corpus_patterns=32, corpus_seed=3,
                   corpus_min_inputs=4, corpus_max_inputs=6,
                   corpus_min_gates=8, corpus_max_gates=16)


def _tally(outcome) -> run.Tally:
    tally = run.Tally()
    tally.add(*outcome)
    return tally


@pytest.fixture
def jobs(tmp_path):
    return run.Jobs(tmp_path, time.monotonic() + 120.0)


def test_corpus_check_passes_and_catches_corruption():
    corpus = build_corpus(RunConfig(**TINY_CORPUS))
    texts = {c.name: format_bench(c) for c in corpus.circuits}
    oracles = load_oracles()
    clean = _tally(check_corpus(corpus, texts, oracles, seed=1))
    assert clean.attempted > 0 and clean.error_rate == 0.0

    # every response of the first circuit inverted
    fdict = corpus.dictionaries[0]
    full = (1 << fdict.num_patterns) - 1
    corpus.dictionaries[0] = dataclasses.replace(
        fdict, fault_words=tuple(tuple(w ^ full for w in row) for row in fdict.fault_words))
    bad = _tally(check_corpus(corpus, texts, oracles, seed=1))
    assert bad.error_rate > 0.0
    assert any(corpus.circuits[0].name in f for f in bad.failures)


def test_trace_check_catches_growing_candidate_set():
    corpus = build_corpus(RunConfig(**TINY_CORPUS))
    texts = {c.name: format_bench(c) for c in corpus.circuits}
    trace = corpus.traces[-1]
    trace.intermediate_sizes[-1] = trace.intermediate_sizes[0] + 1
    bad = _tally(check_corpus(corpus, texts, load_oracles(), seed=1))
    assert bad.error_rate > 0.0
    assert any("invariants" in f for f in bad.failures)


def test_corpus_pass_traced_reports_layers(jobs):
    tally = run.Tally()
    data = run.corpus_pass(jobs, tally, TINY_CORPUS, traced=True)
    assert tally.attempted > 0 and tally.failures == []
    metrics = run.layer_metrics(data["trace"])
    assert metrics["faultsim.build_fault_dictionary_s"] > 0.0
    assert metrics["faultsim.fault_patterns"] > 0
    assert metrics["diagnosis.failing_patterns"] == metrics["dataset.rows"] > 0
    assert metrics["corpus.attempts_per_slot"] >= 1.0
    # self times partition the traced build: nothing counted twice
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["corpus.build_corpus_s"], rel=1e-6)


def test_pipeline_pass_and_corrupted_outputs(jobs, tmp_path):
    config = tmp_path / "tiny.txt"
    # large enough that every learning-curve subset holds both classes
    save_config(RunConfig(corpus_circuits=30, corpus_patterns=64, model_iterations=50), config)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}

    tally = run.Tally()
    plain = run.pipeline_pass(jobs, tally, tmp_path / "plain", seed=3, config=config)
    traced = run.pipeline_pass(jobs, tally, tmp_path / "traced", seed=3, config=config,
                               traced=True)
    assert tally.failures == [] and tally.error_rate == 0.0
    assert set(plain["walls"]) == set(run.STAGES)
    assert plain["quality"]["oracle"][0] == 1.0
    metrics = run.layer_metrics(run.merge([s for _, s in traced["summaries"]]))
    assert set(metrics) <= listed
    assert metrics["faultsim.write_dictionary_s"] > 0.0
    assert metrics["models.fit_calls"] >= 2

    # the same outputs, deliberately corrupted, fail the check
    from testtrim.cli import main
    out = tmp_path / "corrupt"
    for stage in run.STAGES:
        assert main([stage, "--config", str(config), "--out", str(out), "--seed", "3"]) == 0
    ok = {stage: (0, "") for stage in run.STAGES}
    assert _tally(check_pipeline(out, ok)).error_rate == 0.0
    summary = out / "oracle_summary.csv"
    header, row = summary.read_text().splitlines()
    fields = row.split(",")
    fields[header.split(",").index("diagnosis_accuracy")] = "0.950000"
    summary.write_text(f"{header}\n{','.join(fields)}\n")
    assert _tally(check_pipeline(out, ok)).error_rate > 0.0
    crashed = dict(ok, sweep=(1, "Traceback (most recent call last):\n  boom"))
    assert _tally(check_pipeline(out, crashed)).failures[0].startswith("stage sweep")
