import gc
import hashlib
import random

import pytest

from conftest import AND_BENCH
from testtrim import corpus as corpus_module
from testtrim.config import RunConfig
from testtrim.corpus import build_corpus
from testtrim.dataset import split_corpus
from testtrim.generator import random_circuit
from testtrim.netlist import BenchParseError, format_bench

# sha256 of the seed-7 scale build below: its free words, fault masks and traces
# (failing indices and sizes), pinned from the build that drew bit-tuple patterns
SCALE_DIGEST = "a73b918910cad5f404afed2e6a834faefb6c7611681124cf32e038dab0480ce8"


def test_small_corpus_shape(small_corpus):
    assert len(small_corpus.circuits) == 12
    assert len(small_corpus.dictionaries) == 12
    assert len(small_corpus.traces) == 12
    assert len(small_corpus.dataset) == sum(t.num_failing for t in small_corpus.traces)
    assert [c.name for c in small_corpus.circuits] == [f"c{i:03d}" for i in range(12)]


def test_corpus_deterministic():
    cfg = RunConfig(corpus_circuits=4, corpus_patterns=32, corpus_seed=21,
                    corpus_min_inputs=4, corpus_max_inputs=6,
                    corpus_min_gates=8, corpus_max_gates=14)
    a = build_corpus(cfg)
    b = build_corpus(cfg)
    assert [c.name for c in a.circuits] == [c.name for c in b.circuits]
    assert [format_bench(c) for c in a.circuits] == [format_bench(c) for c in b.circuits]
    assert [t.failing_indices for t in a.traces] == [t.failing_indices for t in b.traces]
    assert a.dataset.circuit_ids == b.dataset.circuit_ids
    assert a.dataset.X.tolist() == b.dataset.X.tolist()
    assert a.dataset.y.tolist() == b.dataset.y.tolist()


def test_different_seed_different_corpus():
    base = dict(corpus_circuits=4, corpus_patterns=32, corpus_min_inputs=4,
                corpus_max_inputs=6, corpus_min_gates=8, corpus_max_gates=14)
    a = build_corpus(RunConfig(corpus_seed=1, **base))
    b = build_corpus(RunConfig(corpus_seed=2, **base))
    assert [format_bench(c) for c in a.circuits] != [format_bench(c) for c in b.circuits]


def test_injected_faults_always_detectable(small_corpus):
    for fdict, trace in zip(small_corpus.dictionaries, small_corpus.traces):
        fi = fdict.faults.index(trace.injected_fault)
        assert fdict.fault_masks[fi] != 0
        assert trace.num_failing >= 1


def test_exhaustive_corpus_totals():
    cfg = RunConfig(corpus_circuits=3, corpus_patterns="exhaustive", corpus_seed=2,
                    corpus_min_inputs=4, corpus_max_inputs=5,
                    corpus_min_gates=6, corpus_max_gates=10)
    corpus = build_corpus(cfg)
    for circuit, trace in zip(corpus.circuits, corpus.traces):
        assert trace.total_patterns == 1 << len(circuit.inputs)


def test_pattern_budget_capped_at_exhaustive_space():
    cfg = RunConfig(corpus_circuits=3, corpus_patterns=100, corpus_seed=3,
                    corpus_min_inputs=4, corpus_max_inputs=4,
                    corpus_min_gates=6, corpus_max_gates=10)
    corpus = build_corpus(cfg)
    for trace in corpus.traces:
        assert trace.total_patterns == 16


def test_netlist_dir_corpus(tmp_path, small_corpus):
    netdir = tmp_path / "benches"
    netdir.mkdir()
    for c in small_corpus.circuits[:5]:
        (netdir / f"{c.name}.bench").write_text(format_bench(c))
    cfg = RunConfig(corpus_netlist_dir=str(netdir), corpus_patterns=32, corpus_seed=5)
    corpus = build_corpus(cfg)
    assert [c.name for c in corpus.circuits] == sorted(c.name for c in small_corpus.circuits[:5])
    assert len(corpus.traces) == 5


@pytest.mark.parametrize("enabled", (True, False), ids=("collector on", "collector off"))
def test_build_leaves_the_collector_as_found(tmp_path, monkeypatch, enabled):
    paused = []   # per dictionary built: was the collector off?
    build = corpus_module.build_fault_dictionary
    monkeypatch.setattr(corpus_module, "build_fault_dictionary",
                        lambda *args: paused.append(not gc.isenabled()) or build(*args))
    (tmp_path / "a_ok.bench").write_text(AND_BENCH)
    (tmp_path / "b_bad.bench").write_text("INPUT(a)\nOUTPUT(z)\nz = AND(a, b)\n")
    caller = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        build_corpus(RunConfig(corpus_circuits=3, corpus_patterns=16, corpus_min_inputs=3,
                               corpus_max_inputs=4, corpus_min_gates=4, corpus_max_gates=8))
        assert gc.isenabled() is enabled
        with pytest.raises(BenchParseError, match="b_bad.bench"):
            build_corpus(RunConfig(corpus_netlist_dir=str(tmp_path)))
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if caller else gc.disable()
    assert len(paused) >= 4 and all(paused)


def test_netlist_dir_missing_files(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    with pytest.raises(ValueError, match="no .bench files"):
        build_corpus(RunConfig(corpus_netlist_dir=str(empty)))


def test_split_corpus_partitions_traces(small_corpus):
    cfg = RunConfig(split_train_fraction=0.7, split_validation_fraction=0.25,
                    split_seed=4)
    s = split_corpus(small_corpus.dataset, cfg)
    train_ids = set(s.train.circuit_ids)
    val_ids = set(s.validation.circuit_ids)
    test_ids = set(s.test.circuit_ids)
    assert not train_ids & test_ids
    assert not train_ids & val_ids
    assert not val_ids & test_ids
    # each portion carries its circuits' pattern counts and its rows' m
    by_id = {t.circuit_id: t for t in small_corpus.traces}
    ds = small_corpus.dataset
    m_by_id = {cid: ds.m[ds.offsets[c]:ds.offsets[c + 1]].tolist()
               for c, cid in enumerate(ds.circuit_ids)}
    for part in (s.train, s.validation, s.test):
        assert part.total_patterns.tolist() == [by_id[c].total_patterns
                                                for c in part.circuit_ids]
        assert part.m.tolist() == [m for c in part.circuit_ids for m in m_by_id[c]]
    assert len(s.train) + len(s.validation) + len(s.test) == len(small_corpus.dataset)


def test_rows_rederive_trace_boundaries(small_corpus):
    ds = small_corpus.dataset
    for c, trace in enumerate(small_corpus.traces):
        rows = ds.X[ds.offsets[c]:ds.offsets[c + 1]]
        assert (rows[:, 2] == trace.failing_indices[0]).all()
        assert (rows[:, 4] == trace.failing_indices[-1]).all()
        assert rows[:, 3].tolist() == trace.failing_indices


def test_scale_build_matches_its_pinned_digest(tmp_path):
    # the corpus-scale benchmark's netlists at seed 7: 1000 and 3000 gates, 24
    # inputs, 1024 patterns; the batch layout (batch_diffs, fault_slots) is left out
    for gates in (1000, 3000):
        rng = random.Random(f"perfbench-scale:7:{gates}")
        circuit = random_circuit(f"g{gates}", rng, min_inputs=24, max_inputs=24,
                                 min_gates=gates, max_gates=gates, p_unread=0.5)
        (tmp_path / f"g{gates}.bench").write_text(format_bench(circuit))
    corpus = build_corpus(RunConfig(corpus_netlist_dir=str(tmp_path), corpus_patterns=1024,
                                    corpus_seed=7))
    digest = hashlib.sha256()
    for fdict, trace in zip(corpus.dictionaries, corpus.traces):
        digest.update(repr((fdict.free_words, fdict.fault_masks, trace.failing_indices,
                            trace.intermediate_sizes)).encode())
    assert [c.name for c in corpus.circuits] == ["g1000", "g3000"]
    assert digest.hexdigest() == SCALE_DIGEST
