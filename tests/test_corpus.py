import pytest

from testtrim.config import RunConfig
from testtrim.corpus import build_corpus
from testtrim.dataset import split_corpus
from testtrim.netlist import format_bench


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
