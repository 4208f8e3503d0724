import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testtrim.config import RunConfig
from testtrim.dataset import (Standardizer, _split as split, dataset_from_traces, split_corpus,
                              write_dataset)
from testtrim.diagnosis import DiagnosisTrace


def _trace(circuit_id, num_inputs, failing, sizes=None, total=50):
    """A trace over ``failing``; its sizes fall by one to a golden size of 1
    unless given."""
    sizes = list(range(len(failing), 0, -1)) if sizes is None else list(sizes)
    return DiagnosisTrace(
        circuit_id=circuit_id, num_inputs=num_inputs, total_patterns=total,
        failing_indices=list(failing), intermediate_sizes=sizes,
    )


def test_extract_features_basic():
    trace = _trace("c1", 5, [3, 7, 12], sizes=[6, 4, 3])  # m = 0.5, 0.75, 1
    ds = dataset_from_traces([trace])
    assert ds.X.tolist() == [
        [5, 1, 3, 3, 12],
        [5, 2, 3, 7, 12],
        [5, 3, 3, 12, 12],
    ]
    assert ds.y.tolist() == [0.0, 0.5, 1.0]
    assert ds.circuit_ids == ["c1"]
    assert ds.offsets.tolist() == [0, 3]


def test_extract_features_single_failing_pattern():
    ds = dataset_from_traces([_trace("c2", 4, [9]), _trace("c3", 6, [2, 5])])
    assert len(ds) == 3
    assert ds.X.tolist() == [[4, 1, 9, 9, 9], [6, 1, 2, 2, 5], [6, 2, 2, 5, 5]]
    assert ds.y.tolist() == [1.0, 0.0, 1.0]
    assert ds.circuit_ids == ["c2", "c3"]
    assert ds.offsets.tolist() == [0, 1, 3]
    assert ds.m.tolist() == [1.0, 0.5, 1.0]
    assert ds.total_patterns.tolist() == [50, 50]


def _labels(sizes):
    """The y column of one trace with these intermediate sizes."""
    return dataset_from_traces([_trace("c", 5, range(1, len(sizes) + 1), sizes)]).y.tolist()


class TestLabels:
    """y rescales m = golden / size per trace; m is the golden size over each size."""

    def test_direct_substitution(self):
        got = _labels([5, 2, 1])  # m = 0.2, 0.5, 1
        assert got == pytest.approx([0.0, 0.375, 1.0], abs=1e-12)
        assert got[0] == 0.0 and got[-1] == 1.0  # boundary rows are exact

    def test_single_converged_row(self):
        assert _labels([1]) == [1.0]

    def test_minimum_maps_to_zero(self):
        assert _labels([4, 4, 1]) == [0.0, 0.0, 1.0]  # m = 0.25, 0.25, 1

    def test_all_converged(self):
        assert _labels([3, 3, 3]) == [1.0, 1.0, 1.0]

    @settings(max_examples=100)
    @given(st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=50))
    def test_label_laws_on_synthetic_m(self, increments, golden):
        # build a non-increasing size sequence ending at the golden size
        sizes = []
        acc = golden
        for inc in reversed(increments):
            sizes.append(acc)
            acc += inc
        sizes = list(reversed(sizes))
        m = [golden / s for s in sizes]
        y = _labels(sizes)
        assert all(0.0 <= v <= 1.0 for v in y)
        assert y[-1] == 1.0
        m_min = min(m)
        if m_min < 1.0:
            assert min(y) == 0.0
            for mi, yi in zip(m, y):
                assert (yi == 1.0) == (mi == 1.0)
        assert max(y) == 1.0


def test_feature_row_invariants(small_corpus):
    ds = small_corpus.dataset
    assert ds.X.flags.c_contiguous and ds.X.dtype == np.float64
    assert ds.circuit_ids == [t.circuit_id for t in small_corpus.traces]
    for c, trace in enumerate(small_corpus.traces):
        rows = ds.X[ds.offsets[c]:ds.offsets[c + 1]]
        y = ds.y[ds.offsets[c]:ds.offsets[c + 1]]
        x1, x2, x3, x4, x5 = rows.T
        assert (x3 <= x4).all() and (x4 <= x5).all()
        assert x2.tolist() == list(range(1, trace.num_failing + 1))
        assert (y[x4 == x5] == 1.0).all()
        # grouped rows reproduce the trace's first/last failing indices
        assert rows[0, 3] == rows[0, 2] == trace.failing_indices[0]
        assert rows[-1, 3] == rows[-1, 4] == trace.failing_indices[-1]


def _equal_row_dataset(num_circuits=10, rows_each=4):
    return dataset_from_traces(
        _trace(f"c{c}", 5, list(range(2, 2 + rows_each)))
        for c in range(num_circuits))


def test_split_seven_three():
    ds = _equal_row_dataset(10)
    train, test = split(ds, 0.7, seed=1)
    assert len(train.circuit_ids) == 7
    assert len(test.circuit_ids) == 3


def test_split_deterministic():
    ds = _equal_row_dataset(10)
    a = split(ds, 0.7, seed=1)
    b = split(ds, 0.7, seed=1)
    assert a[0].circuit_ids == b[0].circuit_ids
    c = split(ds, 0.7, seed=2)
    assert a[0].circuit_ids != c[0].circuit_ids


def test_split_row_conservation_and_disjoint(small_corpus):
    ds = small_corpus.dataset
    train, test = split(ds, 0.6, seed=3)
    assert len(train) + len(test) == len(ds)
    assert not set(train.circuit_ids) & set(test.circuit_ids)
    # the row fraction is honored to within one circuit's rows
    biggest = np.diff(ds.offsets).max()
    assert abs(len(train) - 0.6 * len(ds)) <= biggest
    # each side is its circuits' rows, cut whole and in dataset order
    for side in (train, test):
        rows = [c for c, cid in enumerate(ds.circuit_ids) if cid in side.circuit_ids]
        assert side.circuit_ids == [ds.circuit_ids[c] for c in rows]
        want = np.concatenate([np.arange(ds.offsets[c], ds.offsets[c + 1]) for c in rows])
        assert side.X.tolist() == ds.X[want].tolist()
        assert side.y.tolist() == ds.y[want].tolist()
        assert np.diff(side.offsets).tolist() == np.diff(ds.offsets)[rows].tolist()


def test_split_empty_sides_rejected():
    ds = _equal_row_dataset(3)
    with pytest.raises(ValueError, match="empty side"):
        split(ds, 0.01, seed=0)  # target rounds to zero rows
    with pytest.raises(ValueError, match="empty side"):
        split(_equal_row_dataset(1), 0.5, seed=0)  # nothing left for test
    with pytest.raises(ValueError):
        split(dataset_from_traces([]), 0.5, seed=0)


@pytest.mark.parametrize("train_fraction, message", [
    # the test side is held out first: 0.01 of 48 rows rounds to none
    (0.01, "split.train_fraction = 0.01: the split leaves an empty side "
           "(12 circuits, 48 rows to split)"),
    # 0.05 keeps one circuit, which the validation split cannot cut in two
    (0.05, "split.train_fraction = 0.05, then split.validation_fraction = 0.25: "
           "the split leaves an empty side (1 circuits, 4 rows to split)"),
], ids=["test side", "validation side"])
def test_split_corpus_names_the_settings_as_set(train_fraction, message):
    cfg = RunConfig(split_train_fraction=train_fraction, split_validation_fraction=0.25)
    with pytest.raises(ValueError) as exc:
        split_corpus(_equal_row_dataset(12), cfg)
    assert str(exc.value) == message


def test_split_never_swallows_last_circuit():
    ds = _equal_row_dataset(3)
    train, test = split(ds, 0.99, seed=0)
    assert len(train.circuit_ids) == 2
    assert len(test.circuit_ids) == 1


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=999))
def test_split_leakage_free(num_circuits, seed):
    ds = _equal_row_dataset(num_circuits, rows_each=3)
    try:
        train, test = split(ds, 0.5, seed=seed)
    except ValueError:
        return
    assert not set(train.circuit_ids) & set(test.circuit_ids)
    assert len(train) + len(test) == len(ds)


def test_standardize_known_column():
    X = np.array([[1.0], [2.0], [3.0]])
    std = Standardizer.fit(X)
    got = std.transform(X)[:, 0]
    # mean 2, population stddev sqrt(2/3): hand-computed expectations
    assert got == pytest.approx([-1.224745, 0.0, 1.224745], abs=1e-6)


def test_standardize_constant_column_flagged():
    X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    std = Standardizer.fit(X)
    assert not std.constant[0] and std.constant[1]
    out = std.transform(X)
    assert out[:, 1] == pytest.approx([7.0, 7.0, 7.0])  # passed through unchanged


def test_standardize_fit_apply_uses_train_stats_only():
    train = dataset_from_traces([_trace("a", 5, range(1, 10))])
    test = dataset_from_traces([_trace("b", 8, range(4, 31, 3))])
    std = Standardizer.fit(train.X)
    train_X, test_X = std.transform(train.X), std.transform(test.X)
    varying = ~std.constant
    assert train_X[:, varying].mean(axis=0) == pytest.approx(0.0, abs=1e-12)
    # applying train statistics leaves the test mean off-zero in general
    assert abs(test_X[:, varying].mean()) > 0.1


def test_standardizer_rejects_empty_training_set():
    with pytest.raises(ValueError, match="empty training set"):
        Standardizer.fit(np.empty((0, 5)))


def test_labels_binary_exact_on_converged_rows():
    # 999999 of 1000000 candidates: y is just below 1 yet not converged
    ds = dataset_from_traces([_trace("a", 5, [1, 3, 4], sizes=[10 ** 9, 10 ** 6, 999_999])])
    assert 0.99999 < ds.y[1] < 1.0
    assert ds.labels_binary().tolist() == [0.0, 0.0, 1.0]


def test_dataset_csv_roundtrip(tmp_path, small_corpus):
    path = tmp_path / "dataset.csv"
    write_dataset(small_corpus.dataset, path)
    text = path.read_text().splitlines()
    assert text[0] == "circuit_id,x1,x2,x3,x4,x5,y"
    # labels carry exactly 6 fractional digits
    assert all(len(line.rsplit(",", 1)[1].split(".")[1]) == 6 for line in text[1:])

    with open(path, newline="") as fh:
        records = list(csv.reader(fh))[1:]
    ds = small_corpus.dataset
    assert len(records) == len(ds)
    ids = [rec[0] for rec in records]
    counts = np.diff(ds.offsets).tolist()
    assert ids == [cid for cid, n in zip(ds.circuit_ids, counts) for _ in range(n)]
    assert [[int(v) for v in rec[1:6]] for rec in records] == ds.X.tolist()
    y = np.array([float(rec[6]) for rec in records])
    assert y == pytest.approx(ds.y, abs=5e-7)
    assert ((y == 1.0) == (ds.y == 1.0)).all()
