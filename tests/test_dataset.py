import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testtrim.dataset import (Dataset, FeatureRow, Standardizer, extract_features,
                              read_dataset, split, standardize_fit_apply,
                              write_dataset)
from testtrim.diagnosis import DiagnosisTrace


def _trace(circuit_id, num_inputs, failing, y_values, total=50):
    n = len(failing)
    return DiagnosisTrace(
        circuit_id=circuit_id, num_inputs=num_inputs, total_patterns=total,
        failing_indices=list(failing),
        intermediate_sizes=list(range(n, 0, -1)),
        golden_size=1,
        m_values=[1 / s for s in range(n, 0, -1)],
        y_values=list(y_values),
    )


def test_extract_features_basic():
    trace = _trace("c1", 5, [3, 7, 12], [0.0, 0.4, 1.0])
    rows = extract_features(trace)
    assert [(r.x1, r.x2, r.x3, r.x4, r.x5) for r in rows] == [
        (5, 1, 3, 3, 12),
        (5, 2, 3, 7, 12),
        (5, 3, 3, 12, 12),
    ]
    assert [r.y for r in rows] == [0.0, 0.4, 1.0]
    assert all(r.circuit_id == "c1" for r in rows)


def test_extract_features_single_failing_pattern():
    trace = _trace("c2", 4, [9], [1.0])
    rows = extract_features(trace)
    assert len(rows) == 1
    assert rows[0].features() == (4, 1, 9, 9, 9)
    assert rows[0].y == 1.0


def test_feature_row_invariants(small_corpus):
    for trace in small_corpus.traces:
        rows = extract_features(trace)
        for r in rows:
            assert r.x3 <= r.x4 <= r.x5
            assert r.x2 >= 1
            if r.x4 == r.x5:
                assert r.y == 1.0
        # grouped rows reproduce the trace's first/last failing indices
        assert rows[0].x4 == rows[0].x3 == trace.failing_indices[0]
        assert rows[-1].x4 == rows[-1].x5 == trace.failing_indices[-1]


def _equal_row_dataset(num_circuits=10, rows_each=4):
    rows = []
    for c in range(num_circuits):
        trace = _trace(f"c{c}", 5, list(range(2, 2 + rows_each)),
                       [0.0] * (rows_each - 1) + [1.0])
        rows.extend(extract_features(trace))
    return Dataset(rows)


def test_split_seven_three():
    ds = _equal_row_dataset(10)
    train, test = split(ds, 0.7, seed=1)
    assert len(train.circuit_ids()) == 7
    assert len(test.circuit_ids()) == 3


def test_split_deterministic():
    ds = _equal_row_dataset(10)
    a = split(ds, 0.7, seed=1)
    b = split(ds, 0.7, seed=1)
    assert [r.circuit_id for r in a[0].rows] == [r.circuit_id for r in b[0].rows]
    c = split(ds, 0.7, seed=2)
    assert [r.circuit_id for r in a[0].rows] != [r.circuit_id for r in c[0].rows]


def test_split_row_conservation_and_disjoint(small_corpus):
    ds = small_corpus.dataset
    train, test = split(ds, 0.6, seed=3)
    assert len(train) + len(test) == len(ds)
    assert not set(train.circuit_ids()) & set(test.circuit_ids())
    # the row fraction is honored to within one circuit's rows
    biggest = max(ds.rows_per_circuit().values())
    assert abs(len(train) - 0.6 * len(ds)) <= biggest


def test_split_empty_sides_rejected():
    ds = _equal_row_dataset(3)
    with pytest.raises(ValueError, match="empty side"):
        split(ds, 0.01, seed=0)  # target rounds to zero rows
    with pytest.raises(ValueError, match="empty side"):
        split(_equal_row_dataset(1), 0.5, seed=0)  # nothing left for test
    with pytest.raises(ValueError):
        split(Dataset([]), 0.5, seed=0)


def test_split_never_swallows_last_circuit():
    ds = _equal_row_dataset(3)
    train, test = split(ds, 0.99, seed=0)
    assert len(train.circuit_ids()) == 2
    assert len(test.circuit_ids()) == 1


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=999))
def test_split_leakage_free(num_circuits, seed):
    ds = _equal_row_dataset(num_circuits, rows_each=3)
    try:
        train, test = split(ds, 0.5, seed=seed)
    except ValueError:
        return
    assert not set(train.circuit_ids()) & set(test.circuit_ids())
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
    train = Dataset([FeatureRow("a", 5, k, 1, k, 9, 0.5) for k in range(1, 7)])
    test = Dataset([FeatureRow("b", 8, k, 4, 3 * k, 30, 0.5) for k in range(1, 7)])
    train_X, test_X = standardize_fit_apply(train, [test])
    assert train.standardization is test.standardization
    varying = ~train.standardization.constant
    assert train_X[:, varying].mean(axis=0) == pytest.approx(0.0, abs=1e-12)
    # applying train statistics leaves the test mean off-zero in general
    assert abs(test_X[:, varying].mean()) > 0.1


def test_labels_binary_exact_on_converged_rows():
    ds = Dataset([FeatureRow("a", 5, 1, 1, 1, 3, 0.999999),
                  FeatureRow("a", 5, 2, 1, 3, 3, 1.0)])
    assert ds.labels_binary().tolist() == [0.0, 1.0]


def test_dataset_csv_roundtrip(tmp_path, small_corpus):
    path = tmp_path / "dataset.csv"
    write_dataset(small_corpus.dataset, path)
    text = path.read_text().splitlines()
    assert text[0] == "circuit_id,x1,x2,x3,x4,x5,y"
    # labels carry exactly 6 fractional digits
    assert all(len(line.rsplit(",", 1)[1].split(".")[1]) == 6 for line in text[1:])

    loaded = read_dataset(path)
    assert len(loaded) == len(small_corpus.dataset)
    for a, b in zip(loaded.rows, small_corpus.dataset.rows):
        assert a.circuit_id == b.circuit_id
        assert a.features() == b.features()
        assert a.y == pytest.approx(b.y, abs=5e-7)
        assert (a.y == 1.0) == (b.y == 1.0)


@pytest.mark.parametrize("edit, message", [
    (lambda row: row.rsplit(",", 1)[0], "expected 7 fields"),
    (lambda row: row + ",0", "expected 7 fields"),
    (lambda row: row.rsplit(",", 1)[0] + ",nan", "non-finite y"),
])
def test_read_dataset_rejects_bad_row_naming_file_and_line(tmp_path, small_corpus,
                                                           edit, message):
    path = tmp_path / "dataset.csv"
    write_dataset(small_corpus.dataset, path)
    lines = path.read_text().splitlines()
    lines[4] = edit(lines[4])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"dataset\.csv line 5: {message}"):
        read_dataset(path)
