"""Feature extraction, dataset container, circuit-level splits, CSV I/O.

Each failing pattern of a trace becomes one row with five features:

    x1  number of primary inputs of the circuit
    x2  failing patterns applied so far (the row's ordinal k)
    x3  index of the circuit's first failing pattern
    x4  index of this failing pattern
    x5  index of the circuit's last failing pattern

plus the regression label y.  Rows of one circuit are heavily correlated
(they share x1/x3/x5), so train/test splits operate on whole circuits.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .diagnosis import DiagnosisTrace, read_csv_rows

NUM_FEATURES = 5

DATASET_HEADER = ["circuit_id", "x1", "x2", "x3", "x4", "x5", "y"]


@dataclass(frozen=True)
class FeatureRow:
    circuit_id: str
    x1: int
    x2: int
    x3: int
    x4: int
    x5: int
    y: float

    def features(self) -> tuple[int, int, int, int, int]:
        return (self.x1, self.x2, self.x3, self.x4, self.x5)


def extract_features(trace: DiagnosisTrace) -> list[FeatureRow]:
    """One row per failing pattern of the trace."""
    first = trace.failing_indices[0]
    last = trace.failing_indices[-1]
    return [
        FeatureRow(trace.circuit_id, trace.num_inputs, k, first, idx, last, y)
        for k, (idx, y) in enumerate(zip(trace.failing_indices, trace.y_values), start=1)
    ]


@dataclass
class Standardizer:
    """Per-feature (mean, population stddev) transform fitted on training data.

    Constant features (zero stddev) are flagged and passed through unchanged.
    """

    mean: np.ndarray
    scale: np.ndarray
    constant: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=float)
        mean = X.mean(axis=0)
        std = X.std(axis=0)  # population stddev
        constant = std == 0.0
        scale = np.where(constant, 1.0, std)
        return cls(mean=mean, scale=scale, constant=constant)

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Z = (X - self.mean) / self.scale
        if self.constant.any():
            Z[:, self.constant] = X[:, self.constant]
        return Z


@dataclass
class Dataset:
    """Feature rows with circuit-of-origin bookkeeping.

    ``standardization`` is attached once statistics have been fitted on the
    training portion (see :func:`standardize_fit_apply`).
    """

    rows: list[FeatureRow]
    standardization: Standardizer | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.rows)

    def feature_matrix(self) -> np.ndarray:
        return np.array([r.features() for r in self.rows], dtype=float)

    def labels(self) -> np.ndarray:
        return np.array([r.y for r in self.rows], dtype=float)

    def labels_binary(self) -> np.ndarray:
        """1.0 exactly on converged rows (y == 1), else 0.0."""
        return np.array([1.0 if r.y == 1.0 else 0.0 for r in self.rows])

    def circuit_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.rows:
            seen.setdefault(r.circuit_id, None)
        return list(seen)

    def rows_per_circuit(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.rows:
            counts[r.circuit_id] = counts.get(r.circuit_id, 0) + 1
        return counts


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic split by circuit.

    Circuits are shuffled with the seed, then assigned to the train side
    until it holds at least ``train_fraction`` of the rows; the row fraction
    is honored to within one circuit's row count.  The last circuit is never
    consumed, so the test side stays populated; raises ``ValueError`` when
    the train side would end up empty (a fraction too small to cover a
    single row, or a single-circuit dataset).
    """
    if not dataset.rows:
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    ids = dataset.circuit_ids()
    counts = dataset.rows_per_circuit()
    order = list(ids)
    random.Random(seed).shuffle(order)

    target = round(train_fraction * len(dataset.rows))
    train_ids: set[str] = set()
    acc = 0
    for cid in order:
        if acc >= target or len(train_ids) == len(ids) - 1:
            break
        train_ids.add(cid)
        acc += counts[cid]
    if not train_ids:
        raise ValueError(
            f"train_fraction {train_fraction} produces an empty side "
            f"({len(ids)} circuits, {len(dataset.rows)} rows)")

    train_rows = [r for r in dataset.rows if r.circuit_id in train_ids]
    test_rows = [r for r in dataset.rows if r.circuit_id not in train_ids]
    return Dataset(train_rows), Dataset(test_rows)


def standardize_fit_apply(train: Dataset, others: Sequence[Dataset] = ()) -> list[np.ndarray]:
    """Fit standardization on ``train`` only and apply it everywhere.

    Returns the transformed feature matrices in order ``[train, *others]``
    and attaches the fitted statistics to each dataset.
    """
    if not train.rows:
        raise ValueError("cannot standardize an empty training set")
    std = Standardizer.fit(train.feature_matrix())
    train.standardization = std
    for d in others:
        d.standardization = std
    return [std.transform(d.feature_matrix()) for d in (train, *others)]


def write_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for r in dataset.rows:
            writer.writerow([r.circuit_id, r.x1, r.x2, r.x3, r.x4, r.x5, f"{r.y:.6f}"])


def _parse_dataset_record(fields: list[str]) -> FeatureRow:
    y = float(fields[6])
    if not math.isfinite(y):
        raise ValueError(f"non-finite y ({fields[6]!r})")
    return FeatureRow(fields[0], *map(int, fields[1:6]), y)


def read_dataset(path) -> Dataset:
    return Dataset(read_csv_rows(path, DATASET_HEADER, "dataset", _parse_dataset_record))


def dataset_from_traces(traces: Iterable[DiagnosisTrace]) -> Dataset:
    rows: list[FeatureRow] = []
    for t in traces:
        rows.extend(extract_features(t))
    return Dataset(rows)
