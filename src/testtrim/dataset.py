"""Feature matrix, the circuit-level split, CSV export.

Each failing pattern of a trace becomes one row with five features:

    x1  number of primary inputs of the circuit
    x2  failing patterns applied so far (the row's ordinal k)
    x3  index of the circuit's first failing pattern
    x4  index of this failing pattern
    x5  index of the circuit's last failing pattern

plus the row's convergence ratio m and its regression label y.  With
``golden`` the trace's last intermediate size and ``size`` the row's,
m = golden / size; it does not fall along a trace and ends at 1.  The
label rescales m so that each trace spans [0, 1]: y = 1 where m = 1,
otherwise (m - m_min) / (1 - m_min) with m_min the trace's smallest m.
Both are rounded to six digits, the digits ``traces.csv`` held when it
stored them, so ``dataset.csv``, ``model.txt`` and every metric CSV keep
the bytes they had then.  :func:`~testtrim.diagnosis.read_traces` refuses
the sizes that would put an m outside (0, 1].

A :class:`Dataset` holds the rows as arrays: the float feature matrix
``X``, the label vector ``y``, the ratio vector ``m``, each circuit's
applied pattern count ``total_patterns``, and the circuit boundaries
(circuit ids plus row offsets), so circuit ``c`` owns rows
``offsets[c]:offsets[c + 1]`` in trace order.  A split's ``Dataset`` is
all that scoring a stop policy on it needs.  Rows of one circuit are
heavily correlated (they share x1/x3/x5), so :func:`split_corpus`, the one
split every stage applies, cuts whole circuits.  Rows come from the trace
record alone, and this module derives every value of a row.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import RunConfig
from .diagnosis import DiagnosisTrace

NUM_FEATURES = 5

DATASET_HEADER = ["circuit_id", "x1", "x2", "x3", "x4", "x5", "y"]


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
        if not len(X):
            raise ValueError("cannot standardize an empty training set")
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
    """Feature rows of whole circuits, as arrays.

    ``X`` is the ``(rows, 5)`` float feature matrix, ``y`` the labels and
    ``m`` the convergence ratios, one per row; circuit ``circuit_ids[c]``
    owns rows ``offsets[c]:offsets[c + 1]`` and applied
    ``total_patterns[c]`` patterns.  ``X`` holds raw features; a fit
    standardizes them with a :class:`Standardizer` fitted on its training
    portion.
    """

    X: np.ndarray
    y: np.ndarray
    m: np.ndarray
    circuit_ids: list[str]
    total_patterns: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.y)

    def labels_binary(self) -> np.ndarray:
        """1.0 exactly on converged rows (y == 1), else 0.0."""
        return (self.y == 1.0).astype(float)


def _offsets(counts: Sequence[int]) -> np.ndarray:
    """Row offsets of consecutive circuits with ``counts`` rows each."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def dataset_from_traces(traces: Iterable[DiagnosisTrace]) -> Dataset:
    """One row per failing pattern of each trace, circuits in trace order;
    m and y as the module docstring defines them."""
    ids, totals, counts, x1, x3, x4, x5, y, m = [], [], [], [], [], [], [], [], []
    for t in traces:
        failing = t.failing_indices
        ids.append(t.circuit_id)
        totals.append(t.total_patterns)
        counts.append(len(failing))
        x1.append(t.num_inputs)
        x3.append(failing[0])
        x5.append(failing[-1])
        x4.extend(failing)
        ratios = [t.golden_size / size for size in t.intermediate_sizes]
        m_min = min(ratios)
        # Python's round: np.round can differ in the last bit, and so would the bytes
        m.extend(round(r, 6) for r in ratios)
        y.extend(1.0 if r == 1.0 else round((r - m_min) / (1.0 - m_min), 6) for r in ratios)
    offsets = _offsets(counts)
    X = np.empty((len(x4), NUM_FEATURES))
    X[:, 0] = np.repeat(x1, counts)
    X[:, 1] = np.arange(1, len(x4) + 1) - np.repeat(offsets[:-1], counts)
    X[:, 2] = np.repeat(x3, counts)
    X[:, 3] = x4
    X[:, 4] = np.repeat(x5, counts)
    return Dataset(X, np.array(y, dtype=float), np.array(m, dtype=float), ids,
                   np.array(totals, dtype=np.int64), offsets)


def _take(dataset: Dataset, keep: np.ndarray) -> Dataset:
    """The circuits where the boolean ``keep`` is set, rows in dataset order."""
    counts = np.diff(dataset.offsets)
    rows = np.repeat(keep, counts)
    ids = [cid for cid, k in zip(dataset.circuit_ids, keep) if k]
    return Dataset(dataset.X[rows], dataset.y[rows], dataset.m[rows], ids,
                   dataset.total_patterns[keep], _offsets(counts[keep]))


def _split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic split by circuit.

    Circuits are shuffled with the seed, then assigned to the train side
    until it holds at least ``train_fraction`` of the rows; the row fraction
    is honored to within one circuit's row count.  The last circuit is never
    consumed, so the test side stays populated; raises ``ValueError`` when
    the train side would end up empty (a fraction too small to cover a
    single row, or a single-circuit dataset).  Both sides keep the
    dataset's circuit and row order.
    """
    if not len(dataset):
        raise ValueError("cannot split an empty dataset")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    num_circuits = len(dataset.circuit_ids)
    counts = np.diff(dataset.offsets).tolist()
    order = list(range(num_circuits))
    random.Random(seed).shuffle(order)

    target = round(train_fraction * len(dataset))
    keep = np.zeros(num_circuits, dtype=bool)
    taken = acc = 0
    for c in order:
        if acc >= target or taken == num_circuits - 1:
            break
        keep[c] = True
        taken += 1
        acc += counts[c]
    if not taken:
        raise ValueError(f"the split leaves an empty side "
                         f"({num_circuits} circuits, {len(dataset)} rows to split)")
    return _take(dataset, keep), _take(dataset, ~keep)


@dataclass
class CorpusSplit:
    """Circuit-disjoint train / validation / test portions."""

    train: Dataset
    validation: Dataset | None
    test: Dataset


def split_corpus(dataset: Dataset, cfg: RunConfig,
                 with_validation: bool = True) -> CorpusSplit:
    """Two seeded circuit-level splits: test held out first, then validation
    carved from the train side when requested.  A split that fails raises
    ``ValueError`` naming the ``split.*`` settings that led to it."""
    settings = f"split.train_fraction = {cfg.split_train_fraction}"
    try:
        trainval, test = _split(dataset, cfg.split_train_fraction, cfg.split_seed)
        train, validation = trainval, None
        if with_validation and cfg.split_validation_fraction > 0.0:
            settings += f", then split.validation_fraction = {cfg.split_validation_fraction}"
            # derived seed keeps the two shuffles independent
            train, validation = _split(trainval, 1.0 - cfg.split_validation_fraction,
                                       cfg.split_seed + 1)
    except ValueError as exc:
        raise ValueError(f"{settings}: {exc}") from None
    return CorpusSplit(train=train, validation=validation, test=test)


def write_dataset(dataset: Dataset, path) -> None:
    """CSV export, one record per row; no stage reads it back."""
    X = dataset.X.astype(np.int64).tolist()
    y = dataset.y.tolist()
    bounds = dataset.offsets.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_HEADER)
        for c, cid in enumerate(dataset.circuit_ids):
            for r in range(bounds[c], bounds[c + 1]):
                writer.writerow([cid, *X[r], f"{y[r]:.6f}"])
