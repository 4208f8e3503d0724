"""Termination policies and the experiment sweeps built on them.

A policy wraps a trained model and a threshold tau: walking a failing
circuit's rows in order, testing stops at the first row whose model score
reaches tau (linear predictions are clamped to [0, 1] first).  A circuit
whose rows never reach tau runs to its last failing pattern.

Each (model, split) pair is scored once: the split's standardized feature
matrix goes through one :func:`score_matrix` call, and every stop decision,
at every tau tried, is read off that one score vector cut at the split's
circuit boundaries.

The headline metrics:

* diagnosis accuracy: fraction of circuits whose candidate set had already
  converged to the golden set (m = 1) when testing stopped;
* volume reduction: fraction of applied patterns saved by stopping,
  averaged per circuit, counting passing and failing patterns alike.

Alpha sweeps reproduce the published lasso experiments, so their alpha is
interpreted with the usual per-sample convention of mainstream lasso
solvers, i.e. the raw objective is ||Xb - Y||^2 + 2*n*alpha*||b||_1;
`alpha = 0` falls back to plain least squares in either convention.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import CorpusSplit
from .dataset import Dataset, Standardizer
from .diagnosis import DiagnosisTrace
from .models import (KernelLogisticModel, LinearModel, TrainConfig,
                     fit_kernel_logistic, fit_penalized_linear,
                     predict_linear_batch, predict_prob_batch)

DEFAULT_TAU_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
DEFAULT_ALPHA_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
DEFAULT_CURVE_FRACTIONS = (0.05, 0.1, 0.2, 1 / 3, 0.5, 2 / 3, 0.85, 1.0)


class OracleScorer:
    """Scores each row with its ground-truth label; the perfect policy."""

    def __repr__(self) -> str:
        return "OracleScorer()"


Scorer = LinearModel | KernelLogisticModel | OracleScorer


@dataclass
class TerminationPolicy:
    """A scorer plus a stop threshold, fixed before touching the test set."""

    model: Scorer
    tau: float
    standardizer: Standardizer | None = None


def model_descriptor(model: Scorer) -> str:
    if isinstance(model, OracleScorer):
        return "oracle"
    if isinstance(model, LinearModel):
        return f"linear(alpha={model.alpha:g},penalty={model.penalty})"
    return f"kernel-logistic(lambda={model.lam:g},gamma={model.gamma:g})"


def score_matrix(model: Scorer, X_std: np.ndarray) -> np.ndarray:
    """Model scores in [0, 1] for standardized feature rows."""
    if isinstance(model, LinearModel):
        return np.clip(predict_linear_batch(model, X_std), 0.0, 1.0)
    if isinstance(model, KernelLogisticModel):
        return predict_prob_batch(model, X_std)
    raise TypeError(f"cannot score rows with {model!r}")


def _row_scores(model: Scorer, standardizer: Standardizer | None,
                data: Dataset) -> np.ndarray:
    """The score of every row of ``data``; the oracle scores with the labels."""
    if isinstance(model, OracleScorer):
        return data.y
    if standardizer is None:
        raise ValueError("policy needs the training standardizer to score traces")
    return score_matrix(model, standardizer.transform(data.X))


def _stop_ordinals(scores: np.ndarray, offsets: np.ndarray, tau: float) -> np.ndarray:
    """Per circuit, the 1-based ordinal of its first row scoring >= tau,
    or of its last row when none does."""
    hits = np.flatnonzero(scores >= tau)
    starts, ends = offsets[:-1], offsets[1:]
    first = np.append(hits, len(scores))[np.searchsorted(hits, starts)]
    return np.minimum(first, ends - 1) - starts + 1


def classification_accuracy(scores: np.ndarray, y: np.ndarray) -> float:
    """Fraction of rows whose 0.5-thresholded score matches the binary
    label (converged, y == 1)."""
    return float(np.mean((scores >= 0.5) == (y == 1.0)))


@dataclass(frozen=True)
class CircuitOutcome:
    circuit_id: str
    k_star: int
    terminated_pattern: int
    m_at_termination: float
    correct: bool


@dataclass
class TerminationReport:
    diagnosis_accuracy: float
    volume_reduction: float
    per_circuit: list[CircuitOutcome]
    tau: float
    model: str
    classification_accuracy: float
    corpus_seed: int | None = None


def _report(model: Scorer, scores: np.ndarray, data: Dataset,
            traces: Sequence[DiagnosisTrace], tau: float,
            corpus_seed: int | None = None) -> TerminationReport:
    """The policy (model, tau) on ``traces``, given the score of every row
    of ``data``, the traces' feature rows."""
    if not traces:
        raise ValueError("empty test set")
    if data.circuit_ids != [t.circuit_id for t in traces]:
        raise ValueError("feature rows and traces cover different circuits")
    outcomes = []
    for t, k_star in zip(traces, _stop_ordinals(scores, data.offsets, tau).tolist()):
        outcomes.append(CircuitOutcome(
            circuit_id=t.circuit_id,
            k_star=k_star,
            terminated_pattern=t.failing_indices[k_star - 1],
            m_at_termination=t.m_values[k_star - 1],
            correct=t.intermediate_sizes[k_star - 1] == t.golden_size,
        ))
    accuracy = sum(o.correct for o in outcomes) / len(outcomes)
    reduction = sum(
        (t.total_patterns - o.terminated_pattern) / t.total_patterns
        for t, o in zip(traces, outcomes)
    ) / len(outcomes)
    return TerminationReport(
        diagnosis_accuracy=accuracy,
        volume_reduction=reduction,
        per_circuit=outcomes,
        tau=tau,
        model=model_descriptor(model),
        classification_accuracy=classification_accuracy(scores, data.y),
        corpus_seed=corpus_seed,
    )


def evaluate(policy: TerminationPolicy, data: Dataset, traces: Sequence[DiagnosisTrace],
             corpus_seed: int | None = None) -> TerminationReport:
    """Apply the policy to every trace and summarize.

    ``data`` holds the traces' feature rows (``dataset_from_traces(traces)``
    or the matching split); it is scored once.  A circuit stops at its
    first row scoring >= tau, or at its last row.  A stop is correct when
    the intermediate candidate set equals the golden set at the stopping
    row; the saved volume counts every pattern after the stopping one.
    ``classification_accuracy`` reads the same scores at 0.5.
    """
    scores = _row_scores(policy.model, policy.standardizer, data)
    return _report(policy.model, scores, data, traces, policy.tau, corpus_seed)


def _pick_tau(model: Scorer, scores: np.ndarray, data: Dataset,
              traces: Sequence[DiagnosisTrace], grid: Sequence[float]) -> float:
    scored = []
    for tau in grid:
        rep = _report(model, scores, data, traces, tau)
        scored.append((rep.diagnosis_accuracy, rep.volume_reduction, -tau, tau))
    eligible = [s for s in scored if s[1] > 0.0]
    pool = eligible if eligible else scored
    return max(pool)[3]


def select_tau(model: Scorer, standardizer: Standardizer | None, data: Dataset,
               traces: Sequence[DiagnosisTrace],
               grid: Sequence[float] = DEFAULT_TAU_GRID) -> float:
    """Pick tau on validation traces (feature rows ``data``, scored once):
    best accuracy subject to reduction > 0.

    Ties prefer higher reduction, then the smaller tau.  If no grid point
    yields positive reduction the constraint is dropped.
    """
    return _pick_tau(model, _row_scores(model, standardizer, data), data, traces, grid)


def sweep_lasso_alpha(alpha: float, n: int) -> float:
    """Raw penalty weight matching the per-sample lasso convention."""
    return 2.0 * n * alpha


@dataclass(frozen=True)
class AlphaPoint:
    alpha: float
    tau: float
    diagnosis_accuracy: float
    volume_reduction: float
    label_accuracy: float
    beta: tuple[float, ...]
    intercept: float


def sweep_alpha(alphas: Sequence[float], split: CorpusSplit, penalty: str = "l1",
                tau_grid: Sequence[float] = DEFAULT_TAU_GRID) -> list[AlphaPoint]:
    """One linear model per alpha, each taken through the same policy machinery.

    Each model is fitted on the split's train rows, picks tau on its
    validation circuits and is scored on its test circuits.  Results are
    listed in the given alpha order.  ``label_accuracy`` is the
    alternative row-level reading of the same test scores: clamped
    predictions thresholded at 0.5 against the binary convergence labels.
    """
    std = Standardizer.fit(split.train.X)
    X_train = std.transform(split.train.X)
    X_val = std.transform(split.validation.X)
    X_test = std.transform(split.test.X)
    n = len(split.train)

    points = []
    for alpha in alphas:
        model = fit_penalized_linear(
            X_train, split.train.y,
            sweep_lasso_alpha(alpha, n) if penalty == "l1" else alpha,
            penalty=penalty)
        tau = _pick_tau(model, score_matrix(model, X_val), split.validation,
                        split.validation_traces, tau_grid)
        rep = _report(model, score_matrix(model, X_test), split.test, split.test_traces, tau)
        points.append(AlphaPoint(
            alpha=alpha,
            tau=tau,
            diagnosis_accuracy=rep.diagnosis_accuracy,
            volume_reduction=rep.volume_reduction,
            label_accuracy=rep.classification_accuracy,
            beta=tuple(float(b) for b in model.beta),
            intercept=model.intercept,
        ))
    return points


def learning_curve(sizes: Sequence[int], train: Dataset, test: Dataset,
                   lam: float, gamma: float, config: TrainConfig,
                   seed: int) -> list[tuple[int, float]]:
    """Classifier test score at nested training-subset sizes.

    Subsets are the first ``size`` entries of one seeded permutation, so
    smaller sets are contained in larger ones; rows are fed to the fit in
    original dataset order, which makes the full-size point identical to a
    direct fit on the whole training set.
    """
    import random as _random

    std = Standardizer.fit(train.X)
    X_train, X_test = std.transform(train.X), std.transform(test.X)
    y_train = train.labels_binary()
    n = len(train)
    order = list(range(n))
    _random.Random(seed).shuffle(order)

    results = []
    for size in sizes:
        if size > n:
            raise ValueError(f"requested train size {size} exceeds corpus ({n} rows)")
        idx = sorted(order[:size])
        model = fit_kernel_logistic(X_train[idx], y_train[idx], lam, gamma, config)
        score = classification_accuracy(score_matrix(model, X_test), test.y)
        results.append((size, score))
    return results


def curve_sizes(n_rows: int,
                fractions: Sequence[float] = DEFAULT_CURVE_FRACTIONS) -> list[int]:
    sizes = sorted({max(2, round(f * n_rows)) for f in fractions})
    return [s for s in sizes if s <= n_rows]


# ---------------------------------------------------------------------------
# CSV emission: plot-ready, 6 fractional digits.


def write_report_csv(report: TerminationReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["circuit_id", "k_star", "terminated_pattern",
                         "m_at_termination", "correct"])
        for o in report.per_circuit:
            writer.writerow([o.circuit_id, o.k_star, o.terminated_pattern,
                             f"{o.m_at_termination:.6f}", int(o.correct)])


def write_summary_csv(report: TerminationReport, path,
                      classification_acc: float | None = None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "tau", "diagnosis_accuracy", "volume_reduction",
                         "classification_accuracy", "corpus_seed"])
        writer.writerow([
            report.model, f"{report.tau:.6f}",
            f"{report.diagnosis_accuracy:.6f}", f"{report.volume_reduction:.6f}",
            "" if classification_acc is None else f"{classification_acc:.6f}",
            "" if report.corpus_seed is None else report.corpus_seed,
        ])


def write_sweep_csv(points: Sequence[AlphaPoint], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "tau", "diagnosis_accuracy", "volume_reduction",
                         "label_accuracy"])
        for p in points:
            writer.writerow([f"{p.alpha:.6g}", f"{p.tau:.6f}",
                             f"{p.diagnosis_accuracy:.6f}", f"{p.volume_reduction:.6f}",
                             f"{p.label_accuracy:.6f}"])


def write_beta_csv(points: Sequence[AlphaPoint], path) -> None:
    """Coefficient vector per swept alpha, for the weight-vs-penalty plot."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta_1", "beta_2", "beta_3", "beta_4", "beta_5"])
        for p in points:
            writer.writerow([f"{p.alpha:.6g}"] + [f"{b:.6f}" for b in p.beta])


def write_curve_csv(points: Sequence[tuple[int, float]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["train_size", "test_score"])
        for size, score in points:
            writer.writerow([size, f"{score:.6f}"])
