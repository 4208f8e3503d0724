"""Stop policies scored on a split, and the experiment sweeps built on them.

A stop policy is a score per row and a threshold tau: walking a failing
circuit's rows in order, testing stops at the first row whose score
reaches tau, or at the circuit's last failing pattern when none does.
There is no policy object: :func:`evaluate` takes a split's
:class:`~testtrim.dataset.Dataset` and one score vector over its rows, and
reads every fact of a stop off the stop row.  A trained model gives that
vector through one :func:`score_matrix` call on the split's rows (linear
predictions clamped to [0, 1]); the oracle policy scores each row with its
label ``y``.  Every tau tried reads the same vector.

:func:`fit_policy` is the one fit path, for ``train`` and for each swept
alpha.  Everything here reads the trace-derived dataset only.

The headline metrics:

* diagnosis accuracy: fraction of circuits whose candidate set had already
  converged to the golden set (m = 1, hence y = 1) when testing stopped;
* volume reduction: fraction of applied patterns saved by stopping,
  averaged per circuit, counting passing and failing patterns alike.

The linear model is the lasso, with the per-sample alpha of
:func:`~testtrim.models.fit_penalized_linear`.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import RunConfig
from .dataset import CorpusSplit, Dataset, Standardizer
from .models import (KernelLogisticModel, LinearModel, fit_kernel_logistic,
                     fit_penalized_linear, predict_linear_batch, predict_prob_batch)

DEFAULT_TAU_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
DEFAULT_ALPHA_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
DEFAULT_CURVE_FRACTIONS = (0.05, 0.1, 0.2, 1 / 3, 0.5, 2 / 3, 0.85, 1.0)


def model_descriptor(cfg: RunConfig) -> str:
    """The configured model and the settings of its fit, as set."""
    if cfg.model_kind == "linear":
        return f"linear(alpha={cfg.model_alpha:g})"
    return f"kernel-logistic(lambda={cfg.model_lambda:g},gamma={cfg.model_gamma:g})"


def score_matrix(model: LinearModel | KernelLogisticModel, std: Standardizer,
                 X: np.ndarray) -> np.ndarray:
    """Model scores in [0, 1] for feature rows ``X``, standardized by ``std``.
    Arithmetic that overflows raises ``FloatingPointError``: only a model of
    absurd magnitude, such as a corrupted ``model.txt``, gets there."""
    with np.errstate(over="raise", invalid="raise"):
        X_std = std.transform(X)
        if isinstance(model, LinearModel):
            return np.clip(predict_linear_batch(model, X_std), 0.0, 1.0)
        return predict_prob_batch(model, X_std)


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
    classification_accuracy: float


def evaluate(data: Dataset, scores: np.ndarray, tau: float) -> TerminationReport:
    """Stop every circuit of ``data`` at its first row whose score is >= tau,
    or at its last row, and summarize.

    ``scores`` holds one score per row of ``data``.  The stop row gives the
    terminated pattern (its x4), the convergence ratio m there, and
    whether the stop is correct: the candidate set has converged to the
    golden set, i.e. y == 1.  The saved volume counts every pattern after
    the stopping one.  ``classification_accuracy`` reads the same scores
    at 0.5.
    """
    if not data.circuit_ids:
        raise ValueError("empty test set")
    k_star = _stop_ordinals(scores, data.offsets, tau)
    rows = data.offsets[:-1] + k_star - 1
    outcomes = [
        CircuitOutcome(circuit_id=cid, k_star=k, terminated_pattern=int(pattern),
                       m_at_termination=m, correct=y == 1.0)
        for cid, k, pattern, m, y in zip(data.circuit_ids, k_star.tolist(),
                                         data.X[rows, 3].tolist(), data.m[rows].tolist(),
                                         data.y[rows].tolist())
    ]
    accuracy = sum(o.correct for o in outcomes) / len(outcomes)
    # a Python sum in circuit order: select_tau breaks ties on this value
    reduction = sum(
        (total - o.terminated_pattern) / total
        for total, o in zip(data.total_patterns.tolist(), outcomes)
    ) / len(outcomes)
    return TerminationReport(
        diagnosis_accuracy=accuracy,
        volume_reduction=reduction,
        per_circuit=outcomes,
        tau=tau,
        classification_accuracy=classification_accuracy(scores, data.y),
    )


def select_tau(data: Dataset, scores: np.ndarray) -> float:
    """Pick tau from ``DEFAULT_TAU_GRID`` on validation rows ``data`` scored
    ``scores``: best accuracy subject to reduction > 0.

    Ties prefer higher reduction, then the smaller tau.  If no grid point
    yields positive reduction the constraint is dropped.
    """
    scored = []
    for tau in DEFAULT_TAU_GRID:
        rep = evaluate(data, scores, tau)
        scored.append((rep.diagnosis_accuracy, rep.volume_reduction, -tau, tau))
    pool = [s for s in scored if s[1] > 0.0] or scored
    return max(pool)[3]


def _fit_kernel(cfg: RunConfig, X: np.ndarray, y_bin: np.ndarray) -> KernelLogisticModel:
    return fit_kernel_logistic(X, y_bin, cfg.model_lambda, cfg.model_gamma,
                               iterations=cfg.model_iterations,
                               landmark_cap=cfg.model_landmark_cap, seed=cfg.model_seed)


def fit_policy(cfg: RunConfig, split: CorpusSplit):
    """Fit the configured model on the train rows and pick tau, on the
    validation rows when ``policy.tau = auto``; returns ``(model,
    standardizer, tau)``."""
    std = Standardizer.fit(split.train.X)
    X_train = std.transform(split.train.X)
    if cfg.model_kind == "linear":
        model = fit_penalized_linear(X_train, split.train.y, cfg.model_alpha)
    else:
        model = _fit_kernel(cfg, X_train, split.train.labels_binary())
    if cfg.policy_tau != "auto":
        return model, std, float(cfg.policy_tau)
    if split.validation is None:
        raise ValueError("policy.tau = auto needs a validation split "
                         "(set split.validation_fraction > 0)")
    scores = score_matrix(model, std, split.validation.X)
    return model, std, select_tau(split.validation, scores)


@dataclass(frozen=True)
class AlphaPoint:
    alpha: float
    tau: float
    diagnosis_accuracy: float
    volume_reduction: float
    label_accuracy: float
    beta: tuple[float, ...]


def sweep_alpha(alphas: Sequence[float], split: CorpusSplit) -> list[AlphaPoint]:
    """One lasso model per alpha, each taken through the same stop policy.

    Each alpha is fitted by :func:`fit_policy` with tau picked on the
    validation circuits, and scored on the test circuits, in the given
    alpha order.  ``label_accuracy`` is the alternative row-level reading
    of the same test scores: clamped predictions thresholded at 0.5 against
    the binary convergence labels.
    """
    points = []
    for alpha in alphas:
        model, std, tau = fit_policy(RunConfig(model_kind="linear", model_alpha=alpha), split)
        rep = evaluate(split.test, score_matrix(model, std, split.test.X), tau)
        points.append(AlphaPoint(
            alpha=alpha,
            tau=tau,
            diagnosis_accuracy=rep.diagnosis_accuracy,
            volume_reduction=rep.volume_reduction,
            label_accuracy=rep.classification_accuracy,
            beta=tuple(float(b) for b in model.beta),
        ))
    return points


def learning_curve(split: CorpusSplit, cfg: RunConfig) -> list[tuple[int, float]]:
    """Test score of the configured kernel classifier trained on nested
    subsets, ``DEFAULT_CURVE_FRACTIONS`` of the train rows, as
    ``(size, score)`` in ascending size.

    Subsets are the first ``size`` entries of one permutation seeded with
    ``model.seed``; rows are fed to the fit in dataset order and
    standardized with the whole train side's statistics, so the full-size
    point is a direct fit on the whole training set.  The sizes are fitted
    largest first, so each smaller feature matrix fits in the memory the
    one before it freed.  A fit that fails raises ``ValueError`` naming
    its size, and so does a train side of fewer than 2 rows, which gives
    no size.
    """
    n = len(split.train)
    if n < 2:
        raise ValueError(f"learning curve needs at least 2 train rows, got {n}")
    std = Standardizer.fit(split.train.X)
    X_train = std.transform(split.train.X)
    y_train = split.train.labels_binary()
    order = list(range(n))
    random.Random(cfg.model_seed).shuffle(order)

    results = []
    sizes = {max(2, round(f * n)) for f in DEFAULT_CURVE_FRACTIONS}
    for size in sorted((s for s in sizes if s <= n), reverse=True):
        idx = sorted(order[:size])
        try:
            model = _fit_kernel(cfg, X_train[idx], y_train[idx])
        except ValueError as exc:
            raise ValueError(f"learning curve at {size} train rows: {exc}") from None
        score = classification_accuracy(score_matrix(model, std, split.test.X),
                                        split.test.y)
        results.append((size, score))
    return results[::-1]


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


def write_summary_csv(report: TerminationReport, path, model: str, corpus_seed: int,
                      classification_acc: float | None = None) -> None:
    """One row: ``model`` names the scorer; the classification accuracy is
    left blank when none is given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "tau", "diagnosis_accuracy", "volume_reduction",
                         "classification_accuracy", "corpus_seed"])
        writer.writerow([
            model, f"{report.tau:.6f}",
            f"{report.diagnosis_accuracy:.6f}", f"{report.volume_reduction:.6f}",
            "" if classification_acc is None else f"{classification_acc:.6f}",
            corpus_seed,
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
