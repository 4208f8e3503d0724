"""Termination policies and the experiment sweeps built on them.

A policy wraps a trained model and a threshold tau: walking a failing
circuit's rows in order, testing stops at the first row whose model score
reaches tau (linear predictions are clamped to [0, 1] first).  A circuit
whose rows never reach tau runs to its last failing pattern.

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

from .dataset import Dataset, Standardizer, dataset_from_traces, standardize_fit_apply
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


def _trace_scores(policy: TerminationPolicy, trace: DiagnosisTrace) -> np.ndarray:
    if isinstance(policy.model, OracleScorer):
        return np.asarray(trace.y_values, dtype=float)
    X = np.array([
        (trace.num_inputs, k, trace.failing_indices[0], idx, trace.failing_indices[-1])
        for k, idx in enumerate(trace.failing_indices, start=1)
    ], dtype=float)
    if policy.standardizer is None:
        raise ValueError("policy needs the training standardizer to score traces")
    return score_matrix(policy.model, policy.standardizer.transform(X))


def apply_policy(policy: TerminationPolicy, trace: DiagnosisTrace) -> tuple[int, int]:
    """Stop decision for one trace.

    Returns ``(k_star, terminated_pattern)``: the 1-based ordinal of the
    stopping failing pattern and its index in the full pattern sequence.
    Without any score >= tau the circuit runs to its last failing pattern.
    """
    scores = _trace_scores(policy, trace)
    hits = np.nonzero(scores >= policy.tau)[0]
    k_star = int(hits[0]) + 1 if hits.size else trace.num_failing
    return k_star, trace.failing_indices[k_star - 1]


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
    corpus_seed: int | None = None


def evaluate(policy: TerminationPolicy, traces: Sequence[DiagnosisTrace],
             corpus_seed: int | None = None) -> TerminationReport:
    """Apply the policy to every trace and summarize.

    A stop is correct when the intermediate candidate set equals the golden
    set at the stopping row; the saved volume counts every pattern after
    the stopping one.
    """
    if not traces:
        raise ValueError("empty test set")
    outcomes = []
    for t in traces:
        k_star, stop_idx = apply_policy(policy, t)
        correct = t.intermediate_sizes[k_star - 1] == t.golden_size
        outcomes.append(CircuitOutcome(
            circuit_id=t.circuit_id,
            k_star=k_star,
            terminated_pattern=stop_idx,
            m_at_termination=t.m_values[k_star - 1],
            correct=correct,
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
        tau=policy.tau,
        model=model_descriptor(policy.model),
        corpus_seed=corpus_seed,
    )


def select_tau(model: Scorer, standardizer: Standardizer | None,
               validation_traces: Sequence[DiagnosisTrace],
               grid: Sequence[float] = DEFAULT_TAU_GRID) -> float:
    """Pick tau on validation traces: best accuracy subject to reduction > 0.

    Ties prefer higher reduction, then the smaller tau.  If no grid point
    yields positive reduction the constraint is dropped.
    """
    scored = []
    for tau in grid:
        rep = evaluate(TerminationPolicy(model, tau, standardizer), validation_traces)
        scored.append((rep.diagnosis_accuracy, rep.volume_reduction, -tau, tau))
    eligible = [s for s in scored if s[1] > 0.0]
    pool = eligible if eligible else scored
    return max(pool)[3]


def classification_accuracy(model: Scorer, X_std: np.ndarray, y_bin: np.ndarray) -> float:
    """Fraction of rows whose 0.5-thresholded score matches the binary label."""
    preds = score_matrix(model, X_std) >= 0.5
    return float(np.mean(preds == (np.asarray(y_bin) == 1.0)))


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


def sweep_alpha(alphas: Sequence[float], train: Dataset,
                validation_traces: Sequence[DiagnosisTrace],
                test_traces: Sequence[DiagnosisTrace],
                penalty: str = "l1",
                tau_grid: Sequence[float] = DEFAULT_TAU_GRID) -> list[AlphaPoint]:
    """One linear model per alpha, each taken through the same policy machinery.

    Results are listed in the given alpha order.  ``label_accuracy`` is the
    alternative row-level reading: clamped predictions thresholded at 0.5
    against the binary convergence labels of the test rows.
    """
    X_train = standardize_fit_apply(train)[0]
    std = train.standardization
    y_train = train.labels()
    test_ds = dataset_from_traces(test_traces)
    X_test = std.transform(test_ds.feature_matrix())
    y_test_bin = test_ds.labels_binary()
    n = len(train)

    points = []
    for alpha in alphas:
        model = fit_penalized_linear(
            X_train, y_train,
            sweep_lasso_alpha(alpha, n) if penalty == "l1" else alpha,
            penalty=penalty)
        tau = select_tau(model, std, validation_traces, tau_grid)
        rep = evaluate(TerminationPolicy(model, tau, std), test_traces)
        points.append(AlphaPoint(
            alpha=alpha,
            tau=tau,
            diagnosis_accuracy=rep.diagnosis_accuracy,
            volume_reduction=rep.volume_reduction,
            label_accuracy=classification_accuracy(model, X_test, y_test_bin),
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

    X_train = standardize_fit_apply(train, [test])[0]
    X_test = train.standardization.transform(test.feature_matrix())
    y_train = train.labels_binary()
    y_test = test.labels_binary()
    n = len(train)
    order = list(range(n))
    _random.Random(seed).shuffle(order)

    results = []
    for size in sizes:
        if size > n:
            raise ValueError(f"requested train size {size} exceeds corpus ({n} rows)")
        idx = sorted(order[:size])
        model = fit_kernel_logistic(X_train[idx], y_train[idx], lam, gamma, config)
        score = classification_accuracy(model, X_test, y_test)
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
