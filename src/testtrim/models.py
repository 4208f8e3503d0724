"""The two predictors, implemented from first principles.

* Penalized linear regression: minimizes ||X b - Y||^2 + alpha ||b||^2 via
  the normal equations with a symmetric positive-definite factorization
  (the intercept column is never penalized).  A true L1 mode solves
  ||X b - Y||^2 + alpha ||b||_1 by cyclic coordinate descent with
  soft-thresholding.

* RBF-kernel logistic classification: the kernel is realized as a landmark
  feature map phi(x) = [1, exp(-gamma ||x - l_1||^2), ...] over (possibly
  subsampled) training rows, and the standard regularized logistic cost is
  minimized by full-batch gradient descent with an analytic gradient.

Both fits are deterministic under a fixed seed, and fitted models are
immutable for prediction purposes.  Model files use a line-oriented text
format with shortest-repr floats, so save/load round-trips are bit exact.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import expit

from .dataset import Standardizer

PROB_EPS = 1e-12

MODEL_FILE_MAGIC = "testtrim-model v1"


@dataclass
class LinearModel:
    beta: np.ndarray
    intercept: float
    alpha: float
    penalty: str = "l2"
    rank_deficient: bool = False


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.3
    iterations: int = 2000
    seed: int = 0
    landmark_cap: int = 512
    grad_tol: float = 1e-6


@dataclass
class KernelLogisticModel:
    theta: np.ndarray            # (L+1,); theta[0] weighs the constant feature
    landmarks: np.ndarray        # (L, d) stored training rows
    gamma: float
    lam: float
    config: TrainConfig
    cost_history: list[float] = field(default_factory=list, repr=False)


def _soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def fit_penalized_linear(X: np.ndarray, Y: np.ndarray, alpha: float,
                         penalty: str = "l2", fit_intercept: bool = True,
                         cd_max_iter: int = 10000, cd_tol: float = 1e-12) -> LinearModel:
    """Fit the penalized least-squares model.

    ``penalty="l2"`` solves (X^T X + alpha I) b = X^T Y exactly;
    ``penalty="l1"`` runs coordinate descent on the lasso objective.  With
    ``alpha == 0`` both reduce to plain least squares and share the closed
    form.  A rank-deficient unpenalized system is reported with a warning
    and resolved to the minimum-norm solution.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    if X.shape[0] < 1:
        raise ValueError("need at least one sample")
    if not np.isfinite(X).all() or not np.isfinite(Y).all():
        raise ValueError("non-finite entries in the design matrix or targets")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if penalty not in ("l2", "l1"):
        raise ValueError(f"penalty must be 'l2' or 'l1', got {penalty!r}")

    n, d = X.shape
    A = np.column_stack([np.ones(n), X]) if fit_intercept else X
    if penalty == "l1" and alpha > 0:
        coef = _lasso_cd(A, Y, alpha, penalize_first=not fit_intercept,
                         max_iter=cd_max_iter, tol=cd_tol)
        rank_deficient = False
    else:
        coef, rank_deficient = _ridge_solve(A, Y, alpha, penalize_first=not fit_intercept)

    if fit_intercept:
        intercept, beta = float(coef[0]), coef[1:]
    else:
        intercept, beta = 0.0, coef
    return LinearModel(beta=beta, intercept=intercept, alpha=alpha,
                       penalty=penalty, rank_deficient=rank_deficient)


def _ridge_solve(A: np.ndarray, Y: np.ndarray, alpha: float,
                 penalize_first: bool) -> tuple[np.ndarray, bool]:
    d = A.shape[1]
    G = A.T @ A
    if alpha > 0:
        pen = np.full(d, alpha)
        if not penalize_first:
            pen[0] = 0.0
        G = G + np.diag(pen)
    b = A.T @ Y
    if alpha == 0:
        rank = np.linalg.matrix_rank(A)
        if rank < d:
            warnings.warn(
                f"unpenalized design matrix is rank deficient (rank {rank} < {d}); "
                f"returning the minimum-norm solution", RuntimeWarning, stacklevel=3)
            coef = np.linalg.lstsq(A, Y, rcond=None)[0]
            return coef, True
    try:
        coef = cho_solve(cho_factor(G), b)
    except LinAlgError:
        # numerically singular despite full rank; fall back to least squares
        coef = np.linalg.lstsq(A, Y, rcond=None)[0]
    return coef, False


def _lasso_cd(A: np.ndarray, Y: np.ndarray, alpha: float, penalize_first: bool,
              max_iter: int, tol: float) -> np.ndarray:
    """Cyclic coordinate descent for ||A w - Y||^2 + alpha * sum |w_j|.

    The first column (the intercept) is exempt from the penalty unless
    ``penalize_first``.  Converges when no coordinate moves more than tol.
    """
    n, d = A.shape
    col_sq = (A ** 2).sum(axis=0)
    w = np.zeros(d)
    r = Y.astype(float).copy()  # residual Y - A w
    thresh = alpha / 2.0
    for _ in range(max_iter):
        max_step = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            rho = A[:, j] @ r + col_sq[j] * w[j]
            if j == 0 and not penalize_first:
                new = rho / col_sq[j]
            else:
                new = _soft_threshold(rho, thresh) / col_sq[j]
            step = new - w[j]
            if step != 0.0:
                r -= step * A[:, j]
                w[j] = new
                max_step = max(max_step, abs(step))
        if max_step <= tol:
            break
    return w


def predict_linear(model: LinearModel, x: Sequence[float]) -> float:
    """Raw linear prediction; any clamping happens at the policy layer."""
    return float(model.intercept + np.asarray(x, dtype=float) @ model.beta)


def predict_linear_batch(model: LinearModel, X: np.ndarray) -> np.ndarray:
    return model.intercept + np.asarray(X, dtype=float) @ model.beta


def rbf_map(x: Sequence[float], landmarks: np.ndarray, gamma: float) -> np.ndarray:
    """Feature vector [1, exp(-gamma ||x - l_j||^2) for each landmark j]."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    x = np.asarray(x, dtype=float)
    L = np.asarray(landmarks, dtype=float)
    d2 = ((L - x) ** 2).sum(axis=1)
    return np.concatenate([[1.0], np.exp(-gamma * d2)])


def rbf_features(X: np.ndarray, landmarks: np.ndarray, gamma: float) -> np.ndarray:
    """Row-wise :func:`rbf_map`, computed with the expanded-norm identity."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    X = np.asarray(X, dtype=float)
    L = np.asarray(landmarks, dtype=float)
    x_sq = (X ** 2).sum(axis=1)[:, None]
    l_sq = (L ** 2).sum(axis=1)[None, :]
    d2 = np.maximum(x_sq + l_sq - 2.0 * X @ L.T, 0.0)
    phi = np.exp(-gamma * d2)
    return np.column_stack([np.ones(X.shape[0]), phi])


def logistic_cost_grad(theta: np.ndarray, Phi: np.ndarray, y_bin: np.ndarray,
                       lam: float) -> tuple[float, np.ndarray]:
    """Regularized logistic cost and its analytic gradient.

    cost = (1/m) sum[ -y log h - (1-y) log(1-h) ] + (lam/2m) sum_{j>=1} theta_j^2
    grad = (1/m) Phi^T (h - y) + (lam/m) theta   (intercept weight exempt)

    Probabilities are clamped to [eps, 1-eps] before the logs only, so the
    gradient stays the exact derivative of the unclamped cost.
    """
    theta = np.asarray(theta, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    y_bin = np.asarray(y_bin, dtype=float)
    if Phi.ndim != 2 or Phi.shape[1] != theta.shape[0]:
        raise ValueError(f"Phi shape {Phi.shape} does not match theta length {theta.shape[0]}")
    if Phi.shape[0] != y_bin.shape[0]:
        raise ValueError(f"Phi has {Phi.shape[0]} rows but y has {y_bin.shape[0]}")
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")

    m = Phi.shape[0]
    h = expit(Phi @ theta)
    h_safe = np.clip(h, PROB_EPS, 1.0 - PROB_EPS)
    cost = float(np.sum(-y_bin * np.log(h_safe) - (1.0 - y_bin) * np.log1p(-h_safe)) / m
                 + (lam / (2.0 * m)) * np.sum(theta[1:] ** 2))
    grad = Phi.T @ (h - y_bin) / m
    grad[1:] += (lam / m) * theta[1:]
    return cost, grad


def fit_kernel_logistic(X_train: np.ndarray, y_bin: np.ndarray, lam: float,
                        gamma: float, config: TrainConfig = TrainConfig()) -> KernelLogisticModel:
    """Train the landmark-map logistic classifier by full-batch gradient descent.

    Landmarks are the training rows, subsampled to ``config.landmark_cap``
    with a seeded draw when the training set is larger.  theta starts at
    zero and is updated until the iteration budget is spent or the gradient
    norm drops below ``config.grad_tol``.
    """
    X_train = np.asarray(X_train, dtype=float)
    y_bin = np.asarray(y_bin, dtype=float)
    classes = np.unique(y_bin)
    if classes.size < 2:
        raise ValueError(f"training labels contain a single class ({classes.tolist()})")

    n = X_train.shape[0]
    if n > config.landmark_cap:
        idx = sorted(random.Random(config.seed).sample(range(n), config.landmark_cap))
        landmarks = X_train[idx].copy()
    else:
        landmarks = X_train.copy()

    Phi = rbf_features(X_train, landmarks, gamma)
    theta = np.zeros(Phi.shape[1])
    costs: list[float] = []
    for _ in range(config.iterations):
        cost, grad = logistic_cost_grad(theta, Phi, y_bin, lam)
        costs.append(cost)
        if np.linalg.norm(grad) < config.grad_tol:
            break
        theta = theta - config.learning_rate * grad
    return KernelLogisticModel(theta=theta, landmarks=landmarks, gamma=gamma,
                               lam=lam, config=config, cost_history=costs)


def predict_prob(model: KernelLogisticModel, x: Sequence[float]) -> float:
    """Convergence probability for one feature row, strictly inside (0, 1)."""
    p = expit(float(model.theta @ rbf_map(x, model.landmarks, model.gamma)))
    return float(np.clip(p, PROB_EPS, 1.0 - PROB_EPS))


def predict_prob_batch(model: KernelLogisticModel, X: np.ndarray) -> np.ndarray:
    Phi = rbf_features(X, model.landmarks, model.gamma)
    return np.clip(expit(Phi @ model.theta), PROB_EPS, 1.0 - PROB_EPS)


# ---------------------------------------------------------------------------
# Model files.  Line-oriented text, floats written with repr() so that the
# parsed value is bit-identical to the written one.


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def save_model(path, model: LinearModel | KernelLogisticModel, standardizer: Standardizer,
               train_circuits: Sequence[str] = (), tau: float | None = None) -> None:
    lines = [MODEL_FILE_MAGIC]
    if isinstance(model, LinearModel):
        lines.append("kind linear")
        lines.append(f"alpha {model.alpha!r}")
        lines.append(f"penalty {model.penalty}")
    else:
        cfg = model.config
        lines.append("kind kernel-logistic")
        lines.append(f"lambda {model.lam!r}")
        lines.append(f"gamma {model.gamma!r}")
        lines.append(f"learning_rate {cfg.learning_rate!r}")
        lines.append(f"iterations {cfg.iterations}")
        lines.append(f"seed {cfg.seed}")
        lines.append(f"landmark_cap {cfg.landmark_cap}")
    lines.append(f"tau {'none' if tau is None else repr(float(tau))}")
    lines.append(f"standardize_mean {_fmt_floats(standardizer.mean)}")
    lines.append(f"standardize_scale {_fmt_floats(standardizer.scale)}")
    lines.append("standardize_constant " + " ".join(str(int(c)) for c in standardizer.constant))
    lines.append("train_circuits " + " ".join(train_circuits))
    if isinstance(model, LinearModel):
        lines.append(f"intercept {model.intercept!r}")
        lines.append(f"beta {_fmt_floats(model.beta)}")
    else:
        lines.append(f"theta {_fmt_floats(model.theta)}")
        lines.append(f"landmarks {model.landmarks.shape[0]}")
        for row in model.landmarks:
            lines.append(f"landmark {_fmt_floats(row)}")
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class LoadedModel:
    model: LinearModel | KernelLogisticModel
    standardizer: Standardizer
    tau: float | None
    train_circuits: tuple[str, ...]


_COMMON_KEYS = ("tau", "standardize_mean", "standardize_scale", "standardize_constant",
                "train_circuits")
_KIND_KEYS = {
    "linear": ("alpha", "penalty", "intercept", "beta"),
    "kernel-logistic": ("lambda", "gamma", "learning_rate", "iterations", "seed",
                        "landmark_cap", "theta", "landmarks"),
}


def load_model(path) -> LoadedModel:
    """Read a model file written by :func:`save_model`.

    Raises ``ValueError`` naming the offending key when a key its ``kind``
    needs is missing, a value does not parse, or vector lengths disagree:
    the ``standardize_*`` vectors with each other and with ``beta`` or the
    landmark width, and ``theta`` with the landmark count.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_FILE_MAGIC:
        raise ValueError(f"{path} is not a model file (bad header)")

    fields: dict[str, str] = {}
    landmark_rows: list[str] = []
    for line in lines[1:]:
        if line == "end":
            break
        key, _, rest = line.partition(" ")
        if key == "landmark":
            landmark_rows.append(rest)
        else:
            fields[key] = rest
    else:
        raise ValueError(f"{path} is truncated (missing 'end')")

    kind = fields.get("kind")
    if kind is None:
        raise ValueError(f"{path}: missing key 'kind'")
    if kind not in _KIND_KEYS:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    for key in _COMMON_KEYS + _KIND_KEYS[kind]:
        if key not in fields:
            raise ValueError(f"{path}: missing key {key!r}")

    def parse(key: str, convert, text: str | None = None):
        text = fields[key] if text is None else text
        try:
            return convert(text)
        except ValueError:
            raise ValueError(f"{path}: bad value for {key!r}: {text!r}") from None

    def floats(text: str) -> np.ndarray:
        return np.array([float(v) for v in text.split()])

    def flags(text: str) -> np.ndarray:
        if any(v not in ("0", "1") for v in text.split()):
            raise ValueError(text)
        return np.array([v == "1" for v in text.split()])

    def check_length(key: str, values: np.ndarray, want: int, what: str) -> None:
        if len(values) != want:
            raise ValueError(f"{path}: {key!r} has {len(values)} values, "
                             f"expected {want} ({what})")

    std = Standardizer(
        mean=parse("standardize_mean", floats),
        scale=parse("standardize_scale", floats),
        constant=parse("standardize_constant", flags),
    )
    width = len(std.mean)
    check_length("standardize_scale", std.scale, width, "the length of 'standardize_mean'")
    check_length("standardize_constant", std.constant, width,
                 "the length of 'standardize_mean'")
    tau = None if fields["tau"] == "none" else parse("tau", float)
    circuits = tuple(fields["train_circuits"].split())

    if kind == "linear":
        beta = parse("beta", floats)
        check_length("beta", beta, width, "the length of 'standardize_mean'")
        model: LinearModel | KernelLogisticModel = LinearModel(
            beta=beta,
            intercept=parse("intercept", float),
            alpha=parse("alpha", float),
            penalty=fields["penalty"],
        )
    else:
        cfg = TrainConfig(
            learning_rate=parse("learning_rate", float),
            iterations=parse("iterations", int),
            seed=parse("seed", int),
            landmark_cap=parse("landmark_cap", int),
        )
        count = parse("landmarks", int)
        if len(landmark_rows) != count:
            raise ValueError(f"{path}: 'landmarks' says {count} rows, "
                             f"found {len(landmark_rows)} 'landmark' lines")
        rows = [parse("landmark", floats, text) for text in landmark_rows]
        for row in rows:
            check_length("landmark", row, width, "the length of 'standardize_mean'")
        theta = parse("theta", floats)
        check_length("theta", theta, count + 1, "one more than 'landmarks'")
        model = KernelLogisticModel(
            theta=theta,
            landmarks=np.array(rows).reshape(count, width),
            gamma=parse("gamma", float),
            lam=parse("lambda", float),
            config=cfg,
        )
    return LoadedModel(model=model, standardizer=std, tau=tau, train_circuits=circuits)
