"""The two predictors, implemented from first principles.

* LASSO regression: minimizes ||X b - Y||^2 / (2n) + alpha ||b||_1 over
  n rows by cyclic coordinate descent with soft-thresholding (the
  intercept is never penalized); alpha = 0 is plain least squares.

* RBF-kernel logistic classification: the kernel is realized as a landmark
  feature map phi(x) = [1, exp(-gamma ||x - l_1||^2), ...] over (possibly
  subsampled) training rows, and the standard regularized logistic cost is
  minimized by a limited-memory BFGS loop (Liu & Nocedal, 1989) on its
  analytic gradient, until the gradient norm falls below a tolerance.  The
  map fills one preallocated matrix a block of rows at a time, so a fit or
  a scoring holds that one matrix and nothing else of its size; the line
  search evaluates the cost alone and takes the gradient, one pass over
  that matrix, at the accepted step only.

Both fits are deterministic under a fixed seed, and fitted models are
immutable for prediction purposes.

A model file (``model.txt``, layout ``testtrim-model v3``) is read in the
order it is written.  After the header come the fit's settings, every
``model.*`` key and ``policy.tau`` as set, as a config record, so they pass
the checks a config file does.  Then one ``key values`` line each, in order:

* ``tau``: the threshold the policy stops at, chosen when ``policy.tau`` is
  ``auto``;
* ``standardize_mean``, ``standardize_scale`` and ``standardize_constant``:
  the feature standardizer, ``NUM_FEATURES`` values each;
* ``train_circuits``: the ids of the train and validation circuits, one
  csv row, so any id round-trips;
* linear: ``intercept`` and ``beta``; kernel-logistic: ``theta``, then
  ``landmarks L`` and L ``landmark`` rows.

The last line is ``end``.  Floats are written in shortest repr, so
save/load round-trips are bit exact.
"""

from __future__ import annotations

import csv
import io
import random
import warnings
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Sequence

import numpy as np

from .config import MODEL_KEYS, RunConfig, config_to_text, read_record, take_line
from .dataset import NUM_FEATURES, Standardizer

PROB_EPS = 1e-12

LBFGS_MEMORY = 10       # (s, y) pairs kept by the kernel-logistic fit
ARMIJO_C1 = 1e-4        # sufficient-decrease constant of its line search
MAX_BACKTRACKS = 50     # step halvings before the line search gives up

CD_MAX_ITER = 10000     # coordinate-descent sweeps of the lasso fit
CD_TOL = 1e-12          # it stops once no coordinate moves more than this
GRAD_TOL = 1e-6         # the kernel-logistic fit converges below this gradient norm

MODEL_FILE_MAGIC = "testtrim-model v3"


@dataclass
class LinearModel:
    beta: np.ndarray
    intercept: float


@dataclass
class KernelLogisticModel:
    theta: np.ndarray            # (L+1,); theta[0] weighs the constant feature
    landmarks: np.ndarray        # (L, d) stored training rows
    gamma: float
    cost_history: list[float] = field(default_factory=list, repr=False)
    grad_norm: float | None = None   # ||grad||_2 where the fit stopped; not persisted

    @property
    def converged(self) -> bool:
        return self.grad_norm is not None and self.grad_norm < GRAD_TOL


def _soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def fit_penalized_linear(X: np.ndarray, Y: np.ndarray, alpha: float) -> LinearModel:
    """Fit the lasso with an unpenalized intercept.

    Over the n rows of ``X`` the objective is ||A w - Y||^2 / (2n) +
    alpha ||w[1:]||_1, with A = [1, X] and w = (intercept, beta), so alpha
    is per sample, the convention of Friedman, Hastie & Tibshirani (2010).
    It is minimized by :func:`_lasso_cd`.  With ``alpha == 0`` one
    least-squares solve gives the minimum-norm solution, and a rank-deficient
    design is reported with a warning.
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

    A = np.column_stack([np.ones(X.shape[0]), X])
    if alpha > 0:
        coef = _lasso_cd(A, Y, alpha)
    else:
        coef, _, rank, _ = np.linalg.lstsq(A, Y, rcond=None)
        if rank < A.shape[1]:
            warnings.warn(
                f"unpenalized design matrix is rank deficient (rank {rank} < {A.shape[1]}); "
                f"returning the minimum-norm solution", RuntimeWarning, stacklevel=2)
    return LinearModel(beta=coef[1:], intercept=float(coef[0]))


def _lasso_cd(A: np.ndarray, Y: np.ndarray, alpha: float) -> np.ndarray:
    """Cyclic coordinate descent for ||A w - Y||^2 / (2n) + alpha * sum_{j>=1} |w_j|
    over the n rows of ``A``.

    The first column (the intercept) is exempt from the penalty.  Stops
    when no coordinate moves more than ``CD_TOL``, or after ``CD_MAX_ITER``
    sweeps.
    """
    n, d = A.shape
    col_sq = (A ** 2).sum(axis=0)
    w = np.zeros(d)
    r = Y.astype(float).copy()  # residual Y - A w
    thresh = alpha * n
    for _ in range(CD_MAX_ITER):
        max_step = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            rho = A[:, j] @ r + col_sq[j] * w[j]
            if j == 0:
                new = rho / col_sq[j]
            else:
                new = _soft_threshold(rho, thresh) / col_sq[j]
            step = new - w[j]
            if step != 0.0:
                r -= step * A[:, j]
                w[j] = new
                max_step = max(max_step, abs(step))
        if max_step <= CD_TOL:
            break
    return w


def predict_linear_batch(model: LinearModel, X: np.ndarray) -> np.ndarray:
    return model.intercept + np.asarray(X, dtype=float) @ model.beta


# Rows per block of the RBF map: the block's distance temporaries stay in
# cache while one Phi is filled.  Fixed from timing the map of the seed-7
# train rows (2628 x 5, 512 landmarks) on a 2-core x86 host, best / median
# of 25 interleaved runs: one-shot map 24.5 / 26.6 ms, 64 rows 13.3 / 14.6,
# 128 rows 10.5 / 11.8, 256 rows 12.3 / 13.7, 512 rows 13.8 / 14.8, 1024
# rows 13.9 / 15.0.
_RBF_ROWS = 128


def rbf_features(X: np.ndarray, landmarks: np.ndarray, gamma: float) -> np.ndarray:
    """Feature rows [1, exp(-gamma ||x - l_j||^2) for each landmark j], one
    per row ``x`` of ``X``, computed with the expanded-norm identity.

    The result is allocated once; its columns 1.. are filled ``_RBF_ROWS``
    rows at a time, each block through the same operations in the same
    order as a one-shot map, so the bits do not depend on the block height.
    A one-row tail joins the block before it: numpy hands a one-row product
    to gemv, whose last bits differ from gemm's.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    X = np.asarray(X, dtype=float)
    L = np.asarray(landmarks, dtype=float)
    n = X.shape[0]
    x_sq = (X ** 2).sum(axis=1)[:, None]
    l_sq = (L ** 2).sum(axis=1)[None, :]
    Phi = np.empty((n, L.shape[0] + 1))
    Phi[:, 0] = 1.0
    starts = list(range(0, n, _RBF_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for a, b in zip(starts, starts[1:] + [n]):
        # rounds as x_sq + l_sq - (2 x) . l: doubling is exact, so -2 (x . l)
        # is that product negated
        block = X[a:b] @ L.T
        block *= -2.0
        block += x_sq[a:b] + l_sq
        np.maximum(block, 0.0, out=block)
        # a huge gamma takes a distance to -inf, whose exp is the exact kernel 0
        with np.errstate(over="ignore"):
            block *= -gamma
        Phi[a:b, 1:] = np.exp(block, out=block)
    return Phi


def _sigmoid(z):
    """Logistic function 1 / (1 + exp(-z)), elementwise.

    exp(-z) overflows to inf for z below about -709.8, which gives exactly
    0.0; the overflow is expected, so its warning is silenced.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


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
    cost, h = _logistic_cost(theta, Phi, y_bin, lam)
    return cost, _logistic_grad(theta, Phi, y_bin, h, lam)


def _logistic_cost(theta: np.ndarray, Phi: np.ndarray, y_bin: np.ndarray,
                   lam: float) -> tuple[float, np.ndarray]:
    """The cost of :func:`logistic_cost_grad` and the unclamped
    probabilities h its gradient reads."""
    m = Phi.shape[0]
    h = _sigmoid(Phi @ theta)
    h_safe = np.clip(h, PROB_EPS, 1.0 - PROB_EPS)
    cost = float(np.sum(-y_bin * np.log(h_safe) - (1.0 - y_bin) * np.log1p(-h_safe)) / m
                 + (lam / (2.0 * m)) * np.sum(theta[1:] ** 2))
    return cost, h


def _logistic_grad(theta: np.ndarray, Phi: np.ndarray, y_bin: np.ndarray,
                   h: np.ndarray, lam: float) -> np.ndarray:
    """The gradient of :func:`logistic_cost_grad` at ``theta``, from the
    probabilities ``h`` that :func:`_logistic_cost` gave there."""
    m = Phi.shape[0]
    grad = Phi.T @ (h - y_bin) / m
    grad[1:] += (lam / m) * theta[1:]
    return grad


def fit_kernel_logistic(X_train: np.ndarray, y_bin: np.ndarray, lam: float, gamma: float,
                        *, iterations: int, landmark_cap: int, seed: int) -> KernelLogisticModel:
    """Train the landmark-map logistic classifier by limited-memory BFGS.

    Landmarks are the training rows, subsampled to ``landmark_cap`` with a
    draw seeded by ``seed`` when the training set is larger.  theta starts at
    zero.  Each step takes the two-loop L-BFGS direction over the last
    ``LBFGS_MEMORY`` curvature pairs (the normalized steepest-descent
    direction on the first step) and backtracks from a unit step until the
    Armijo condition holds with a strict decrease.  The fit stops when the
    gradient norm drops below ``GRAD_TOL`` (converged), after
    ``iterations`` accepted steps, or when the line search finds no
    decrease; the last two leave ``model.converged`` false.
    ``cost_history`` holds the initial cost and the cost after each
    accepted step, so it is strictly decreasing.

    The fit holds one feature matrix Phi of the training rows.  Each trial
    step costs one product Phi theta; the gradient, one more pass over Phi,
    is taken once per accepted step, from the probabilities its trial kept.
    """
    X_train = np.asarray(X_train, dtype=float)
    y_bin = np.asarray(y_bin, dtype=float)
    # min and max, not np.unique: that loads numpy.ma on its first call
    if y_bin.size == 0 or y_bin.min() == y_bin.max():
        raise ValueError(f"training labels contain a single class ({y_bin[:1].tolist()})")

    n = X_train.shape[0]
    if n > landmark_cap:
        idx = sorted(random.Random(seed).sample(range(n), landmark_cap))
        landmarks = X_train[idx].copy()
    else:
        landmarks = X_train.copy()

    Phi = rbf_features(X_train, landmarks, gamma)
    theta = np.zeros(Phi.shape[1])
    cost, h = _logistic_cost(theta, Phi, y_bin, lam)
    grad = _logistic_grad(theta, Phi, y_bin, h, lam)
    costs = [cost]
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=LBFGS_MEMORY)
    grad_norm = float(np.linalg.norm(grad))
    while grad_norm >= GRAD_TOL and len(costs) <= iterations:
        direction = _lbfgs_direction(grad, grad_norm, pairs)
        slope = float(grad @ direction)
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = theta + step * direction
            trial_cost, h = _logistic_cost(trial, Phi, y_bin, lam)
            if trial_cost < cost and trial_cost <= cost + ARMIJO_C1 * step * slope:
                break
            step *= 0.5
        else:
            break                       # no decrease along this direction
        trial_grad = _logistic_grad(trial, Phi, y_bin, h, lam)
        s, y = trial - theta, trial_grad - grad
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, sy))
        theta, cost, grad = trial, trial_cost, trial_grad
        costs.append(cost)
        grad_norm = float(np.linalg.norm(grad))
    return KernelLogisticModel(theta=theta, landmarks=landmarks, gamma=gamma,
                               cost_history=costs, grad_norm=grad_norm)


def _lbfgs_direction(grad: np.ndarray, grad_norm: float,
                     pairs: Sequence[tuple[np.ndarray, np.ndarray, float]]) -> np.ndarray:
    """Two-loop recursion: -H grad for the L-BFGS inverse-Hessian estimate H
    built from ``(s, y, s.y)`` pairs, oldest first, with initial scaling
    s.y / y.y of the newest pair; -grad / ||grad|| when there are none."""
    if not pairs:
        return -grad / grad_norm
    q = grad.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        a = float(s @ q) / sy
        q -= a * y
        alphas.append(a)
    s, y, sy = pairs[-1]
    r = (sy / float(y @ y)) * q
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        r += (a - float(y @ r) / sy) * s
    return -r


def predict_prob_batch(model: KernelLogisticModel, X: np.ndarray) -> np.ndarray:
    Phi = rbf_features(X, model.landmarks, model.gamma)
    return np.clip(_sigmoid(Phi @ model.theta), PROB_EPS, 1.0 - PROB_EPS)


# ---------------------------------------------------------------------------
# Model files.  Line-oriented text, floats written with repr() so that the
# parsed value is bit-identical to the written one.


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def save_model(path, model: LinearModel | KernelLogisticModel, standardizer: Standardizer,
               settings: RunConfig, train_circuits: Sequence[str], *, tau: float) -> None:
    """Write ``model`` in the layout of the module docstring: the
    ``settings`` it was fitted with, the ``tau`` its policy stops at, its
    feature standardizer and the circuits it saw, then its weights."""
    ids = io.StringIO()
    csv.writer(ids).writerow(train_circuits)
    lines = [MODEL_FILE_MAGIC,
             *config_to_text(settings, MODEL_KEYS).splitlines(),
             f"tau {float(tau)!r}",
             f"standardize_mean {_fmt_floats(standardizer.mean)}",
             f"standardize_scale {_fmt_floats(standardizer.scale)}",
             "standardize_constant " + " ".join(str(int(c)) for c in standardizer.constant),
             # the writer quotes an id holding a line break, so the row may span lines
             "train_circuits " + ids.getvalue().removesuffix("\r\n")]
    if isinstance(model, LinearModel):
        lines += [f"intercept {model.intercept!r}", f"beta {_fmt_floats(model.beta)}"]
    else:
        lines += [f"theta {_fmt_floats(model.theta)}", f"landmarks {len(model.landmarks)}"]
        lines += [f"landmark {_fmt_floats(row)}" for row in model.landmarks]
    lines.append("end")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class LoadedModel:
    model: LinearModel | KernelLogisticModel
    settings: RunConfig          # the model.* and policy.tau settings of the fit
    standardizer: Standardizer
    tau: float
    train_circuits: tuple[str, ...]


def load_model(path) -> LoadedModel:
    """Read a model file written by :func:`save_model`, in its order: the
    settings record (:func:`~testtrim.config.read_record`), then one line
    per key :func:`save_model` writes, refused unless it starts with that
    key.  Other refusals name the key: a value does not parse or is not
    finite, a vector is not ``NUM_FEATURES`` wide (``standardize_*``,
    ``beta``, each landmark row), a ``standardize_scale`` is not positive,
    ``tau`` is outside (0, 1) or differs from a numeric ``policy.tau``, the
    landmark count is below 1, or ``theta`` is not one longer than it.
    Text that does not decode is refused naming the file, and an older
    layout with a request to train again.
    """
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except UnicodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    header = lines[0].rstrip("\r\n") if lines else ""
    if header != MODEL_FILE_MAGIC:
        if header.startswith("testtrim-model "):
            raise ValueError(f"{path} is a {header} file, not {MODEL_FILE_MAGIC}; "
                             f"run 'testtrim train' again")
        raise ValueError(f"{path} is not a model file (bad header)")
    settings, at = read_record(lines, MODEL_KEYS, path, 1)

    def take(key: str) -> str:
        nonlocal at
        at += 1
        return take_line(lines, at - 1, key, path)

    def parse(key: str, convert):
        text = take(key)
        try:
            return convert(text)
        except ValueError:
            raise ValueError(f"{path}: bad value for {key!r}: {text!r}") from None

    def finite(key: str, value):
        if not np.isfinite(value).all():
            raise ValueError(f"{path}: {key!r} holds a non-finite value")
        return value

    def sized(key: str, values: np.ndarray, want: int = NUM_FEATURES) -> np.ndarray:
        if len(values) != want:
            raise ValueError(f"{path}: {key!r} has {len(values)} values, expected {want}")
        return values

    def vector(key: str) -> np.ndarray:
        return finite(key, parse(key, floats))

    def floats(text: str) -> np.ndarray:
        return np.array([float(v) for v in text.split()])

    def flags(text: str) -> np.ndarray:
        if any(v not in ("0", "1") for v in text.split()):
            raise ValueError(text)
        return np.array([v == "1" for v in text.split()])

    tau = parse("tau", float)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"{path}: 'tau' must be in (0, 1), got {tau!r}")
    if settings.policy_tau not in ("auto", tau):
        raise ValueError(f"{path}: 'tau' {tau!r} differs from policy.tau = {settings.policy_tau}")
    std = Standardizer(
        mean=sized("standardize_mean", vector("standardize_mean")),
        scale=sized("standardize_scale", vector("standardize_scale")),
        constant=sized("standardize_constant", parse("standardize_constant", flags)),
    )
    if (std.scale <= 0.0).any():
        raise ValueError(f"{path}: 'standardize_scale' must be positive, "
                         f"got {float(std.scale.min())!r}")
    take("train_circuits")
    # the writer quotes an id holding a line break, so the row may span lines
    rows = csv.reader(chain([lines[at - 1][len("train_circuits "):]], islice(lines, at, None)))
    try:
        circuits = next(rows)
    except csv.Error as exc:
        raise ValueError(f"{path}: bad value for 'train_circuits': {exc}") from None
    at += rows.line_num - 1

    if settings.model_kind == "linear":
        intercept = finite("intercept", parse("intercept", float))
        model: LinearModel | KernelLogisticModel = LinearModel(
            beta=sized("beta", vector("beta")), intercept=intercept)
    else:
        theta = vector("theta")
        count = parse("landmarks", int)
        if count < 1:
            raise ValueError(f"{path}: 'landmarks' must be at least 1, got {count}")
        model = KernelLogisticModel(
            theta=sized("theta", theta, count + 1),
            landmarks=np.array([sized("landmark", vector("landmark")) for _ in range(count)]),
            gamma=settings.model_gamma,
        )
    take("end")
    return LoadedModel(model=model, settings=settings, standardizer=std, tau=tau,
                       train_circuits=tuple(circuits))
