import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import move_line
from oracles import (central_difference_gradient, lbfgs_every_trial, naive_sigmoid_dot,
                     newton_logistic, proximal_gradient_lasso, rbf_features_one_shot,
                     rbf_map_reference, sigmoid_reference)
from testtrim import models
from testtrim.config import MODEL_KEYS, RunConfig, config_to_text
from testtrim.models import (KernelLogisticModel, LinearModel, _sigmoid,
                             fit_kernel_logistic, fit_penalized_linear, load_model,
                             logistic_cost_grad, predict_linear_batch, predict_prob_batch,
                             rbf_features, save_model)
from testtrim.dataset import Standardizer


def _identity_standardizer(d=5):
    return Standardizer(mean=np.zeros(d), scale=np.ones(d),
                        constant=np.zeros(d, dtype=bool))


class TestPenalizedLinear:
    def test_closed_form_hand_example(self):
        # the unpenalized intercept centres the design: Xc = Yc = (-1/2, 1/2),
        # beta = soft(Xc . Yc, n alpha) / ||Xc||^2 = soft(1/2, 1/4) / (1/2) = 1/2
        # with n = 2 and alpha = 1/8, intercept = mean(Y) - beta mean(X) = 3/4
        model = fit_penalized_linear([[1.0], [2.0]], [1.0, 2.0], 0.125)
        assert model.beta[0] == pytest.approx(0.5, abs=1e-10)
        assert model.intercept == pytest.approx(0.75, abs=1e-10)

    def test_zero_alpha_interpolates_square_system(self):
        # four rows, three features plus the intercept: four unknowns
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=4)
        model = fit_penalized_linear(X, Y, 0.0)
        assert model.intercept + X @ model.beta == pytest.approx(Y, abs=1e-9)

    def test_huge_alpha_crushes_coefficients(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 5))
        Y = rng.normal(size=50)
        model = fit_penalized_linear(X, Y, 1e8)
        assert np.linalg.norm(model.beta) < 1e-4

    def test_shrinkage_monotone_in_alpha(self):
        # the lasso's L1 norm never grows with alpha; its L2 norm need not shrink
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 5))
        Y = X @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + rng.normal(size=40) * 0.1
        norms = [np.abs(fit_penalized_linear(X, Y, a).beta).sum()
                 for a in (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)]
        assert all(a >= b for a, b in zip(norms, norms[1:]))
        assert norms[0] > norms[3] > norms[4] == 0.0

    def test_closed_form_matches_gradient_descent_oracle(self):
        # least squares, a lasso keeping every weight, and one that zeroes beta_4
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 4))
        Y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(size=25) * 0.3
        for alpha, zeros in ((0.0, 0), (0.01, 0), (0.2, 1)):
            model = fit_penalized_linear(X, Y, alpha)
            b0, beta = proximal_gradient_lasso(X, Y, alpha)
            assert model.intercept == pytest.approx(b0, abs=1e-6)
            assert model.beta == pytest.approx(beta, abs=1e-6)
            assert list(model.beta == 0.0) == [False] * (4 - zeros) + [True] * zeros

    def test_intercept_not_penalized(self)  :
        # shifted targets move the intercept, not the slope penalty trade-off
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        Y0 = np.array([0.1, -0.2, 0.15, -0.05])
        a = fit_penalized_linear(X, Y0, 0.01)
        b = fit_penalized_linear(X, Y0 + 100.0, 0.01)
        assert a.beta[0] != 0.0
        assert b.intercept == pytest.approx(a.intercept + 100.0, abs=1e-9)
        assert b.beta == pytest.approx(a.beta, abs=1e-9)

    def test_rank_deficient_unpenalized_reports_and_min_norm(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # duplicated column
        Y = np.array([1.0, 2.0, 3.0])
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            model = fit_penalized_linear(X, Y, 0.0)
        A = np.column_stack([np.ones(3), X])
        want = np.linalg.lstsq(A, Y, rcond=None)[0]  # the minimum-norm solution
        assert [model.intercept, *model.beta] == pytest.approx(want, abs=1e-12)

    def test_ill_conditioned_design_is_solved_without_normal_equations(self):
        # A has full column rank, but A^T A rounds to the singular [[3, 3], [3, 3]]:
        # the least-squares solve never forms it, and reports no rank deficiency.
        # The exact fit has slope -1 / (2h) through (1, 1): fitted values 1, 1/2, 3/2.
        h = 2.0 ** -30
        X = np.array([[1.0], [1.0 + h], [1.0 - h]])
        Y = np.array([0.0, 1.0, 2.0])
        A = np.column_stack([np.ones(3), X])
        assert np.linalg.det(A.T @ A) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # full rank: no rank-deficiency warning
            model = fit_penalized_linear(X, Y, 0.0)
        assert predict_linear_batch(model, X) == pytest.approx([1.0, 0.5, 1.5], abs=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_penalized_linear([[1.0]], [1.0], -0.5)
        with pytest.raises(ValueError):
            fit_penalized_linear([[np.nan]], [1.0], 1.0)
        with pytest.raises(ValueError):
            fit_penalized_linear([[1.0]], [1.0, 2.0], 1.0)


class TestLassoMode:
    def test_orthogonal_hand_example(self):
        # columns orthogonal to each other and to the intercept's ones: the
        # lasso is coordinate-wise soft thresholding, beta_j =
        # soft(c_j . Y, n alpha) / ||c_j||^2 and intercept = mean(Y);
        # c . Y = (6, 2), n alpha = 4 * 0.5 = 2 -> beta = (4/2, 0/2), intercept 1
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = fit_penalized_linear(X, [4.0, -2.0, 2.0, 0.0], 0.5)
        assert model.beta == pytest.approx([2.0, 0.0], abs=1e-10)
        assert model.intercept == pytest.approx(1.0, abs=1e-10)

    def test_zero_alpha_equals_least_squares_exactly(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 5))
        Y = rng.normal(size=30)
        model = fit_penalized_linear(X, Y, 0.0)
        want = np.linalg.lstsq(np.column_stack([np.ones(30), X]), Y, rcond=None)[0]
        assert [model.intercept, *model.beta] == want.tolist()  # one lstsq call

    def test_huge_alpha_zeroes_everything(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 5))
        Y = rng.normal(size=40)
        model = fit_penalized_linear(X, Y, 1e6)
        assert np.all(model.beta == 0.0)
        assert model.intercept == pytest.approx(Y.mean(), abs=1e-9)


class TestLinearPredict:
    def test_constant_model(self):
        model = fit_penalized_linear(np.zeros((4, 5)), np.full(4, 0.4), 1.0)
        rows = np.array([np.zeros(5), np.ones(5) * 7])
        assert predict_linear_batch(model, rows) == pytest.approx([0.4, 0.4])

    def test_zero_residual_fit_reproduces_training_rows(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        Y = np.array([2.0, -1.0, 1.0])
        model = fit_penalized_linear(X, Y, 0.0)
        assert predict_linear_batch(model, X) == pytest.approx(Y, abs=1e-9)

    def test_matches_naive_dot_product(self):
        rng = np.random.default_rng(7)
        model = fit_penalized_linear(rng.normal(size=(20, 5)), rng.normal(size=20), 0.3)
        X = rng.normal(size=(25, 5))
        for x, got in zip(X, predict_linear_batch(model, X)):
            naive = model.intercept + sum(float(a) * float(b)
                                          for a, b in zip(x, model.beta))
            assert got == pytest.approx(naive, abs=1e-12)


class TestRbfMap:
    def test_landmark_itself_maps_to_one(self):
        # dyadic entries: the expanded-norm distance to itself is exactly 0
        landmarks = np.array([[0.5, -1.0, 2.0, 0.0, 1.0], [1.0] * 5])
        phi = rbf_features(landmarks[:1], landmarks, gamma=2.0)[0]
        assert phi[0] == 1.0          # intercept feature
        assert phi[1] == 1.0          # zero distance
        assert 0.0 < phi[2] < 1.0

    def test_known_distance(self):
        phi = rbf_features(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([[0.0, 0.0]]),
                           gamma=1.0)
        assert phi[:, 1] == pytest.approx([math.exp(-1.0), math.exp(-4.0)], abs=1e-12)
        phi = rbf_features(np.array([[2.0, 0.0]]), np.array([[0.0, 0.0]]), gamma=0.25)
        assert phi[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_monotone_decreasing_in_distance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=5)
        landmarks = rng.normal(size=(30, 5))
        phi = rbf_features(x[None, :], landmarks, gamma=0.7)[0, 1:]
        dists = [sum((a - b) ** 2 for a, b in zip(x, lm)) for lm in landmarks]
        order = np.argsort(dists)
        assert all(phi[order[i]] >= phi[order[i + 1]] - 1e-15
                   for i in range(len(order) - 1))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(12, 5))
        landmarks = rng.normal(size=(6, 5))
        Phi = rbf_features(X, landmarks, gamma=1.3)
        for i, x in enumerate(X):
            assert Phi[i] == pytest.approx(rbf_map_reference(x, landmarks, 1.3), abs=1e-12)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            rbf_features([[0.0]], np.zeros((1, 1)), gamma=0.0)

    # row counts around the block height, one-row tails included
    @pytest.mark.parametrize("rows", [1, 2, 127, 128, 129, 130, 257, 2628])
    @pytest.mark.parametrize("count", [1, 3, 131, 512])
    def test_blocks_equal_one_shot_map(self, rows, count):
        rng = np.random.default_rng(rows * 1000 + count)
        X = rng.normal(size=(rows, 5))
        landmarks = rng.normal(size=(count, 5))
        assert np.array_equal(rbf_features(X, landmarks, 0.8),
                              rbf_features_one_shot(X, landmarks, 0.8))

    def test_map_holds_one_matrix(self):
        # the train-side shape of the default config: 2628 rows, 512 landmarks
        rng = np.random.default_rng(22)
        X = rng.normal(size=(2628, 5))
        landmarks = X[:512].copy()
        tracemalloc.start()
        try:
            Phi = rbf_features(X, landmarks, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < Phi.nbytes + 2 * 2 ** 20, (peak, Phi.nbytes)


class TestLogisticCostGrad:
    def test_zero_theta_costs_log_two(self):
        rng = np.random.default_rng(10)
        Phi = rng.normal(size=(30, 7))
        y = (rng.random(30) > 0.5).astype(float)
        cost, _ = logistic_cost_grad(np.zeros(7), Phi, y, lam=0.0)
        assert cost == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_separation_leaves_only_penalty(self):
        Phi = np.column_stack([np.ones(4), np.array([40.0, 35.0, -38.0, -42.0])])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        theta = np.array([0.0, 1.0])
        lam = 2.0
        cost, _ = logistic_cost_grad(theta, Phi, y, lam)
        penalty_only = lam / (2 * 4) * 1.0
        assert cost == pytest.approx(penalty_only, abs=1e-10)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            m = rng.integers(5, 40)
            d = rng.integers(2, 10)
            Phi = np.column_stack([np.ones(m), rng.uniform(0, 1, size=(m, d - 1))])
            y = (rng.random(m) > 0.5).astype(float)
            theta = rng.normal(scale=1.0, size=d)
            lam = float(rng.uniform(0, 3))
            _, grad = logistic_cost_grad(theta, Phi, y, lam)
            fd = central_difference_gradient(
                lambda t: logistic_cost_grad(t, Phi, y, lam)[0], theta, step=1e-5)
            denom = np.maximum(np.abs(fd), 1e-8)
            worst = max(worst, float(np.max(np.abs(grad - fd) / denom)))
        assert worst < 1e-5

    def test_penalty_excludes_intercept(self):
        Phi = np.ones((3, 2))
        y = np.array([1.0, 0.0, 1.0])
        cost_big_intercept, grad = logistic_cost_grad(np.array([5.0, 0.0]), Phi, y, lam=10.0)
        # no penalty contribution from theta_0
        cost_ref, _ = logistic_cost_grad(np.array([5.0, 0.0]), Phi, y, lam=0.0)
        assert cost_big_intercept == pytest.approx(cost_ref)
        assert grad[0] == pytest.approx(cost_gradient_intercept(Phi, y, 5.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            logistic_cost_grad(np.zeros(3), np.ones((4, 2)), np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            logistic_cost_grad(np.zeros(2), np.ones((4, 2)), np.zeros(5), 0.0)


def cost_gradient_intercept(Phi, y, t0):
    h = 1.0 / (1.0 + np.exp(-(Phi[:, 0] * t0)))
    return float(np.mean(h - y))


class TestFitKernelLogistic:
    def test_separable_toy_set(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0])
        model = fit_kernel_logistic(X, y, lam=0.01, gamma=1.0,
                                    iterations=3000, landmark_cap=512, seed=0)
        p = predict_prob_batch(model, X)
        assert p[0] < 0.5 < p[1]

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        fit = dict(iterations=200, seed=4, landmark_cap=32)
        a = fit_kernel_logistic(X, y, 0.5, 1.0, **fit)
        b = fit_kernel_logistic(X, y, 0.5, 1.0, **fit)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.landmarks, b.landmarks)

    def test_landmark_cap_subsamples_training_rows(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(float)
        model = fit_kernel_logistic(X, y, 0.5, 1.0, iterations=5, landmark_cap=16, seed=0)
        assert model.landmarks.shape == (16, 3)
        rows = {tuple(r) for r in X}
        assert all(tuple(lm) in rows for lm in model.landmarks)

    def test_cost_history_non_increasing(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(120, 4))
        y = (X[:, 0] - X[:, 2] > 0.2).astype(float)
        model = fit_kernel_logistic(X, y, 1.0, 1.0, iterations=500, landmark_cap=64, seed=0)
        costs = model.cost_history
        assert len(costs) > 1
        assert all(b <= a + 1e-10 for a, b in zip(costs, costs[1:]))

    # GRAD_TOL 1e-8: at the default 1e-6 and lam = 0.01 the stopping rule
    # itself leaves up to ~2e-8 relative cost above the optimum.
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           rows=st.integers(min_value=6, max_value=40),
           width=st.integers(min_value=1, max_value=3),
           lam=st.sampled_from((0.01, 1.0)))
    def test_reaches_reference_optimum(self, seed, rows, width, lam):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, width))
        y = (rng.random(rows) < 0.6).astype(float)
        y[:2] = (0.0, 1.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "GRAD_TOL", 1e-8)
            model = fit_kernel_logistic(X, y, lam, 1.0,
                                        iterations=2000, landmark_cap=512, seed=0)
            converged = model.converged
        Phi = rbf_features(X, model.landmarks, 1.0)
        _, ref_cost = newton_logistic(Phi, y, lam)
        cost, grad = logistic_cost_grad(model.theta, Phi, y, lam)
        assert cost == model.cost_history[-1]
        assert abs(cost - ref_cost) <= 1e-9 * ref_cost
        assert model.grad_norm == np.linalg.norm(grad)
        if converged:
            assert np.linalg.norm(grad) < 1e-8

    def test_iteration_cap_ends_unconverged(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] - X[:, 1] > 0).astype(float)
        model = fit_kernel_logistic(X, y, 1.0, 1.0, iterations=3, landmark_cap=512, seed=0)
        assert not model.converged
        assert model.grad_norm >= models.GRAD_TOL
        assert len(model.cost_history) <= 4

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError, match="single class"):
            fit_kernel_logistic(X, np.ones(5), 1.0, 1.0,
                                iterations=2000, landmark_cap=512, seed=0)

    # every problem backtracks at least once; the last one stops at its cap
    @pytest.mark.parametrize("seed, lam, gamma, iterations", [
        (0, 0.01, 1.0, 300), (1, 1.0, 0.3, 300), (2, 0.1, 2.0, 300),
        (3, 0.01, 1.0, 300), (3, 0.01, 1.0, 20),
    ])
    def test_matches_every_trial_reference(self, seed, lam, gamma, iterations):
        rng = np.random.default_rng(seed)
        rows, width = int(rng.integers(20, 300)), int(rng.integers(1, 6))
        X = rng.normal(size=(rows, width)) * (1 + seed)
        y = (X[:, 0] + rng.normal(size=rows) * 0.5 > 0).astype(float)
        model = fit_kernel_logistic(X, y, lam, gamma,
                                    iterations=iterations, seed=seed, landmark_cap=64)
        Phi = rbf_features_one_shot(X, model.landmarks, gamma)
        theta, costs, grad_norm, backtracks = lbfgs_every_trial(Phi, y, lam, iterations)
        assert backtracks > 0
        assert np.array_equal(model.theta, theta)
        assert model.cost_history == costs
        assert model.grad_norm == grad_norm
        _, grad = logistic_cost_grad(model.theta, Phi, y, lam)
        assert model.grad_norm == float(np.linalg.norm(grad))


class TestSigmoid:
    TAILS = [-np.inf, -1e3, -745.0, -710.0, 710.0, 745.0, 1e3, np.inf]
    GRID = np.concatenate([np.linspace(-40.0, 40.0, 1601), TAILS,
                           [-709.7, -709.0, -700.0, -36.8, -1e-300, 0.0,
                            1e-300, 36.8, 700.0, 709.0, 709.7]])

    @staticmethod
    def _ulps(got: float, want: float) -> float:
        return abs(got - want) / math.ulp(want)

    def test_matches_libm_reference_within_4_ulp(self):
        batch = _sigmoid(self.GRID)
        for z, got in zip(self.GRID, batch):
            want = sigmoid_reference(float(z))
            assert self._ulps(float(got), want) <= 4, z
            assert self._ulps(float(_sigmoid(float(z))), want) <= 4, z

    def test_tails_saturate_exactly(self):
        # an overflow warning here would fail under error::RuntimeWarning
        tails = np.array(self.TAILS)
        want = (tails > 0).astype(float)
        assert _sigmoid(tails).tolist() == want.tolist()
        assert [float(_sigmoid(float(z))) for z in tails] == want.tolist()


class TestPredictProb:
    def _model(self, theta, landmarks, gamma=1.0):
        return KernelLogisticModel(theta=np.asarray(theta, float),
                                   landmarks=np.asarray(landmarks, float), gamma=gamma)

    def test_zero_theta_gives_half(self):
        model = self._model(np.zeros(3), np.zeros((2, 4)))
        assert predict_prob_batch(model, np.ones((3, 4))).tolist() == [0.5] * 3

    def test_negated_theta_mirrors_probability(self):
        rng = np.random.default_rng(15)
        theta = rng.normal(size=5)
        landmarks = rng.normal(size=(4, 3))
        model = self._model(theta, landmarks)
        flipped = self._model(-theta, landmarks)
        X = rng.normal(size=(10, 3))
        assert predict_prob_batch(flipped, X) == pytest.approx(
            1.0 - predict_prob_batch(model, X), abs=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(16)
        theta = rng.normal(size=6)
        landmarks = rng.normal(size=(5, 5))
        model = self._model(theta, landmarks, gamma=0.8)
        X = rng.normal(size=(20, 5))
        for x, got in zip(X, predict_prob_batch(model, X)):
            phi = rbf_map_reference(x, landmarks, 0.8)
            assert got == pytest.approx(naive_sigmoid_dot(theta, phi), abs=1e-12)

    def test_strictly_inside_unit_interval(self):
        model = self._model([1000.0, 0.0], np.zeros((1, 2)))
        p = predict_prob_batch(model, np.zeros((1, 2)))[0]
        assert 0.0 < p < 1.0
        model = self._model([-1000.0, 0.0], np.zeros((1, 2)))
        p = predict_prob_batch(model, np.zeros((1, 2)))[0]
        assert 0.0 < p < 1.0

    def test_permuting_landmarks_with_theta_preserves_predictions(self):
        rng = np.random.default_rng(17)
        theta = rng.normal(size=9)
        landmarks = rng.normal(size=(8, 5))
        model = self._model(theta, landmarks)
        perm = rng.permutation(8)
        permuted = self._model(np.concatenate([[theta[0]], theta[1:][perm]]),
                               landmarks[perm])
        X = rng.normal(size=(10, 5))
        assert predict_prob_batch(permuted, X) == pytest.approx(
            predict_prob_batch(model, X), abs=1e-12)


class TestModelFiles:
    def test_linear_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(18)
        model = fit_penalized_linear(rng.normal(size=(20, 5)), rng.normal(size=20), 0.37)
        std = Standardizer.fit(rng.normal(size=(20, 5)))
        settings = RunConfig(model_kind="linear", model_alpha=0.37, policy_tau=0.8)
        path = tmp_path / "linear.txt"
        save_model(path, model, std, settings, ("c1", "c2"), tau=0.8)
        loaded = load_model(path)
        assert isinstance(loaded.model, type(model))
        assert np.array_equal(loaded.model.beta, model.beta)
        assert loaded.model.intercept == model.intercept
        assert loaded.settings == settings
        assert loaded.tau == 0.8
        assert loaded.train_circuits == ("c1", "c2")
        assert np.array_equal(loaded.standardizer.mean, std.mean)
        assert np.array_equal(loaded.standardizer.scale, std.scale)

        second = tmp_path / "linear2.txt"
        save_model(second, loaded.model, loaded.standardizer, loaded.settings,
                   loaded.train_circuits, tau=loaded.tau)
        assert path.read_bytes() == second.read_bytes()

    def test_kernel_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(30, 5))
        y = (X[:, 0] > 0).astype(float)
        model = fit_kernel_logistic(X, y, 0.7, 1.1, iterations=50, landmark_cap=8, seed=2)
        std = Standardizer.fit(X)
        settings = RunConfig(model_lambda=0.7, model_gamma=1.1, model_iterations=50,
                             model_landmark_cap=8, model_seed=2)
        path = tmp_path / "kernel.txt"
        save_model(path, model, std, settings, ("c9",), tau=0.6)
        loaded = load_model(path)
        assert np.array_equal(loaded.model.theta, model.theta)
        assert np.array_equal(loaded.model.landmarks, model.landmarks)
        assert loaded.model.gamma == model.gamma
        assert loaded.settings == settings
        assert loaded.tau == 0.6

        second = tmp_path / "kernel2.txt"
        save_model(second, loaded.model, loaded.standardizer, loaded.settings,
                   loaded.train_circuits, tau=loaded.tau)
        assert path.read_bytes() == second.read_bytes()

        preds_orig = predict_prob_batch(model, X[:5])
        preds_load = predict_prob_batch(loaded.model, X[:5])
        assert preds_orig.tolist() == preds_load.tolist()

    def test_settings_are_config_text(self, tmp_path):
        model = LinearModel(beta=np.arange(5.0), intercept=0.5)
        settings = RunConfig(model_kind="linear", model_alpha=1e305)
        path = tmp_path / "model.txt"
        save_model(path, model, _identity_standardizer(), settings, (), tau=0.5)
        lines = path.read_text().splitlines()
        assert lines[0] == "testtrim-model v3"
        assert "\n".join(lines[1:9]) + "\n" == config_to_text(settings, MODEL_KEYS)
        assert "model.alpha = 1e+305" in lines and lines[9] == "tau 0.5"
        assert load_model(path).settings == settings

    # file names, where circuit ids come from, hold no NUL, and traces.csv, the
    # UTF-8 text train reads them from, holds no lone surrogate
    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.text(st.characters(blacklist_characters="\x00",
                                              blacklist_categories=("Cs",)))
                        | st.sampled_from(["my c1", "c1", "a,b", 'q"x', "cr\rlf\n", ""]),
                        max_size=6))
    def test_any_circuit_id_round_trips(self, tmp_path_factory, ids):
        path = tmp_path_factory.mktemp("ids") / "model.txt"
        model = LinearModel(beta=np.arange(5.0), intercept=0.5)
        save_model(path, model, _identity_standardizer(), RunConfig(model_kind="linear"),
                   ids, tau=0.5)
        assert load_model(path).train_circuits == tuple(ids)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValueError, match="bad header"):
            load_model(path)

    @pytest.mark.parametrize("layout, body", [
        ("v1", "kind linear\nalpha 0.001\n"),
        ("v2", "model.kind = linear\nmodel.alpha = 0.001\n"),
    ], ids=["v1", "v2"])
    def test_rejects_older_layout(self, tmp_path, layout, body):
        path = tmp_path / "model.txt"
        path.write_text(f"testtrim-model {layout}\n{body}end\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path} is a testtrim-model {layout} file, not testtrim-model v3; "
                f"run 'testtrim train' again")):
            load_model(path)


def _edit_line(key, new):
    """Corruption that replaces the first ``key`` line (``None`` drops it);
    a setting keeps its ``key = value`` form."""
    def edit(lines):
        i = next(i for i, ln in enumerate(lines) if ln.split(" ", 1)[0] == key)
        sep = " = " if "." in key else " "
        return lines[:i] + ([] if new is None else [f"{key}{sep}{new}"]) + lines[i + 1:]
    return edit


def _add_line(line, *, before):
    """Corruption that inserts ``line`` before the first ``before`` line."""
    def edit(lines):
        i = next(i for i, ln in enumerate(lines) if ln.split(" ", 1)[0] == before)
        return lines[:i] + [line] + lines[i:]
    return edit


def _no_landmarks(lines):
    """A kernel model with zero landmarks: a count of 0 and a one-value theta."""
    lines = [ln for ln in lines if not ln.startswith("landmark ")]
    return _edit_line("theta", "0.5")(_edit_line("landmarks", "0")(lines))


def _four_features(lines):
    """Every feature-wide vector, standardizer and landmark rows, one value short."""
    wide = ("standardize_mean", "standardize_scale", "standardize_constant", "landmark")
    return [ln.rsplit(" ", 1)[0] if ln.split(" ", 1)[0] in wide else ln for ln in lines]


def _duplicate(key):
    def edit(lines):
        i = next(i for i, ln in enumerate(lines) if ln.split(" ", 1)[0] == key)
        return lines[:i + 1] + lines[i:]
    return edit


class TestModelFileValidation:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("models")
        rng = np.random.default_rng(20)
        X = rng.normal(size=(30, 5))
        std = Standardizer.fit(X)
        linear = tmp / "linear.txt"
        save_model(linear, fit_penalized_linear(X, rng.normal(size=30), 0.1), std,
                   RunConfig(model_kind="linear", model_alpha=0.1, policy_tau=0.9), (), tau=0.9)
        kernel = tmp / "kernel.txt"
        model = fit_kernel_logistic(X, (X[:, 0] > 0).astype(float), 0.7, 1.1,
                                    iterations=5, landmark_cap=4, seed=2)
        settings = RunConfig(model_lambda=0.7, model_gamma=1.1, model_iterations=5,
                             model_landmark_cap=4, model_seed=2)
        save_model(kernel, model, std, settings, (), tau=0.6)
        return {"linear": linear.read_text().splitlines(),
                "kernel": kernel.read_text().splitlines()}

    # a settings row's id names the setting by its short name ('gamma' for model.gamma);
    # a line out of the writer's order is named by its line (1 header, 8 settings, then
    # tau, the standardizer and train_circuits on lines 10-14)
    @pytest.mark.parametrize("kind, edit, message", [
        pytest.param("linear", _edit_line("tau", None),
                     "line 10: expected 'tau', got 'standardize_mean'",
                     id="linear-edit-missing key 'tau'"),
        pytest.param("linear", _edit_line("model.kind", None),
                     "line 2: expected 'model.kind', got 'model.alpha'",
                     id="linear-edit-missing key 'kind'"),
        pytest.param("linear", _edit_line("beta", None), "line 16: expected 'beta', got 'end'",
                     id="linear-edit-missing key 'beta'"),
        ("linear", _edit_line("intercept", "abc"), "bad value for 'intercept'"),
        ("linear", _edit_line("beta", "1.0 2.0"), "'beta' has 2 values, expected 5"),
        ("linear", _edit_line("standardize_scale", "1.0"),
         "'standardize_scale' has 1 values, expected 5"),
        ("linear", _edit_line("standardize_constant", "0 0 2 0 0"),
         "bad value for 'standardize_constant'"),
        pytest.param("kernel", _edit_line("model.gamma", None),
                     "line 5: expected 'model.gamma', got 'model.iterations'",
                     id="kernel-edit-missing key 'gamma'"),
        # theta is read before the rows: its length is checked against the count first
        pytest.param("kernel", _edit_line("landmarks", "3"), "'theta' has 5 values, expected 4",
                     id="kernel-edit-'landmarks' says 3 rows"),
        ("kernel", _edit_line("landmark", "0.5 0.5"), "'landmark' has 2 values, expected 5"),
        ("kernel", _edit_line("theta", "0.0 1.0"), "'theta' has 2 values, expected 5"),
        pytest.param("kernel", _edit_line("model.iterations", "1.5"),
                     "bad value for 'model.iterations'",
                     id="kernel-edit-bad value for 'iterations'"),
        pytest.param("linear", _edit_line("model.alpha", "-0.5"),
                     "model.alpha must be finite and non-negative",
                     id="linear-edit-'alpha' must be finite and non-negative"),
        ("linear", _edit_line("intercept", "-inf"), "'intercept' holds a non-finite value"),
        ("linear", _edit_line("beta", "0.1 0.2 nan 0.4 0.5"),
         "'beta' holds a non-finite value"),
        pytest.param("linear", _add_line("model.learning_rate = 0.3", before="policy.tau"),
                     "line 9: expected 'policy.tau', got 'model.learning_rate'",
                     id="linear-add-unknown key"),
        ("linear", _edit_line("standardize_mean", "0 0 inf 0 0"),
         "'standardize_mean' holds a non-finite value"),
        ("linear", _edit_line("standardize_scale", "1 1 1 -2 1"),
         "'standardize_scale' must be positive"),
        ("linear", _edit_line("tau", "0"), "'tau' must be in (0, 1)"),
        ("linear", _edit_line("tau", "0.5"), "'tau' 0.5 differs from policy.tau = 0.9"),
        pytest.param("kernel", _edit_line("model.lambda", "-1"),
                     "model.lambda must be finite and non-negative",
                     id="kernel-edit-'lambda' must be finite and non-negative"),
        pytest.param("kernel", _edit_line("model.gamma", "0.0"),
                     "model.gamma must be finite and positive",
                     id="kernel-edit-'gamma' must be finite and positive"),
        ("kernel", _edit_line("landmark", "0 0 0 0 nan"), "'landmark' holds a non-finite value"),
        pytest.param("kernel", _edit_line("model.iterations", "-4"),
                     "model.iterations must be at least 1",
                     id="kernel-edit-'iterations' must be at least 1"),
        pytest.param("kernel", _edit_line("model.landmark_cap", "0"),
                     "model.landmark_cap must be at least 1",
                     id="kernel-edit-'landmark_cap' must be at least 1"),
        ("kernel", _no_landmarks, "'landmarks' must be at least 1, got 0"),
        ("kernel", _four_features, "'standardize_mean' has 4 values, expected 5"),
        pytest.param("linear", _duplicate("model.alpha"),
                     "line 4: expected 'model.lambda', got 'model.alpha'",
                     id="linear-edit-both set 'model.alpha'"),
        pytest.param("linear", _duplicate("tau"),
                     "line 11: expected 'standardize_mean', got 'tau'",
                     id="linear-edit-a second 'tau' line"),
        pytest.param("kernel", _add_line("thetta 1 2 3", before="theta"),
                     "line 15: expected 'theta', got 'thetta'",
                     id="kernel-edit-unknown key 'thetta' in a kernel-logistic model"),
        pytest.param("linear", _add_line("landmark 0 0 0 0 0", before="end"),
                     "line 17: expected 'end', got 'landmark'",
                     id="linear-edit-unknown key 'landmark' in a linear model"),
        pytest.param("linear", _edit_line("model.kind", "kernel-logistic"),
                     "line 15: expected 'theta', got 'intercept'",
                     id="linear-edit-missing key 'theta'"),
        pytest.param("linear", move_line("intercept", after="beta"),
                     "line 15: expected 'intercept', got 'beta'",
                     id="linear-beta before intercept"),
        pytest.param("linear", move_line("policy.tau", after="tau"),
                     "line 9: expected 'policy.tau', got 'tau'", id="linear-setting after tau"),
        pytest.param("kernel", _edit_line("landmark", None),
                     "line 20: expected 'landmark', got 'end'", id="kernel-landmark row too few"),
        pytest.param("kernel", _duplicate("landmark"),
                     "line 21: expected 'end', got 'landmark'", id="kernel-landmark row too many"),
    ])
    def test_rejects_corrupt_file(self, files, tmp_path, kind, edit, message):
        path = tmp_path / "model.txt"
        path.write_text("\n".join(edit(files[kind])) + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)
