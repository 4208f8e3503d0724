import math
import re

import numpy as np
import pytest

from oracles import (central_difference_gradient, gradient_descent_ridge,
                     naive_sigmoid_dot)
from testtrim.models import (KernelLogisticModel, TrainConfig, fit_kernel_logistic,
                             fit_penalized_linear, load_model, logistic_cost_grad,
                             predict_linear, predict_prob, rbf_features, rbf_map,
                             save_model)
from testtrim.dataset import Standardizer


def _identity_standardizer(d=5):
    return Standardizer(mean=np.zeros(d), scale=np.ones(d),
                        constant=np.zeros(d, dtype=bool))


class TestPenalizedLinear:
    def test_closed_form_hand_example(self):
        # (X^T X + a I)^-1 X^T Y = 5 / (5 + 1) with X = [[1],[2]], Y = [1,2], a = 1
        model = fit_penalized_linear([[1.0], [2.0]], [1.0, 2.0], 1.0,
                                     fit_intercept=False)
        assert model.beta[0] == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_zero_alpha_interpolates_square_system(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3, 3))
        Y = rng.normal(size=3)
        model = fit_penalized_linear(X, Y, 0.0, fit_intercept=False)
        assert X @ model.beta == pytest.approx(Y, abs=1e-9)

    def test_huge_alpha_crushes_coefficients(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 5))
        Y = rng.normal(size=50)
        model = fit_penalized_linear(X, Y, 1e8)
        assert np.linalg.norm(model.beta) < 1e-4

    def test_shrinkage_monotone_in_alpha(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 5))
        Y = X @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + rng.normal(size=40) * 0.1
        norms = [np.linalg.norm(fit_penalized_linear(X, Y, a).beta)
                 for a in (0.0, 0.1, 1.0, 10.0, 100.0, 1e4)]
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_closed_form_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 4))
        Y = rng.normal(size=25)
        for alpha in (0.0, 0.5, 7.0):
            model = fit_penalized_linear(X, Y, alpha)
            b0, beta = gradient_descent_ridge(X, Y, alpha)
            assert model.intercept == pytest.approx(b0, abs=1e-6)
            assert model.beta == pytest.approx(beta, abs=1e-6)

    def test_intercept_not_penalized(self)  :
        # shifted targets move the intercept, not the slope penalty trade-off
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        Y0 = np.array([0.1, -0.2, 0.15, -0.05])
        a = fit_penalized_linear(X, Y0, 5.0)
        b = fit_penalized_linear(X, Y0 + 100.0, 5.0)
        assert b.intercept == pytest.approx(a.intercept + 100.0, abs=1e-9)
        assert b.beta == pytest.approx(a.beta, abs=1e-9)

    def test_rank_deficient_unpenalized_reports_and_min_norm(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # duplicated column
        Y = np.array([1.0, 2.0, 3.0])
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            model = fit_penalized_linear(X, Y, 0.0, fit_intercept=False)
        assert model.rank_deficient
        want = np.linalg.lstsq(X, Y, rcond=None)[0]  # the minimum-norm solution
        assert model.beta == pytest.approx(want, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_penalized_linear([[1.0]], [1.0], -0.5)
        with pytest.raises(ValueError):
            fit_penalized_linear([[np.nan]], [1.0], 1.0)
        with pytest.raises(ValueError):
            fit_penalized_linear([[1.0]], [1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            fit_penalized_linear([[1.0]], [1.0], 1.0, penalty="l3")


class TestLassoMode:
    def test_orthogonal_hand_example(self):
        # on an identity design the lasso is coordinate-wise soft thresholding:
        # beta_j = soft(y_j, alpha/2); y=(3,1), alpha=2 -> (2, 0)
        model = fit_penalized_linear(np.eye(2), [3.0, 1.0], 2.0,
                                     penalty="l1", fit_intercept=False)
        assert model.beta == pytest.approx([2.0, 0.0], abs=1e-10)

    def test_zero_alpha_equals_least_squares_exactly(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 5))
        Y = rng.normal(size=30)
        l1 = fit_penalized_linear(X, Y, 0.0, penalty="l1")
        l2 = fit_penalized_linear(X, Y, 0.0, penalty="l2")
        assert l1.beta == pytest.approx(l2.beta, abs=0)  # same code path
        assert l1.intercept == l2.intercept

    def test_huge_alpha_zeroes_everything(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 5))
        Y = rng.normal(size=40)
        model = fit_penalized_linear(X, Y, 1e6, penalty="l1")
        assert np.all(model.beta == 0.0)
        assert model.intercept == pytest.approx(Y.mean(), abs=1e-9)

    def test_lasso_objective_not_worse_than_ridge_solution(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 5))
        Y = X @ np.array([2.0, 0.0, 0.0, -1.0, 0.0]) + rng.normal(size=60) * 0.05
        alpha = 3.0

        def objective(m):
            r = Y - m.intercept - X @ m.beta
            return float(r @ r + alpha * np.abs(m.beta).sum())

        lasso = fit_penalized_linear(X, Y, alpha, penalty="l1")
        ridge = fit_penalized_linear(X, Y, alpha, penalty="l2")
        assert objective(lasso) <= objective(ridge) + 1e-9


class TestLinearPredict:
    def test_constant_model(self):
        model = fit_penalized_linear(np.zeros((4, 5)), np.full(4, 0.4), 1.0)
        assert predict_linear(model, np.zeros(5)) == pytest.approx(0.4)
        assert predict_linear(model, np.ones(5) * 7) == pytest.approx(0.4)

    def test_zero_residual_fit_reproduces_training_rows(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        Y = np.array([2.0, -1.0, 1.0])
        model = fit_penalized_linear(X, Y, 0.0)
        for x, y in zip(X, Y):
            assert predict_linear(model, x) == pytest.approx(y, abs=1e-9)

    def test_matches_naive_dot_product(self):
        rng = np.random.default_rng(7)
        model = fit_penalized_linear(rng.normal(size=(20, 5)), rng.normal(size=20), 0.3)
        for _ in range(25):
            x = rng.normal(size=5)
            naive = model.intercept + sum(float(a) * float(b)
                                          for a, b in zip(x, model.beta))
            assert predict_linear(model, x) == pytest.approx(naive, abs=1e-12)


class TestRbfMap:
    def test_landmark_itself_maps_to_one(self):
        landmarks = np.array([[0.5, -1.0, 2.0, 0.0, 1.0], [1.0] * 5])
        phi = rbf_map(landmarks[0], landmarks, gamma=2.0)
        assert phi[0] == 1.0          # intercept feature
        assert phi[1] == 1.0          # zero distance
        assert 0.0 < phi[2] < 1.0

    def test_known_distance(self):
        phi = rbf_map([1.0, 0.0], np.array([[0.0, 0.0]]), gamma=1.0)
        assert phi[1] == pytest.approx(math.exp(-1.0), abs=1e-12)
        phi = rbf_map([2.0, 0.0], np.array([[0.0, 0.0]]), gamma=0.25)
        assert phi[1] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_monotone_decreasing_in_distance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=5)
        landmarks = rng.normal(size=(30, 5))
        phi = rbf_map(x, landmarks, gamma=0.7)[1:]
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
            assert Phi[i] == pytest.approx(rbf_map(x, landmarks, 1.3), abs=1e-12)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            rbf_map([0.0], np.zeros((1, 1)), gamma=0.0)


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
                                    config=TrainConfig(iterations=3000))
        assert predict_prob(model, X[0]) < 0.5 < predict_prob(model, X[1])

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        cfg = TrainConfig(iterations=200, seed=4, landmark_cap=32)
        a = fit_kernel_logistic(X, y, 0.5, 1.0, cfg)
        b = fit_kernel_logistic(X, y, 0.5, 1.0, cfg)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.landmarks, b.landmarks)

    def test_landmark_cap_subsamples_training_rows(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(float)
        model = fit_kernel_logistic(X, y, 0.5, 1.0,
                                    TrainConfig(iterations=5, landmark_cap=16, seed=0))
        assert model.landmarks.shape == (16, 3)
        rows = {tuple(r) for r in X}
        assert all(tuple(lm) in rows for lm in model.landmarks)

    def test_cost_history_non_increasing(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(120, 4))
        y = (X[:, 0] - X[:, 2] > 0.2).astype(float)
        model = fit_kernel_logistic(X, y, 1.0, 1.0,
                                    TrainConfig(iterations=500, landmark_cap=64))
        costs = model.cost_history
        assert len(costs) > 1
        assert all(b <= a + 1e-10 for a, b in zip(costs, costs[1:]))

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError, match="single class"):
            fit_kernel_logistic(X, np.ones(5), 1.0, 1.0)


class TestPredictProb:
    def _model(self, theta, landmarks, gamma=1.0):
        return KernelLogisticModel(theta=np.asarray(theta, float),
                                   landmarks=np.asarray(landmarks, float),
                                   gamma=gamma, lam=0.0, config=TrainConfig())

    def test_zero_theta_gives_half(self):
        model = self._model(np.zeros(3), np.zeros((2, 4)))
        assert predict_prob(model, np.ones(4)) == 0.5

    def test_negated_theta_mirrors_probability(self):
        rng = np.random.default_rng(15)
        theta = rng.normal(size=5)
        landmarks = rng.normal(size=(4, 3))
        model = self._model(theta, landmarks)
        flipped = self._model(-theta, landmarks)
        for _ in range(10):
            x = rng.normal(size=3)
            assert predict_prob(flipped, x) == pytest.approx(
                1.0 - predict_prob(model, x), abs=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(16)
        theta = rng.normal(size=6)
        landmarks = rng.normal(size=(5, 5))
        model = self._model(theta, landmarks, gamma=0.8)
        for _ in range(20):
            x = rng.normal(size=5)
            phi = rbf_map(x, landmarks, 0.8)
            assert predict_prob(model, x) == pytest.approx(
                naive_sigmoid_dot(theta, phi), abs=1e-12)

    def test_strictly_inside_unit_interval(self):
        model = self._model([1000.0, 0.0], np.zeros((1, 2)))
        p = predict_prob(model, np.zeros(2))
        assert 0.0 < p < 1.0
        model = self._model([-1000.0, 0.0], np.zeros((1, 2)))
        p = predict_prob(model, np.zeros(2))
        assert 0.0 < p < 1.0

    def test_permuting_landmarks_with_theta_preserves_predictions(self):
        rng = np.random.default_rng(17)
        theta = rng.normal(size=9)
        landmarks = rng.normal(size=(8, 5))
        model = self._model(theta, landmarks)
        perm = rng.permutation(8)
        permuted = self._model(np.concatenate([[theta[0]], theta[1:][perm]]),
                               landmarks[perm])
        for _ in range(10):
            x = rng.normal(size=5)
            assert predict_prob(permuted, x) == pytest.approx(
                predict_prob(model, x), abs=1e-12)


class TestModelFiles:
    def test_linear_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(18)
        model = fit_penalized_linear(rng.normal(size=(20, 5)), rng.normal(size=20), 0.37)
        std = Standardizer.fit(rng.normal(size=(20, 5)))
        path = tmp_path / "linear.txt"
        save_model(path, model, std, train_circuits=("c1", "c2"), tau=0.8)
        loaded = load_model(path)
        assert isinstance(loaded.model, type(model))
        assert np.array_equal(loaded.model.beta, model.beta)
        assert loaded.model.intercept == model.intercept
        assert loaded.model.alpha == model.alpha
        assert loaded.tau == 0.8
        assert loaded.train_circuits == ("c1", "c2")
        assert np.array_equal(loaded.standardizer.mean, std.mean)
        assert np.array_equal(loaded.standardizer.scale, std.scale)

        second = tmp_path / "linear2.txt"
        save_model(second, loaded.model, loaded.standardizer,
                   loaded.train_circuits, loaded.tau)
        assert path.read_bytes() == second.read_bytes()

    def test_kernel_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(30, 5))
        y = (X[:, 0] > 0).astype(float)
        model = fit_kernel_logistic(X, y, 0.7, 1.1,
                                    TrainConfig(iterations=50, landmark_cap=8, seed=2))
        std = Standardizer.fit(X)
        path = tmp_path / "kernel.txt"
        save_model(path, model, std, train_circuits=("c9",), tau=None)
        loaded = load_model(path)
        assert np.array_equal(loaded.model.theta, model.theta)
        assert np.array_equal(loaded.model.landmarks, model.landmarks)
        assert loaded.model.lam == model.lam
        assert loaded.model.gamma == model.gamma
        assert loaded.tau is None

        second = tmp_path / "kernel2.txt"
        save_model(second, loaded.model, loaded.standardizer,
                   loaded.train_circuits, loaded.tau)
        assert path.read_bytes() == second.read_bytes()

        preds_orig = [predict_prob(model, x) for x in X[:5]]
        preds_load = [predict_prob(loaded.model, x) for x in X[:5]]
        assert preds_orig == preds_load

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValueError, match="bad header"):
            load_model(path)


def _edit_line(key, new):
    """Corruption that replaces the first ``key`` line (``None`` drops it)."""
    def edit(lines):
        i = next(i for i, ln in enumerate(lines) if ln.split(" ", 1)[0] == key)
        return lines[:i] + ([] if new is None else [f"{key} {new}"]) + lines[i + 1:]
    return edit


class TestModelFileValidation:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("models")
        rng = np.random.default_rng(20)
        X = rng.normal(size=(30, 5))
        std = Standardizer.fit(X)
        linear = tmp / "linear.txt"
        save_model(linear, fit_penalized_linear(X, rng.normal(size=30), 0.1), std, tau=0.9)
        kernel = tmp / "kernel.txt"
        model = fit_kernel_logistic(X, (X[:, 0] > 0).astype(float), 0.7, 1.1,
                                    TrainConfig(iterations=5, landmark_cap=4, seed=2))
        save_model(kernel, model, std, tau=None)
        return {"linear": linear.read_text().splitlines(),
                "kernel": kernel.read_text().splitlines()}

    @pytest.mark.parametrize("kind, edit, message", [
        ("linear", _edit_line("tau", None), "missing key 'tau'"),
        ("linear", _edit_line("kind", None), "missing key 'kind'"),
        ("linear", _edit_line("beta", None), "missing key 'beta'"),
        ("linear", _edit_line("intercept", "abc"), "bad value for 'intercept'"),
        ("linear", _edit_line("beta", "1.0 2.0"), "'beta' has 2 values, expected 5"),
        ("linear", _edit_line("standardize_scale", "1.0"),
         "'standardize_scale' has 1 values, expected 5"),
        ("linear", _edit_line("standardize_constant", "0 0 2 0 0"),
         "bad value for 'standardize_constant'"),
        ("kernel", _edit_line("gamma", None), "missing key 'gamma'"),
        ("kernel", _edit_line("landmarks", "3"), "'landmarks' says 3 rows"),
        ("kernel", _edit_line("landmark", "0.5 0.5"), "'landmark' has 2 values, expected 5"),
        ("kernel", _edit_line("theta", "0.0 1.0"), "'theta' has 2 values, expected 5"),
        ("kernel", _edit_line("iterations", "1.5"), "bad value for 'iterations'"),
    ])
    def test_rejects_corrupt_file(self, files, tmp_path, kind, edit, message):
        path = tmp_path / "model.txt"
        path.write_text("\n".join(edit(files[kind])) + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)
