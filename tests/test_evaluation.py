import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_trace_stop
from testtrim import evaluation as ev
from testtrim.config import RunConfig
from testtrim.dataset import Standardizer, dataset_from_traces, split_corpus
from testtrim.diagnosis import DiagnosisTrace
from testtrim.models import LinearModel, fit_kernel_logistic, fit_penalized_linear


def _constant_model(value):
    return LinearModel(beta=np.zeros(5), intercept=float(value))


def _trace(circuit_id="t0", failing=(3, 7, 12), sizes=(6, 2, 2), total=20,
           num_inputs=5):
    return DiagnosisTrace(
        circuit_id=circuit_id, num_inputs=num_inputs, total_patterns=total,
        failing_indices=list(failing), intermediate_sizes=list(sizes),
    )


def _stop(trace, score, tau):
    """``(k_star, terminated_pattern)`` on one trace, each of its rows
    scored by ``score(data)``."""
    data = dataset_from_traces([trace])
    outcome, = ev.evaluate(data, score(data), tau).per_circuit
    return outcome.k_star, outcome.terminated_pattern


_IDENTITY = Standardizer(mean=np.zeros(5), scale=np.ones(5), constant=np.zeros(5, dtype=bool))


def _model_score(model):
    """Scores of a model on raw rows (an identity standardization)."""
    return lambda data: ev.score_matrix(model, _IDENTITY, data.X)


def _oracle_score(data):
    return data.y


class TestApplyPolicy:
    """The stop rule applied to a single trace, through ``evaluate``."""

    def test_constant_one_stops_immediately(self):
        assert _stop(_trace(), _model_score(_constant_model(1.0)), 0.9) == (1, 3)

    def test_constant_zero_never_stops_early(self):
        assert _stop(_trace(), _model_score(_constant_model(0.0)), 0.9) == (3, 12)

    def test_oracle_scorer_with_tau_one_stops_at_first_converged_row(self):
        trace = _trace(sizes=(6, 2, 2))  # m = [1/3, 1, 1]
        k, stop = _stop(trace, _oracle_score, 1.0)
        assert (k, stop) == (2, 7)
        assert dataset_from_traces([trace]).m[k - 1] == 1.0

    def test_linear_scores_clamped_before_threshold(self):
        # wildly positive prediction still compares as 1.0, not more
        model = LinearModel(beta=np.zeros(5), intercept=50.0)
        k, _ = _stop(_trace(), _model_score(model), 1.0)
        assert k == 1


class TestEvaluate:
    def test_oracle_policy_is_always_correct(self, small_corpus):
        ds = small_corpus.dataset
        report = ev.evaluate(ds, ds.y, 1.0)
        assert report.diagnosis_accuracy == 1.0
        assert all(o.correct for o in report.per_circuit)
        assert all(o.m_at_termination == 1.0 for o in report.per_circuit)

    def test_always_stop_first_is_aggressive_endpoint(self, small_corpus):
        ds = small_corpus.dataset
        rep_never = ev.evaluate(ds, np.zeros(len(ds)), 0.5)
        rep_always = ev.evaluate(ds, np.ones(len(ds)), 0.5)
        assert rep_always.volume_reduction >= rep_never.volume_reduction
        assert rep_never.diagnosis_accuracy == 1.0  # last failing row has m = 1
        # some circuits need more than one failing pattern
        assert (ds.m[ds.offsets[:-1]] < 1.0).any()
        assert rep_always.diagnosis_accuracy < 1.0

    def test_report_summary_matches_per_circuit_rows(self, small_corpus):
        ds = small_corpus.dataset
        report = ev.evaluate(ds, np.ones(len(ds)), 0.5)
        acc = sum(o.correct for o in report.per_circuit) / len(report.per_circuit)
        vol = np.mean([(t.total_patterns - o.terminated_pattern) / t.total_patterns
                       for t, o in zip(small_corpus.traces, report.per_circuit)])
        assert report.diagnosis_accuracy == acc
        assert report.volume_reduction == pytest.approx(vol, abs=1e-15)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ev.evaluate(dataset_from_traces([]), np.zeros(0), 1.0)


class TestTauMonotonicity:
    @settings(max_examples=60)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
           st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=0.99))
    def test_k_star_never_decreases_when_tau_rises(self, scores, tau_a, tau_b):
        lo, hi = sorted((tau_a, tau_b))
        trace = _trace("m", failing=list(range(1, len(scores) + 1)),
                       sizes=[len(scores) - i for i in range(len(scores))],
                       total=len(scores) + 5)
        k_lo, _ = _stop(trace, lambda data: np.array(scores), lo)
        k_hi, _ = _stop(trace, lambda data: np.array(scores), hi)
        assert k_lo <= k_hi

    def test_monotone_on_real_model(self, small_corpus):
        cfg = RunConfig(split_train_fraction=0.6, split_validation_fraction=0.0,
                        split_seed=2)
        split = split_corpus(small_corpus.dataset, cfg, with_validation=False)
        std = Standardizer.fit(split.train.X)
        model = fit_kernel_logistic(std.transform(split.train.X),
                                    split.train.labels_binary(), 1.0, 1.0,
                                    iterations=150, landmark_cap=64, seed=0)
        scores = ev.score_matrix(model, std, split.test.X)
        last = [0] * len(split.test.circuit_ids)
        for tau in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            rep = ev.evaluate(split.test, scores, tau)
            ks = [o.k_star for o in rep.per_circuit]
            assert all(k >= prev for k, prev in zip(ks, last))
            last = ks


class TestSelectTau:
    def test_prefers_accuracy_then_reduction(self):
        # two traces, oracle scores: every tau gives accuracy 1; the
        # tie-break must then pick the highest-reduction (lowest) tau
        ds = dataset_from_traces([_trace("a", sizes=(4, 2, 2)), _trace("b", sizes=(5, 5, 5))])
        assert ev.select_tau(ds, ds.y) == 0.5

    def test_deterministic(self, small_corpus):
        ds = small_corpus.dataset
        assert ev.select_tau(ds, ds.y) == ev.select_tau(ds, ds.y)


@pytest.fixture(scope="module")
def splits(small_corpus):
    cfg = RunConfig(split_train_fraction=0.7, split_validation_fraction=0.3,
                    split_seed=1)
    return split_corpus(small_corpus.dataset, cfg)


@pytest.fixture(scope="module", params=["kernel", "linear"])
def fitted(request, splits):
    """A kernel and a linear model, each with its training standardizer."""
    std = Standardizer.fit(splits.train.X)
    X = std.transform(splits.train.X)
    if request.param == "kernel":
        model = fit_kernel_logistic(X, splits.train.labels_binary(), 1.0, 1.0,
                                    iterations=150, landmark_cap=64, seed=0)
    else:
        model = fit_penalized_linear(X, splits.train.y, 1e-3)
    return model, std


class TestScoresOnceMatchPerTraceReference:
    """One batched score vector gives the stops that scoring each trace's
    rows on their own gives.  A trace with a reference score within 1e-9
    of tau is exempt: batched scores may differ there by an ulp."""

    @staticmethod
    def _reference(model, std, traces, tau):
        stops = [per_trace_stop(model, std, t, tau) for t in traces]
        exempt = [bool(np.any(np.abs(scores - tau) < 1e-9)) for _, _, scores in stops]
        return [(k, stop) for k, stop, _ in stops], exempt

    @staticmethod
    def _scores(model, std, data):
        return ev.score_matrix(model, std, data.X)

    def test_evaluate_stops(self, fitted, small_corpus):
        model, std = fitted
        traces = small_corpus.traces
        scores = self._scores(model, std, small_corpus.dataset)
        stops_seen = set()
        for tau in ev.DEFAULT_TAU_GRID:
            rep = ev.evaluate(small_corpus.dataset, scores, tau)
            want, exempt = self._reference(model, std, traces, tau)
            got = [(o.k_star, o.terminated_pattern) for o in rep.per_circuit]
            assert [g for g, e in zip(got, exempt) if not e] == \
                [w for w, e in zip(want, exempt) if not e]
            stops_seen.update(k for k, _ in want)
        assert len(stops_seen) > 1  # the grid moves some stop

    def test_select_tau_pick(self, fitted, small_corpus):
        model, std = fitted
        traces = small_corpus.traces
        table = []
        for tau in ev.DEFAULT_TAU_GRID:
            want, exempt = self._reference(model, std, traces, tau)
            if any(exempt):
                pytest.skip(f"a reference score lies within 1e-9 of tau {tau}")
            correct = [t.intermediate_sizes[k - 1] == t.golden_size
                       for t, (k, _) in zip(traces, want)]
            saved = sum((t.total_patterns - stop) / t.total_patterns
                        for t, (_, stop) in zip(traces, want)) / len(traces)
            table.append((sum(correct) / len(traces), saved, -tau, tau))
        pool = [row for row in table if row[1] > 0.0] or table
        scores = self._scores(model, std, small_corpus.dataset)
        assert ev.select_tau(small_corpus.dataset, scores) == max(pool)[3]

    def test_stop_facts_match_traces(self, fitted, small_corpus):
        # each outcome's facts, read off the stop row, are the trace's own
        # values at the stop ordinal
        model, std = fitted
        scores = self._scores(model, std, small_corpus.dataset)
        for tau in ev.DEFAULT_TAU_GRID:
            rep = ev.evaluate(small_corpus.dataset, scores, tau)
            first_rows = small_corpus.dataset.offsets[:-1]
            for t, o, row in zip(small_corpus.traces, rep.per_circuit, first_rows, strict=True):
                assert o.circuit_id == t.circuit_id
                assert o.correct == (t.intermediate_sizes[o.k_star - 1] == t.golden_size)
                assert o.terminated_pattern == t.failing_indices[o.k_star - 1]
                assert o.m_at_termination == small_corpus.dataset.m[row + o.k_star - 1]


class TestFitPolicy:
    def test_lasso_alpha_is_per_sample_and_tau_fixed(self, splits):
        # the fit takes model.alpha as set: the lasso defines it per sample
        cfg = RunConfig(model_kind="linear", model_alpha=1e-3, policy_tau=0.8)
        model, std, tau = ev.fit_policy(cfg, splits)
        direct = fit_penalized_linear(std.transform(splits.train.X), splits.train.y, 1e-3)
        assert tau == 0.8
        assert (model.beta.tolist(), model.intercept) == (direct.beta.tolist(), direct.intercept)

    def test_auto_tau_picks_on_validation_rows(self, splits):
        model, std, tau = ev.fit_policy(RunConfig(), splits)
        scores = ev.score_matrix(model, std, splits.validation.X)
        assert tau == ev.select_tau(splits.validation, scores)

    def test_auto_tau_without_validation_refused(self, small_corpus):
        split = split_corpus(small_corpus.dataset, RunConfig(), with_validation=False)
        with pytest.raises(ValueError, match="needs a validation split"):
            ev.fit_policy(RunConfig(model_kind="linear"), split)


class TestSweeps:
    def test_duplicate_alphas_identical(self, splits):
        pts = ev.sweep_alpha([1e-3, 1e-3], splits)
        assert pts[0].diagnosis_accuracy == pts[1].diagnosis_accuracy
        assert pts[0].beta == pts[1].beta
        assert pts[0].tau == pts[1].tau

    def test_zero_alpha_equals_plain_least_squares(self, splits):
        X = Standardizer.fit(splits.train.X).transform(splits.train.X)
        direct = fit_penalized_linear(X, splits.train.y, 0.0)
        pts = ev.sweep_alpha([0.0], splits)
        assert pts[0].beta == pytest.approx(direct.beta, abs=0)

    def test_results_in_grid_order(self, splits):
        grid = [1e-2, 1e-4, 1e-3]
        pts = ev.sweep_alpha(grid, splits)
        assert [p.alpha for p in pts] == grid


def _balanced_split(cfg):
    """40 circuits of eight rows, the last four of each converged: even the
    smallest curve subset holds both classes."""
    traces = [_trace(f"c{c:02d}", failing=range(1 + c % 3, 9 + c % 3),
                     sizes=(3 + c % 4,) * 4 + (2,) * 4, total=30, num_inputs=4 + c % 5)
              for c in range(40)]
    return split_corpus(dataset_from_traces(traces), cfg, with_validation=False)


class TestLearningCurve:
    def test_curve_and_full_size_consistency(self):
        cfg = RunConfig(split_train_fraction=0.7, split_validation_fraction=0.0,
                        model_iterations=120, model_landmark_cap=64, model_seed=5,
                        model_lambda=0.5, model_gamma=2.0)
        split = _balanced_split(cfg)
        curve = ev.learning_curve(split, cfg)

        # the full-size point reproduces a direct fit on the whole train set
        std = Standardizer.fit(split.train.X)
        model = fit_kernel_logistic(std.transform(split.train.X),
                                    split.train.labels_binary(), 0.5, 2.0,
                                    iterations=120, landmark_cap=64, seed=5)
        direct = ev.classification_accuracy(ev.score_matrix(model, std, split.test.X),
                                            split.test.y)
        assert curve[-1] == (len(split.train), direct)

    def test_sizes_are_the_curve_fractions_of_the_train_side(self):
        cfg = RunConfig(split_train_fraction=0.7, split_validation_fraction=0.0,
                        model_iterations=5)
        split = _balanced_split(cfg)
        n = len(split.train)
        sizes = [size for size, _ in ev.learning_curve(split, cfg)]
        want = sorted({max(2, round(f * n)) for f in ev.DEFAULT_CURVE_FRACTIONS})
        # nested sizes, none above the train rows, the last the whole side
        assert sizes == want and sizes[-1] == n


class TestCsvWriters:
    def test_six_fractional_digits(self, tmp_path, small_corpus):
        ds = small_corpus.dataset
        report = ev.evaluate(ds, ds.y, 1.0)
        rp = tmp_path / "report.csv"
        sp = tmp_path / "summary.csv"
        ev.write_report_csv(report, rp)
        ev.write_summary_csv(report, sp, "oracle", 5, classification_acc=0.5)
        rl = rp.read_text().splitlines()
        assert rl[0] == "circuit_id,k_star,terminated_pattern,m_at_termination,correct"
        assert len(rl) == 1 + len(report.per_circuit)
        assert all(len(line.split(",")[3].split(".")[1]) == 6 for line in rl[1:])
        sl = sp.read_text().splitlines()
        assert sl[0].startswith("model,tau,diagnosis_accuracy,volume_reduction")
        assert "1.000000" in sl[1]

    def test_sweep_and_curve_files(self, tmp_path):
        pts = [ev.AlphaPoint(1e-4, 0.9, 0.75, 0.3, 0.8, (0.1,) * 5)]
        ev.write_sweep_csv(pts, tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1].startswith("0.0001,0.900000,0.750000,0.300000,0.800000")

        ev.write_beta_csv([ev.AlphaPoint(0.1, 0.9, 0.75, 0.3, 0.8,
                                         (0.5, -0.25, 0.0, 1.0, 2.0))],
                          tmp_path / "beta.csv")
        lines = (tmp_path / "beta.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta_1,beta_2,beta_3,beta_4,beta_5"
        assert lines[1] == "0.1,0.500000,-0.250000,0.000000,1.000000,2.000000"

        ev.write_curve_csv([(100, 0.875)], tmp_path / "curve.csv")
        assert (tmp_path / "curve.csv").read_text().splitlines()[1] == "100,0.875000"
