"""Enumeration oracle, regression fit, LP post-processing, top-1 baseline."""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairltr import baselines, data, fairness, metrics, policy
from fairltr.ranking import all_rankings


def test_enumeration_matches_expected_utility():
    rng = np.random.default_rng(0)
    metric = metrics.UtilityMetric("ndcg")
    for _ in range(5):
        scores = rng.normal(size=4)
        rels = rng.uniform(0.0, 3.0, size=4)
        ex = baselines.enumerate_policy_expectations(scores, rels, metric=metric)
        direct = metrics.expected_utility(scores, rels, metric, exact=True)
        assert ex.utility == pytest.approx(direct, abs=1e-12)


def test_enumeration_exposures_match_policy_module():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=4)
    rels = rng.uniform(0.5, 2.0, size=4)
    ex = baselines.enumerate_policy_expectations(scores, rels,
                                                 merits=rels)
    expo = fairness.exposure_of_policy(scores, mode="exact").values
    np.testing.assert_allclose(ex.exposures, expo, atol=1e-12)
    assert ex.individual_disparity == pytest.approx(
        fairness.individual_disparity(expo, rels), abs=1e-12)


def test_enumeration_gradients_match_finite_differences():
    """Exact utility and disparity gradients against central differences
    of the exactly enumerated objective."""
    rng = np.random.default_rng(2)
    metric = metrics.UtilityMetric("dcg")
    merit = fairness.MeritFunction()
    step = 1e-6
    for _ in range(4):
        scores = rng.normal(size=4)
        rels = rng.uniform(0.2, 3.0, size=4)
        groups = np.array([0, 0, 1, 1])
        ex = baselines.enumerate_policy_expectations(
            scores, rels, merits=merit(rels), groups=groups, metric=metric)

        def exact_at(s):
            return baselines.enumerate_policy_expectations(
                s, rels, merits=merit(rels), groups=groups, metric=metric)

        for d in range(4):
            e = np.zeros(4)
            e[d] = step
            hi, lo = exact_at(scores + e), exact_at(scores - e)
            fd_u = (hi.utility - lo.utility) / (2 * step)
            assert ex.utility_grad[d] == pytest.approx(fd_u, abs=1e-5)
            fd_i = (hi.individual_disparity - lo.individual_disparity) / (2 * step)
            assert ex.individual_grad[d] == pytest.approx(fd_i, abs=1e-5)
            fd_g = (hi.group_disparity - lo.group_disparity) / (2 * step)
            assert ex.group_grad[d] == pytest.approx(fd_g, abs=1e-5)


def test_enumeration_rejects_large_queries():
    with pytest.raises(ValueError):
        baselines.enumerate_policy_expectations(np.zeros(9), np.zeros(9))


def test_linear_regression_recovers_exact_relationship():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    y = X @ np.array([2.0, -0.5])
    queries = []
    for qi in range(6):
        docs = [data.Document(X[qi * 5 + i], float(y[qi * 5 + i]))
                for i in range(5)]
        queries.append(data.Query(str(qi), docs))
    ds = data.Dataset(queries, 2)
    model = baselines.fit_linear_regression(ds, ridge=1e-10)
    np.testing.assert_allclose(model.weights, [2.0, -0.5], atol=1e-6)
    np.testing.assert_allclose(model.bias, [0.0], atol=1e-6)


def test_linear_regression_fits_constant_via_bias():
    X = np.zeros((8, 1))
    docs = [data.Document(X[i], 3.0) for i in range(8)]
    ds = data.Dataset([data.Query("1", docs)], 1)
    model = baselines.fit_linear_regression(ds)
    np.testing.assert_allclose(model.bias, [3.0], atol=1e-8)


def assert_sorting_permutation(res, r_hat):
    assert res.orders.tolist() == [np.argsort(-r_hat, kind="stable").tolist()]
    assert res.weights.tolist() == [1.0]
    np.testing.assert_array_equal(res.exposures,
                                  fairness.ranking_exposures(res.orders)[0])


def test_lp_without_penalty_is_the_sorting_permutation():
    rng = np.random.default_rng(4)
    for _ in range(5):
        r_hat = rng.uniform(0.0, 3.0, size=5)
        groups = rng.integers(0, 2, size=5)
        res = baselines.solve_fair_lp(r_hat, groups, 0.0)
        assert_sorting_permutation(res, r_hat)
        assert res.xi == 0.0


def test_lp_beats_every_pure_ranking_on_its_own_objective():
    """With the penalty active, the LP optimum must be at least as good as
    every vertex (permutation matrix), whose objectives we can write down
    directly. Equality holds when some permutation is optimal."""
    rng = np.random.default_rng(5)
    merit = fairness.MeritFunction()
    for lam in (0.05, 0.1, 0.2):
        r_hat = rng.uniform(0.2, 3.0, size=4)
        groups = np.array([0, 1, 0, 1])
        res = baselines.solve_fair_lp(r_hat, groups, lam, merit)
        u = metrics.gains(r_hat)
        v = metrics.position_bias_vector(4)
        scale = metrics.ideal_dcg(r_hat)
        merits = merit(r_hat)
        m0 = merits[groups == 0].sum()
        m1 = merits[groups == 1].sum()
        direction = np.sign(m0 / 2 - m1 / 2)
        share = (m0 + m1) / v.sum()
        best_vertex = -np.inf
        for order in all_rankings(4):
            P = np.zeros((4, 4))
            P[order, np.arange(4)] = 1.0
            expo = P @ v
            ratio0 = expo[groups == 0].sum() / m0
            ratio1 = expo[groups == 1].sum() / m1
            xi = max(0.0, share * direction * (ratio0 - ratio1))
            value = float(u @ expo) / scale - lam * xi
            best_vertex = max(best_vertex, value)
        assert res.objective >= best_vertex - 1e-9


def test_lp_interior_optimum_matches_segment_oracle():
    """A two-document instance has a one-parameter family of doubly
    stochastic matrices; the LP must find the best point on that segment."""
    r_hat = np.array([2.0, 1.0])
    groups = np.array([0, 1])
    merit = fairness.MeritFunction()
    v = metrics.position_bias_vector(2)
    u = metrics.gains(r_hat)
    scale = metrics.ideal_dcg(r_hat)
    share = 3.0 / v.sum()
    for lam in (0.0, 0.05, 0.1, 0.2, 1.0):
        res = baselines.solve_fair_lp(r_hat, groups, lam, merit)
        best = -np.inf
        for a in np.linspace(0.0, 1.0, 20001):
            P = np.array([[a, 1.0 - a], [1.0 - a, a]])
            expo = P @ v
            xi = max(0.0, share * (expo[0] / 2.0 - expo[1] / 1.0))
            val = float(u @ expo) / scale - lam * xi
            best = max(best, val)
        assert res.objective == pytest.approx(best, abs=1e-6)


def test_lp_slack_shrinks_to_zero_along_the_grid():
    rng = np.random.default_rng(6)
    r_hat = rng.uniform(0.2, 3.0, size=6)
    groups = np.array([0, 0, 0, 1, 1, 1])
    last = np.inf
    for lam in baselines.lp_lambda_grid():
        res = baselines.solve_fair_lp(r_hat, groups, lam)
        if lam > 0.0:
            assert res.xi <= last + 1e-9
            last = res.xi
    assert baselines.solve_fair_lp(r_hat, groups, 5.0).xi <= 1e-9


def test_lp_degenerate_groups_fall_back_to_sorting():
    r_hat = np.array([1.0, 2.0, 0.5])
    res = baselines.solve_fair_lp(r_hat, np.array([0, 0, 0]), 0.2)
    assert_sorting_permutation(res, r_hat)
    res = baselines.solve_fair_lp(r_hat, None, 0.2)
    assert_sorting_permutation(res, r_hat)
    assert res.xi == 0.0


def test_lp_refuses_non_finite_input():
    r_hat = np.array([1.0, 2.0, 0.5])
    groups = np.array([0, 1, 0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            baselines.solve_fair_lp(np.array([1.0, bad, 0.5]), groups, 0.2)
        with pytest.raises(ValueError, match="lam"):
            baselines.solve_fair_lp(r_hat, groups, bad)
    with pytest.raises(ValueError, match="lam"):
        baselines.solve_fair_lp(r_hat, groups, -0.1)


def test_evaluate_exposures_on_identity():
    rels = np.array([3.0, 1.0])
    expo = fairness.exposure_of_ranking(np.arange(2))
    ndcg, disparity = baselines.evaluate_exposures(
        expo, rels, np.array([0, 1]), fairness.MeritFunction())
    assert ndcg == pytest.approx(1.0)
    assert disparity == pytest.approx(
        fairness.group_disparity(expo, rels, np.array([0, 1])))


def test_import_loads_no_scipy():
    """The package needs numpy only; scipy is a test-time oracle."""
    src = Path(baselines.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, fairltr; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_lambda_grids():
    lp = baselines.lp_lambda_grid()
    assert lp[0] == 0.0 and lp[-1] == pytest.approx(0.2) and len(lp) == 11
    t1 = baselines.top1_lambda_grid()
    assert t1[0] == 0.0 and t1[1] == 1.0 and t1[-1] == 10 ** 6


def test_top1_baseline_learns_relevance_ordering():
    ds = data.generate_simulated(num_queries=30, docs_per_query=6, seed=0)
    model = baselines.train_top1_baseline(ds, lam=0.0, epochs=30)
    vals = []
    for q in ds:
        order = policy.argmax_ranking(model.scores(q.feature_matrix))
        vals.append(metrics.ndcg(order, q.relevances))
    zero = []
    for q in ds:
        zero.append(metrics.ndcg(np.arange(len(q)), q.relevances))
    assert np.mean(vals) > np.mean(zero)
    assert np.mean(vals) > 0.9


def test_top1_penalty_narrows_group_probability_gap():
    ds = data.generate_simulated(num_queries=40, docs_per_query=8, seed=1)

    def mean_gap(model):
        gaps = []
        for q in ds:
            if q.groups.min() == q.groups.max():
                continue
            p = np.exp(model.scores(q.feature_matrix))
            p = p / p.sum()
            gaps.append(abs(p[q.groups == 0].mean() - p[q.groups == 1].mean()))
        return np.mean(gaps)

    free = baselines.train_top1_baseline(ds, lam=0.0, epochs=30)
    tight = baselines.train_top1_baseline(ds, lam=10 ** 4, epochs=30)
    assert mean_gap(tight) < mean_gap(free)


def test_top1_baseline_is_deterministic():
    ds = data.generate_simulated(num_queries=10, docs_per_query=5, seed=2)
    a = baselines.train_top1_baseline(ds, lam=1.0, epochs=5, seed=3)
    b = baselines.train_top1_baseline(ds, lam=1.0, epochs=5, seed=3)
    assert policy.models_equal(a, b)
