"""Enumeration oracle, regression fit, LP post-processing, top-1 baseline."""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairltr import baselines, cli, data, fairness, metrics, policy, trainer
import oracle


def test_enumeration_matches_expected_utility():
    rng = np.random.default_rng(0)
    metric = metrics.UtilityMetric("ndcg")
    for _ in range(5):
        scores = rng.normal(size=4)
        rels = rng.uniform(0.0, 3.0, size=4)
        ex = oracle.enumerate_policy_expectations(scores, rels, metric=metric)
        direct = oracle.expected_utility(scores, rels, metric)
        assert ex.utility == pytest.approx(direct, abs=1e-12)


def test_enumeration_exposures_match_policy_module():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=4)
    rels = rng.uniform(0.5, 2.0, size=4)
    ex = oracle.enumerate_policy_expectations(scores, rels, merits=rels)
    expo = fairness.exposure_of_policy(scores).values
    np.testing.assert_allclose(ex.exposures, expo, atol=1e-12)
    assert ex.individual_disparity == pytest.approx(
        fairness.hinge_mean(fairness.individual_rows(rels), expo), abs=1e-12)


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
        ex = oracle.enumerate_policy_expectations(
            scores, rels, merits=merit(rels), groups=groups, metric=metric)

        def exact_at(s):
            return oracle.enumerate_policy_expectations(
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
        oracle.enumerate_policy_expectations(np.zeros(9), np.zeros(9))


def test_linear_regression_recovers_exact_relationship():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    y = X @ np.array([2.0, -0.5])
    queries = []
    for qi in range(6):
        rows = slice(qi * 5, qi * 5 + 5)
        queries.append(data.Query(str(qi), X[rows], y[rows]))
    ds = data.Dataset(queries, 2)
    model = baselines.fit_linear_regression(ds)
    np.testing.assert_allclose(model.weights, [2.0, -0.5], atol=1e-6)
    np.testing.assert_allclose(model.bias, [0.0], atol=1e-6)


def test_linear_regression_fits_constant_via_bias():
    ds = data.Dataset([data.Query("1", np.zeros((8, 1)), np.full(8, 3.0))], 1)
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
        for order in oracle.all_rankings(4):
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


@pytest.mark.parametrize("bad", [-0.1, -np.inf, np.inf, np.nan])
def test_grids_refuse_a_bad_weight_anywhere_before_any_work(bad, monkeypatch):
    """A weight that is negative or not finite, first, last or inside an
    unsorted grid, is named before any LP solve or SGD step."""
    def no_work(*args):
        raise AssertionError("work began")

    monkeypatch.setattr(baselines, "gains", no_work)
    monkeypatch.setattr(baselines, "_top1_target", no_work)
    ds = data.generate_simulated(num_queries=3, docs_per_query=4, seed=0)
    r_hat, groups = np.array([1.0, 2.0, 0.5]), np.array([0, 1, 0])
    message = rf"^lam must be finite and >= 0, got {bad:g}$"
    for grid in ([bad], [0.0, 0.2, bad], [0.2, bad, 0.0, 0.1]):
        with pytest.raises(ValueError, match=message):
            baselines.solve_fair_lp_grid(r_hat, groups, grid)
        with pytest.raises(ValueError, match=message):
            baselines.train_top1_grid(ds, grid, epochs=1)
    for start in (lambda: baselines.solve_fair_lp(r_hat, groups, bad),
                  lambda: baselines.train_top1_baseline(ds, bad, epochs=1)):
        with pytest.raises(ValueError, match=message):
            start()
    for start in (lambda: baselines.solve_fair_lp_grid(r_hat, groups, []),
                  lambda: baselines.train_top1_grid(ds, [], epochs=1)):
        with pytest.raises(ValueError, match="grid is empty"):
            start()


def assert_same_lp_result(got, want):
    """Every field of two ``FairLPResult`` equal, bit for bit."""
    for field in ("orders", "weights", "exposures"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert (got.xi, got.objective) == (want.xi, want.objective)


def lp_grid_instances():
    """Estimates and groups: random, tied, one group, no groups, a group of
    zero merit, and one and two documents."""
    rng = np.random.default_rng(11)
    for n in (4, 8, 12):
        for _ in range(8):
            yield rng.uniform(0.0, 3.0, n), rng.integers(0, 2, n)
            yield rng.integers(0, 3, n).astype(float), rng.integers(0, 2, n)
    yield np.array([2.0, 2.0, 1.0, 1.0, 0.0, 2.0]), np.array([0, 1, 0, 1, 1, 0])
    yield rng.uniform(0.0, 3.0, 5), np.zeros(5, dtype=int)
    yield rng.uniform(0.0, 3.0, 5), None
    yield np.array([0.0, -0.5, 1.5, 2.0]), np.array([0, 0, 1, 1])
    yield np.array([1.3]), np.array([0])
    yield np.array([2.0, 1.0]), np.array([0, 1])
    yield np.array([1.0, 2.0]), np.array([0, 1])
    yield np.array([1.0, 1.0]), np.array([1, 0])


@pytest.mark.parametrize("grid", [baselines.lp_lambda_grid(),
                                  [0.2, 0.0, 0.05, 0.2, 0.01, 5.0, 0.05],
                                  [0.0]])
def test_lp_grid_equals_one_solve_per_weight(grid):
    """Each weight's optimum, read from the segment path of the grid's
    largest weight, equals solving at that weight alone, in grid order."""
    mixtures = 0
    for r_hat, groups in lp_grid_instances():
        got = baselines.solve_fair_lp_grid(r_hat, groups, grid)
        assert len(got) == len(grid)
        for result, lam in zip(got, grid):
            assert_same_lp_result(result, baselines.solve_fair_lp(r_hat, groups, lam))
            mixtures += len(result.orders) == 2
    assert (mixtures > 0) == (max(grid) > 0.0)


@pytest.mark.parametrize("grid", [baselines.lp_lambda_grid(), [0.0]])
def test_lp_block_equals_each_query_alone(grid):
    """A ``(Q, n)`` block of estimates and groups gives each query's results
    with the bits of solving it alone, its degenerate queries among them;
    a block without groups too, and a block of one."""
    instances = list(lp_grid_instances())
    blocks = {}
    for r_hat, groups in instances:
        blocks.setdefault((len(r_hat), groups is None), []).append((r_hat, groups))
    blocks[(5, True)].append((np.random.default_rng(12).uniform(0.0, 3.0, 5), None))
    assert max(len(block) for block in blocks.values()) > 8
    for (n, ungrouped), block in blocks.items():
        estimates = np.array([r_hat for r_hat, _ in block])
        groups = None if ungrouped else np.array([g for _, g in block])
        got = baselines.solve_fair_lp_grid(estimates, groups, grid)
        assert len(got) == len(block)
        for results, (r_hat, g) in zip(got, block):
            alone = baselines.solve_fair_lp_grid(r_hat, g, grid)
            assert len(results) == len(alone) == len(grid)
            for result, want in zip(results, alone):
                assert_same_lp_result(result, want)


def test_lp_values_are_those_of_its_optimal_mixtures():
    """The LP baseline's per-query values, each query's optimum valued by
    ``trainer.value_split`` with all penalty weights as one block: NDCG is
    the expected exposure's gain over the ideal DCG (up to the rounding of
    a weighted sum of two NDCGs), ERR the weighted ERR of the rankings, and
    the disparity that of the expected exposures, bit for bit."""
    small = data.generate_simulated(num_queries=8, docs_per_query=6, seed=3)
    large = data.generate_simulated(num_queries=8, docs_per_query=9, seed=4)
    dataset = data.Dataset([q for pair in zip(small, large) for q in pair],
                           small.feature_dim)
    merit = fairness.MeritFunction()
    lambdas = baselines.lp_lambda_grid()
    rank, _ = cli._lp_ranker(dataset, [("train", dataset)], lambdas, merit)
    ndcg, err = metrics.UtilityMetric("ndcg"), cli.err_metric_for(dataset)
    group = fairness.DisparityConfig("group", merit)
    summaries = trainer.value_split(dataset, rank, ndcg, group, [err])
    regression = baselines.fit_linear_regression(dataset)
    mixtures = 0
    for summary, lam in zip(summaries, lambdas, strict=True):
        for q, query in enumerate(dataset):
            result = baselines.solve_fair_lp(regression.scores(query.feature_matrix),
                                             query.groups, lam, merit)
            mixtures += len(result.orders) == 2
            ideal = metrics.ideal_dcg(query)
            expected = metrics.gains(query) @ result.exposures / ideal if ideal else 0.0
            assert abs(summary.metric_values[q] - expected) <= 1e-12
            errs = np.array([err.value(order, query) for order in result.orders])
            # Products, then their sum: a BLAS dot may fuse them.
            assert summary.extra_values[0][q] == (result.weights * errs).sum()
            assert summary.disparity_values[q] == fairness.hinge_mean(
                group.query_rows(query), result.exposures)
    assert mixtures > 0


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
    ndcg = metrics.UtilityMetric("ndcg")
    vals = []
    for q in ds:
        order = policy.argmax_ranking(model.scores(q.feature_matrix))
        vals.append(ndcg.value(order, q.relevances))
    zero = []
    for q in ds:
        zero.append(ndcg.value(np.arange(len(q)), q.relevances))
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
    assert oracle.models_equal(a, b)


def _top1_reference(dataset, lam, learning_rate=0.01, epochs=50, seed=0,
                    max_grad_norm=10.0):
    """The top-1 baseline's loop with its clip norm written as a generator
    of numpy reductions, the reference of ``train_top1_baseline``; returns
    the model and the number of clipped steps."""
    targets = [baselines._top1_target(q.relevances) for q in dataset]
    pickers = [baselines._group_picker(q.groups) if lam > 0.0 else None
               for q in dataset]
    rng = np.random.default_rng(seed)
    model = policy.LinearModel(np.zeros(dataset.feature_dim), np.zeros(1))
    clipped = 0
    for _ in range(epochs):
        for qi in rng.permutation(len(dataset)):
            X = dataset.queries[qi].feature_matrix
            scores = model.scores(X)
            z = np.exp(scores - scores.max())
            p = z / z.sum()
            score_grad = p - targets[qi]
            picker = pickers[qi]
            if picker is not None:
                gap = float(picker @ p)
                score_grad = score_grad + 2.0 * lam * gap * p * (picker - gap)
            grads = [X.T @ score_grad, np.array([score_grad.sum()])]
            norm = np.sqrt(sum(float(np.sum(np.square(a))) for a in grads))
            if norm > max_grad_norm:
                clipped += 1
                grads = [a * (max_grad_norm / norm) for a in grads]
            model.weights -= learning_rate * grads[0]
            model.bias -= learning_rate * grads[1]
    return model, clipped


@pytest.mark.parametrize("lam", [0.0, 10.0, 10 ** 4])
def test_top1_baseline_equals_the_reference_loop(lam):
    ds = data.generate_simulated(num_queries=20, docs_per_query=10, seed=6)
    got = baselines.train_top1_baseline(ds, lam, epochs=5, seed=2)
    want, clipped = _top1_reference(ds, lam, epochs=5, seed=2)
    assert got.weights.tolist() == want.weights.tolist()
    assert got.bias.tolist() == want.bias.tolist()
    assert (clipped > 0) == (lam == 10 ** 4)


def top1_block_dataset(features):
    """Queries of 6 and 9 documents, one of them of a single group, with
    ``features`` features."""
    rng = np.random.default_rng(features)
    queries = []
    for qi in range(12):
        n = 6 if qi % 2 else 9
        groups = np.zeros(n, dtype=int) if qi == 3 else (rng.random(n) < 0.3).astype(int)
        queries.append(data.Query(str(qi), rng.normal(size=(n, features)),
                                  rng.uniform(0.0, 3.0, n), groups))
    return data.Dataset(queries, features)


@pytest.mark.parametrize("features", [2, 5])
def test_top1_block_members_equal_the_reference_loop(features):
    """Each member of one unsorted grid block, with λ = 0, a mid weight and a
    clipping one, equals the reference loop at its weight alone."""
    ds = top1_block_dataset(features)
    assert any(baselines._group_picker(q.groups) is None for q in ds)
    grid = [10.0, 10 ** 4, 0.0, 10.0]
    block = baselines.train_top1_grid(ds, grid, epochs=4, seed=2)
    assert block.params.shape == (len(grid), features + 1)
    for member, lam in enumerate(grid):
        want, clipped = _top1_reference(ds, lam, epochs=4, seed=2)
        assert block.weights[member].tobytes() == want.weights.tobytes()
        assert block.bias[member].tobytes() == want.bias.tobytes()
        assert (clipped > 0) == (lam == 10 ** 4)
