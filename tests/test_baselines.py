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
        fairness.DisparityConfig("individual").from_exposures(
            expo, fairness.individual_rows(rels)), abs=1e-12)


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
        queries.append((str(qi), X[rows], y[rows]))
    ds = oracle.dataset_of(queries)
    model = baselines.fit_linear_regression(ds)
    np.testing.assert_allclose(model.weights, [2.0, -0.5], atol=1e-6)
    np.testing.assert_allclose(model.bias, [0.0], atol=1e-6)


def test_linear_regression_fits_constant_via_bias():
    ds = oracle.dataset_of([("1", np.zeros((8, 1)), np.full(8, 3.0))])
    model = baselines.fit_linear_regression(ds)
    np.testing.assert_allclose(model.bias, [3.0], atol=1e-8)


def assert_sorting_permutation(res, r_hat):
    """The sort by the estimates alone, padded with its weight-0 copy."""
    assert res.orders.tolist() == [np.argsort(-r_hat, kind="stable").tolist()] * 2
    assert res.weights.tolist() == [1.0, 0.0]
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
    for field in ("orders", "weights", "xi", "objective", "exposures"):
        a, b = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def result_at(block, lam_index, query):
    """The ``FairLPResult`` of one weight and query of a block's result."""
    return baselines.FairLPResult(*(value[lam_index, query]
                                    for value in vars(block).values()))


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
        got = baselines.solve_fair_lp_grid(r_hat[None], None if groups is None
                                           else groups[None], grid)
        assert got.orders.shape == (len(grid), 1, 2, len(r_hat))
        for l, lam in enumerate(grid):
            result = result_at(got, l, 0)
            assert_same_lp_result(result, baselines.solve_fair_lp(r_hat, groups, lam))
            mixtures += result.weights[1] > 0.0
    assert (mixtures > 0) == (max(grid) > 0.0)


def lp_blocks():
    """``lp_grid_instances`` as blocks of equal-size queries, with and
    without groups; one block of one."""
    blocks = {}
    for r_hat, groups in lp_grid_instances():
        blocks.setdefault((len(r_hat), groups is None), []).append((r_hat, groups))
    blocks[(5, True)].append((np.random.default_rng(12).uniform(0.0, 3.0, 5), None))
    assert max(len(block) for block in blocks.values()) > 8
    assert min(len(block) for block in blocks.values()) == 1
    for (_, ungrouped), block in blocks.items():
        yield (np.array([r_hat for r_hat, _ in block]),
               None if ungrouped else np.array([g for _, g in block]))


@pytest.mark.parametrize("grid", [baselines.lp_lambda_grid(), [0.0]])
def test_lp_block_equals_each_query_alone(grid):
    """A ``(Q, n)`` block of estimates and groups gives each query's results
    with the bits of solving it alone, its degenerate queries among them;
    a block without groups too, and a block of one."""
    for estimates, groups in lp_blocks():
        got = baselines.solve_fair_lp_grid(estimates, groups, grid)
        assert got.orders.shape == (len(grid), len(estimates), 2, estimates.shape[1])
        for q, r_hat in enumerate(estimates):
            alone = baselines.solve_fair_lp_grid(
                r_hat[None], None if groups is None else groups[q:q + 1], grid)
            for l in range(len(grid)):
                assert_same_lp_result(result_at(got, l, q), result_at(alone, l, 0))


def test_lp_block_in_parts_equals_the_whole_block(monkeypatch):
    """A block larger than ``_LP_PART_ENTRIES`` allows is solved in parts
    of whole queries, with the bits of the whole block."""
    grid = baselines.lp_lambda_grid()
    split = 0
    for estimates, groups in lp_blocks():
        whole = baselines.solve_fair_lp_grid(estimates, groups, grid)
        n = estimates.shape[1]
        with monkeypatch.context() as patch:
            patch.setattr(baselines, "_LP_PART_ENTRIES", 3 * (n * (n - 1) // 2 + 2) * n)
            parts = baselines.solve_fair_lp_grid(estimates, groups, grid)
        split += len(estimates) > 3
        assert_same_lp_result(parts, whole)
    assert split >= 3


def lp_reference_runs():
    """Runs of estimates and groups for the per-query reference: random
    and tied estimates (repeated knots), no groups (a zero row), one group,
    a zero-merit group, one and two documents, and a split of 6- and
    9-document queries."""
    rng = np.random.default_rng(13)
    yield rng.uniform(0.0, 3.0, (6, 8)), rng.integers(0, 2, (6, 8))
    yield rng.integers(0, 3, (6, 8)).astype(float), rng.integers(0, 2, (6, 8))
    yield np.array([[2.0, 2.0, 1.0, 1.0, 0.0, 2.0], [1.0, 1.0, 1.0, 2.0, 2.0, 2.0],
                    [2.0, 0.0, 1.0, 0.0, 2.0, 2.0]]), \
        np.array([[0, 1, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 0, 0]])
    # Repeated knots where the weights 0.2 and 1 take their segment.
    yield np.array([[0.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0]]), np.array([[0, 1, 0, 0, 0, 1, 1, 1]])
    yield rng.uniform(0.0, 3.0, (3, 5)), None
    yield rng.uniform(0.0, 3.0, (3, 5)), np.zeros((3, 5), dtype=int)
    yield np.array([[0.0, -0.5, 1.5, 2.0], [1.0, 0.0, 2.0, 0.5]]), \
        np.array([[0, 0, 1, 1], [1, 0, 1, 1]])
    yield np.array([[1.3], [0.0]]), np.array([[0], [1]])
    yield np.array([[2.0, 1.0], [1.0, 2.0], [1.0, 1.0]]), np.array([[0, 1], [0, 1], [1, 0]])
    split = oracle.dataset_of(
        [q for pair in zip(data.generate_simulated(num_queries=6, docs_per_query=6, seed=5),
                           data.generate_simulated(num_queries=6, docs_per_query=9, seed=6))
         for q in pair])
    scores = baselines.fit_linear_regression(split)
    for run in split.runs:
        yield scores.scores(run.features), run.groups


@pytest.mark.parametrize("grid", [[0.0, 1.0], baselines.lp_lambda_grid(),
                                  [0.2, 0.0, 0.05, 0.2, 0.01, 5.0, 0.05]])
def test_lp_block_equals_the_per_query_reference(grid):
    """The block solve against ``oracle.solve_fair_lp_query``, the
    per-query solver: the same rankings and the same choice of one ranking
    or a mixture, everywhere; a lone ranking's weights and exposures, and a
    zero slack, bit for bit.  A segment's constraint value is a product
    whose BLAS kernel depends on its row's place in the product, so a
    positive slack, a mixture's weights and its exposures may move by
    rounding: the slack by at most 1e-15 of the row's total size, the
    exposures by 1e-15 relative and the weights by the slack's rounding
    over the gap between their two rankings' constraint values.  The
    objective is the exposures' gain less the penalty, which the reference
    sums in another order."""
    merit = fairness.MeritFunction()
    for estimates, groups in lp_reference_runs():
        got = baselines.solve_fair_lp_grid(estimates, groups, grid)
        rows = baselines._lp_constraint_rows(estimates, groups, merit)
        for q, (r_hat, a) in enumerate(zip(estimates, rows)):
            size = np.abs(a).sum()
            for l, want in enumerate(oracle.solve_fair_lp_query(r_hat, a, grid)):
                result = result_at(got, l, q)
                lone = len(want.orders) == 1
                assert result.orders.tolist() == np.resize(want.orders, (2, len(a))).tolist()
                assert (result.weights[1] == 0.0) == lone
                assert (result.xi == 0.0) == (want.xi == 0.0)
                assert abs(result.xi - want.xi) <= 1e-15 * size
                if lone:
                    assert result.weights.tolist() == [1.0, 0.0]
                    assert result.exposures.tobytes() == want.exposures.tobytes()
                else:
                    spread = abs(float(np.diff(
                        fairness.ranking_exposures(want.orders) @ a)[0]))
                    assert np.abs(result.weights - want.weights).max() \
                        <= 1e-15 * (size / spread + 1.0)
                    np.testing.assert_allclose(result.exposures, want.exposures,
                                               rtol=1e-15, atol=0.0)
                assert result.objective == pytest.approx(want.objective, rel=1e-14)


def test_lp_values_are_those_of_its_optimal_mixtures():
    """The LP baseline's per-query values, each query's optimum valued by
    ``trainer.value_split`` with all penalty weights as one block: NDCG is
    the expected exposure's gain over the ideal DCG (up to the rounding of
    a weighted sum of two NDCGs), ERR the weighted ERR of the rankings, and
    the disparity that of the expected exposures under the query's own
    rows, bit for bit, and its one-query reference's to 1e-12."""
    small = data.generate_simulated(num_queries=8, docs_per_query=6, seed=3)
    large = data.generate_simulated(num_queries=8, docs_per_query=9, seed=4)
    dataset = oracle.dataset_of([q for pair in zip(small, large) for q in pair])
    merit = fairness.MeritFunction()
    lambdas = baselines.lp_lambda_grid()
    (rank,), _ = cli._lp_rankers(dataset, [("train", dataset)], lambdas, merit)
    ndcg, err = metrics.UtilityMetric("ndcg"), cli.err_metric_for(dataset)
    group = fairness.DisparityConfig("group", merit)
    summaries = trainer.value_split(dataset, rank, ndcg, group, [err])
    regression = baselines.fit_linear_regression(dataset)
    mixtures = 0
    for summary, lam in zip(summaries, lambdas, strict=True):
        for q, query in enumerate(dataset):
            result = baselines.solve_fair_lp(regression.scores(query.feature_matrix),
                                             query.groups, lam, merit)
            mixtures += result.weights[1] > 0.0
            ideal = metrics.ideal_dcg(query.relevances)
            expected = (metrics.gains(query.relevances) @ result.exposures / ideal
                        if ideal else 0.0)
            assert abs(summary.metric_values[q] - expected) <= 1e-12
            errs = np.array([err.value(order, query.relevances)
                             for order in result.orders])
            # Products, then their sum: a BLAS dot may fuse them.
            assert summary.extra_values[0][q] == (result.weights * errs).sum()
            want = oracle.query_disparity("group", merit(query.relevances),
                                          query.groups, result.exposures)
            assert abs(summary.disparity_values[q] - want) <= 1e-12
            assert summary.disparity_values[q] == group.from_exposures(
                result.exposures, group.rows(query.relevances, query.groups))
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
    a = baselines.train_top1_baseline(ds, lam=1.0, epochs=5)
    b = baselines.train_top1_baseline(ds, lam=1.0, epochs=5)
    assert oracle.models_equal(a, b)


def assert_close_to_the_per_query_reference(model, dataset, lam, learning_rate=0.01,
                                            epochs=50):
    """The weights, summed loss and gradient of ``model`` agree with
    ``oracle.train_top1_query``'s to rounding; returns its halvings."""
    want, loss, grad, halvings = oracle.train_top1_query(dataset, lam, learning_rate, epochs)
    np.testing.assert_allclose(model.weights, want, rtol=1e-9, atol=1e-12)
    got_loss, got_grad = baselines.top1_objective(dataset, model.weights[None], [lam])
    assert got_loss[0] == pytest.approx(loss, rel=1e-12)
    np.testing.assert_allclose(got_grad[0], grad, rtol=1e-6, atol=1e-9)
    return halvings


@pytest.mark.parametrize("lam", [0.0, 10.0, 10 ** 4])
def test_top1_baseline_equals_the_reference_loop(lam):
    """The descent agrees with the per-query reference, and only the
    largest weight needs its step halved."""
    ds = data.generate_simulated(num_queries=20, docs_per_query=10, seed=6)
    got = baselines.train_top1_baseline(ds, lam, epochs=5)
    assert got.bias is None and got.weights.shape == (ds.feature_dim,)
    halvings = assert_close_to_the_per_query_reference(got, ds, lam, epochs=5)
    assert (halvings > 0) == (lam == 10 ** 4)


def top1_block_dataset(features):
    """Queries of 6 and 9 documents, one of them of a single group, with
    ``features`` features; and last a 6-document query whose top-1
    gradient is exactly zero at every step (all-zero relevances, identical
    feature rows, one group)."""
    rng = np.random.default_rng(features)
    queries = []
    for qi in range(12):
        n = 6 if qi % 2 else 9
        groups = np.zeros(n, dtype=int) if qi == 3 else (rng.random(n) < 0.3).astype(int)
        queries.append((str(qi), rng.normal(size=(n, features)),
                                  rng.uniform(0.0, 3.0, n), groups))
    queries.append(("flat", np.tile(rng.normal(size=features), (6, 1)), np.zeros(6),
                    np.ones(6, dtype=int)))
    return oracle.dataset_of(queries)


@pytest.mark.parametrize("features", [2, 5])
def test_top1_block_members_equal_the_reference_loop(features):
    """Each member of one unsorted grid block, with λ = 0, a mid weight and a
    backtracking one, has the bits of training it alone, and agrees with
    the per-query reference."""
    ds = top1_block_dataset(features)
    assert any(baselines._group_picker(q.groups) is None for q in ds)
    grid = [10.0, 10 ** 4, 0.0, 10.0]
    block = baselines.train_top1_grid(ds, grid, epochs=4)
    assert block.params.shape == (len(grid), features) and block.bias is None
    for member, lam in enumerate(grid):
        alone = baselines.train_top1_baseline(ds, lam, epochs=4)
        assert block.weights[member].tobytes() == alone.weights.tobytes()
        halvings = assert_close_to_the_per_query_reference(alone, ds, lam, epochs=4)
        assert (halvings > 0) == (lam == 10 ** 4)


def test_top1_descent_is_stable_and_converges_on_the_simulated_study():
    """On the simulated study's 100 x 10 training data with lr 0.01 and 20
    epochs, the weights at λ = 0 and λ = 10^4 move less than 1e-6 when the
    learning rate moves by one rounding step or the epochs by one, and the
    gradient norm falls to 1e-3 of its norm at the zero model."""
    ds = data.generate_simulated(100, 10, seed=1001)
    grid = [0.0, 10.0 ** 4]
    weights = baselines.train_top1_grid(ds, grid, 0.01, 20).weights
    for lr, epochs in ((0.01 * (1 + 2 ** -52), 20), (0.01 * (1 - 2 ** -52), 20),
                       (0.01, 19), (0.01, 21)):
        moved = baselines.train_top1_grid(ds, grid, lr, epochs).weights
        assert np.abs(moved - weights).max() < 1e-6
    for w, lam in zip(weights, grid):
        start = np.linalg.norm(oracle.top1_query_objective(ds, np.zeros(2), lam)[1])
        end = np.linalg.norm(oracle.top1_query_objective(ds, w, lam)[1])
        assert end <= 1e-3 * start


def degenerate_top1_query(case):
    """One query of a kind whose top-1 loss has a zero gradient at the zero
    model: a single document; all-zero relevances with both groups evenly
    split, whose target is uniform; identical feature rows with all-zero
    relevances and one group, whose gradient is zero everywhere."""
    rng = np.random.default_rng(3)
    return {"one-document": (rng.normal(size=(1, 2)), np.array([2.0]), np.array([1])),
            "zero-relevance": (rng.normal(size=(4, 2)), np.zeros(4), np.array([0, 1, 0, 1])),
            "flat": (np.tile(rng.normal(size=2), (6, 1)), np.zeros(6),
                     np.ones(6, dtype=int))}[case]


@pytest.mark.parametrize("case", ["one-document", "zero-relevance", "flat"])
def test_top1_a_query_without_a_gradient_leaves_the_zero_model(case):
    ds = oracle.dataset_of([("q", *degenerate_top1_query(case))])
    grid = [0.0, 10.0 ** 4]
    loss, grad = baselines.top1_objective(ds, np.zeros((2, 2)), grid)
    assert np.isfinite(loss).all() and not grad.any()
    assert not baselines.train_top1_grid(ds, grid, epochs=3).weights.any()


def test_top1_single_group_queries_take_no_penalty():
    """Without a query of both groups every weight trains the λ = 0 model."""
    rng = np.random.default_rng(4)
    ds = oracle.dataset_of([(str(qi), rng.normal(size=(5, 2)), rng.uniform(0.0, 2.0, 5),
                             np.full(5, qi % 2)) for qi in range(6)])
    block = baselines.train_top1_grid(ds, [0.0, 10.0, 10.0 ** 4], epochs=5)
    assert block.weights.any()
    assert block.weights[1:].tobytes() == np.tile(block.weights[0], (2, 1)).tobytes()


def test_top1_zero_learning_rate_keeps_the_zero_model():
    ds = data.generate_simulated(num_queries=10, docs_per_query=5, seed=2)
    assert baselines.top1_objective(ds, np.zeros((1, 2)), [1.0])[1].any()
    block = baselines.train_top1_grid(ds, [0.0, 10.0 ** 4], learning_rate=0.0, epochs=3)
    assert block.weights.tobytes() == np.zeros((2, 2)).tobytes()
