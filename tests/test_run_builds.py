"""A run of equal-size queries builds its constants in one pass, and each
query's row matches its one-query reference to within 1e-12.

The metric constants (gains, the ideal DCG at each cutoff, the ERR stop
probabilities), the hinge rows of both disparities and the disparities of
a block of exposures are each built for a whole run at once, by
vectorized operations on its ``(Q, n)`` arrays.  Each is compared against
the one-query references of ``oracle`` (``query_gains``,
``query_ideal_dcg``, ``query_group_row``, ``query_pairs``,
``query_disparity``) on random runs of mixed sizes that include
degenerate queries: a single group, zero merit, all-zero relevance,
n = 1, tied group mean merits, and tied merits, whose pairs count in both
orders.
"""
import numpy as np
import pytest

from fairltr import data, fairness, metrics
import oracle

CLOSE = dict(rtol=1e-12, atol=1e-15)


def random_runs(seed):
    """A dataset whose runs of equal-size queries, for several sizes, mix
    degenerate queries with random ones."""
    rng = np.random.default_rng(seed)
    queries = []
    for n in (1, 2, 3, 5, 8, 9, 10, 13, 30):
        rels, groups = [], []
        for _ in range(int(rng.integers(4, 9))):
            rels.append(np.round(rng.uniform(0.0, 4.0, n), int(rng.integers(0, 3))))
            groups.append(rng.integers(0, 2, n))
        rels.append(np.zeros(n))                              # all-zero relevance
        groups.append(rng.integers(0, 2, n))
        rels.append(rng.uniform(0.0, 4.0, n))                 # a single group
        groups.append(np.full(n, int(rng.integers(0, 2))))
        rels.append(np.full(n, 2.5))                          # tied merits
        groups.append(rng.integers(0, 2, n))
        if n >= 2:
            tied = rng.uniform(0.5, 3.0, n)
            labels = np.arange(n) % 2
            tied[labels == 1] = tied[labels == 0].mean() if n == 2 else 1.0
            tied[labels == 0] = 1.0 if n > 2 else tied[0]
            rels.append(tied)                                 # tied mean merits
            groups.append(labels)
            zero_group = rng.uniform(0.5, 3.0, n)
            zero_group[labels == 1] = 0.0                     # a zero-merit group
            rels.append(zero_group)
            groups.append(labels)
        for i in rng.permutation(len(rels)):
            queries.append((f"{n}-{i}", rng.normal(size=(n, 2)), rels[i], groups[i]))
    return oracle.dataset_of(queries)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_runs_metric_constants_are_each_querys_own(seed):
    for run in random_runs(seed).runs:
        n = run.relevances.shape[1]
        np.testing.assert_allclose(metrics.gains(run.relevances),
                                   [oracle.query_gains(r) for r in run.relevances], **CLOSE)
        for cutoff in (1, 3, 10, None):
            k = n if cutoff is None else min(cutoff, n)
            ideal = [oracle.query_ideal_dcg(r, k) for r in run.relevances]
            np.testing.assert_allclose(metrics.ideal_dcg(run.relevances, cutoff),
                                       ideal, **CLOSE)
            weights, scale = metrics.UtilityMetric("ndcg", cutoff).constants(run.relevances)
            live = np.array(ideal) > 0.0
            np.testing.assert_allclose(scale, np.where(live, ideal, 1.0), **CLOSE)
            np.testing.assert_allclose(
                weights, [oracle.query_gains(r) * alive
                          for r, alive in zip(run.relevances, live)], **CLOSE)
        stop, scale = metrics.UtilityMetric("err").constants(run.relevances)
        np.testing.assert_allclose(
            stop, [oracle.query_gains(r) / 16.0 for r in run.relevances], **CLOSE)
        assert np.array_equal(scale, np.ones(len(run)))


def test_a_runs_err_refusal_names_the_first_query_at_fault():
    for rels in ([[5.0, 1.0], [6.0, 1.0]], [[6.0, 1.0], [5.0, 1.0]]):
        dataset = data.Dataset(["a", "b"], [2, 2], np.zeros((4, 1)), np.ravel(rels))
        (run,) = dataset.runs
        top = run.relevances[0].max()
        with pytest.raises(ValueError, match=f"largest relevance {top}$"):
            metrics.UtilityMetric("err").constants(run.relevances)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("merit", ["identity", "square"])
def test_a_runs_hinge_rows_are_each_querys_own(seed, merit):
    merit = fairness.MeritFunction(merit)
    for run in random_runs(seed).runs:
        merits = merit(run.relevances)
        (rows,) = fairness.DisparityConfig("group", merit).rows(run.relevances, run.groups)
        np.testing.assert_allclose(
            rows, [oracle.query_group_row(m, g) for m, g in zip(merits, run.groups)],
            **CLOSE)
        mask, inv_merit = fairness.DisparityConfig("individual", merit).rows(
            run.relevances, None)
        for q, m in enumerate(merits):
            assert list(zip(*np.nonzero(mask[q]))) == oracle.query_pairs(m)
            np.testing.assert_allclose(
                inv_merit[q], [1.0 / value if value > 0.0 else 0.0 for value in m],
                **CLOSE)
        # Tied positive merits pair in both orders.
        tied = np.flatnonzero((run.relevances == 2.5).all(axis=1))
        n = run.relevances.shape[1]
        assert mask[tied].sum(axis=(1, 2)).tolist() == [n * (n - 1)] * len(tied)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["group", "individual"])
def test_a_blocks_disparities_are_each_querys_own(seed, kind):
    """``from_exposures`` of ``(K, Q, n)`` exposures under a run's rows is
    ``(K, Q)``, each entry within 1e-12 of its query's reference disparity
    at its vector."""
    rng = np.random.default_rng(seed + 10)
    disparity = fairness.DisparityConfig(kind)
    for run in random_runs(seed).runs:
        n = run.relevances.shape[1]
        rows = disparity.rows(run.relevances, run.groups)
        for members in (1, 3):
            e = rng.uniform(0.0, 1.0, (members, len(run), n))
            e[..., 0] = 0.0 if n > 1 else e[..., 0]
            got = disparity.from_exposures(e, rows)
            assert got.shape == (members, len(run))
            want = [[oracle.query_disparity(kind, m, g, e[k, q])
                     for q, (m, g) in enumerate(zip(run.relevances, run.groups))]
                    for k in range(members)]
            np.testing.assert_allclose(got, want, **CLOSE)
