"""A run of equal-size queries builds its constants in one pass, with the
bits of one build per query.

The metric constants (gains, the ideal DCG at each cutoff, the ERR stop
probabilities), the hinge rows of both disparities and the disparities of
a block of exposures are each built for a whole run at once.  Each is
compared with ``==`` on its bytes against a loop over the queries that
uses the one-query formulas, on random runs of mixed sizes that include
degenerate queries: a single group, zero merit, all-zero relevance, n = 1
and tied group mean merits.
"""
import numpy as np
import pytest

from fairltr import data, fairness, metrics


def reference_gains(rels):
    return np.exp2(rels) - 1.0


def reference_ideal_dcg(rels, k):
    top = np.ascontiguousarray(np.sort(reference_gains(rels))[::-1][:k])
    return float(top @ metrics.position_bias_vector(k))


def reference_group_rows(m, g):
    in0, in1 = g == 0, g == 1
    n0, n1 = int(in0.sum()), int(in1.sum())
    m0, m1 = float(m[in0].sum()), float(m[in1].sum())
    if n0 == 0 or n1 == 0 or m0 <= 0.0 or m1 <= 0.0:
        return np.zeros((0, len(m)))
    direction = float(np.sign(m0 / n0 - m1 / n1))
    if direction == 0.0:
        return np.zeros((0, len(m)))
    return direction * (in0 / m0 - in1 / m1)[None, :]


def reference_pairs(m):
    mask = (m[:, None] >= m[None, :]) & (m[None, :] > 0.0)
    np.fill_diagonal(mask, False)
    first, second = np.nonzero(mask)
    return first, second, np.divide(1.0, m, out=np.zeros(m.shape), where=m > 0.0)


def reference_disparity(kind, m, g, e):
    """``hinge_mean`` of one query's rows at one exposure vector."""
    if kind == "group":
        rows = reference_group_rows(m, g)
        gaps = (rows @ e[:, None])[:, 0]
    else:
        first, second, inv_merit = reference_pairs(m)
        x = e * inv_merit
        gaps = x[first] - x[second]
    return np.maximum(gaps, 0.0).mean() if len(gaps) else 0.0


def random_runs(seed):
    """Runs of equal-size queries for several sizes, each with degenerate
    queries among random ones; fresh queries, so nothing is built yet."""
    rng = np.random.default_rng(seed)
    runs = []
    for n in (1, 2, 3, 5, 8, 9, 10, 13, 30):
        rels, groups = [], []
        for _ in range(int(rng.integers(4, 9))):
            rels.append(np.round(rng.uniform(0.0, 4.0, n), int(rng.integers(0, 3))))
            groups.append(rng.integers(0, 2, n))
        rels.append(np.zeros(n))                              # all-zero relevance
        groups.append(rng.integers(0, 2, n))
        rels.append(rng.uniform(0.0, 4.0, n))                 # a single group
        groups.append(np.full(n, int(rng.integers(0, 2))))
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
        order = rng.permutation(len(rels))
        runs.append(tuple(data.Query(f"{n}-{i}", rng.normal(size=(n, 2)), rels[i],
                                     groups[i]) for i in order))
    return runs


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_runs_metric_constants_are_each_querys_own(seed):
    for run in random_runs(seed):
        n = len(run[0])
        assert same(metrics.gains(run),
                    [reference_gains(q.relevances) for q in run])
        for cutoff in (1, 3, 10, None):
            k = n if cutoff is None else min(cutoff, n)
            assert same(metrics.ideal_dcg(run, cutoff),
                        [reference_ideal_dcg(q.relevances, k) for q in run])
        stop = metrics._stop_probabilities(run, 4.0)
        assert same(stop, [reference_gains(q.relevances) / 16.0 for q in run])
        # Each query keeps its row, read-only, for its own later calls.
        for row, query in zip(stop, run):
            kept = metrics._stop_probabilities(query, 4.0)
            assert same(kept, row) and not kept.flags.writeable
            assert same(metrics.gains(query), reference_gains(query.relevances))


def test_a_run_builds_only_the_constants_its_queries_lack():
    (run, *_) = random_runs(3)
    built = [metrics.gains(q) for q in run[::2]]
    stacked = metrics.gains(run)
    for row, query in zip(stacked, run):
        assert same(row, reference_gains(query.relevances))
    for query, kept in zip(run[::2], built):
        assert metrics.gains(query) is kept


def test_a_runs_err_refusal_names_the_first_query_at_fault():
    high = data.Query("a", np.zeros((2, 1)), [5.0, 1.0])
    higher = data.Query("b", np.zeros((2, 1)), [6.0, 1.0])
    for run in ((high, higher), (higher, high)):
        top = run[0].relevances.max()
        with pytest.raises(ValueError, match=f"largest relevance {top}$"):
            metrics.UtilityMetric("err").prepare(run)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("merit", ["identity", "square"])
def test_a_runs_hinge_rows_are_each_querys_own(seed, merit):
    for run in random_runs(seed):
        merits = [fairness.MeritFunction(merit)(q.relevances) for q in run]
        group = fairness.DisparityConfig("group", fairness.MeritFunction(merit))
        for rows, m, query in zip(group.run_rows(run), merits, run):
            assert same(rows, reference_group_rows(m, query.groups))
            assert group.query_rows(query) is rows and not rows.flags.writeable
        pairs = fairness.DisparityConfig("individual", fairness.MeritFunction(merit))
        for rows, m in zip(pairs.run_rows(run), merits):
            first, second, inv_merit = reference_pairs(m)
            assert same(rows.first, first) and same(rows.second, second)
            assert same(rows.inv_merit, inv_merit)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["group", "individual"])
def test_a_blocks_disparities_are_each_querys_own(seed, kind):
    """``from_exposures`` of ``(K, Q, n)`` exposures is ``(K, Q)``, each entry
    with the bits of ``hinge_mean`` of its query's rows at its vector."""
    rng = np.random.default_rng(seed + 10)
    disparity = fairness.DisparityConfig(kind)
    for run in random_runs(seed):
        n = len(run[0])
        for members in (1, 3):
            e = rng.uniform(0.0, 1.0, (members, len(run), n))
            e[..., 0] = 0.0 if n > 1 else e[..., 0]
            got = disparity.from_exposures(e, run)
            assert got.shape == (members, len(run))
            want = [[reference_disparity(kind, q.relevances, q.groups, e[k, i])
                     for i, q in enumerate(run)] for k in range(members)]
            assert same(got, np.array(want, dtype=float))
            for k in range(members):
                for i, q in enumerate(run):
                    assert fairness.hinge_mean(disparity.query_rows(q), e[k, i]) \
                        == got[k, i]
