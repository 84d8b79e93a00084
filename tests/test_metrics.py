"""Ranking utility metrics against hand-computed values and invariants."""
import itertools
import math

import numpy as np
import pytest

from fairltr import data, fairness, metrics, policy
from fairltr.ranking import InvalidRankingError, all_rankings


def test_position_bias_values():
    assert metrics.position_bias(1) == 1.0
    assert metrics.position_bias(2) == pytest.approx(0.6309297535714574, abs=1e-15)
    assert metrics.position_bias(3) == 0.5
    np.testing.assert_allclose(metrics.position_bias_vector(3),
                               [1.0, 0.6309297535714574, 0.5])


def test_position_bias_rejects_nonpositive():
    with pytest.raises(ValueError):
        metrics.position_bias(0)


def test_dcg_hand_value():
    # gains 7, 1, 0 at discounts 1, 1/log2(3), 1/2
    got = metrics.dcg(np.array([0, 1, 2]), np.array([3.0, 1.0, 0.0]))
    assert got == pytest.approx(7.63093, abs=1e-5)


def test_dcg_cutoff_truncates():
    rels = np.array([3.0, 1.0, 2.0])
    order = np.array([0, 2, 1])
    full = metrics.dcg(order, rels)
    at2 = metrics.dcg(order, rels, cutoff=2)
    assert at2 == pytest.approx(7.0 + 3.0 * 0.6309297535714574)
    assert at2 < full


def test_ndcg_hand_value_and_bounds():
    rels = np.array([1.0, 0.0])
    assert metrics.ndcg(np.array([0, 1]), rels) == 1.0
    assert metrics.ndcg(np.array([1, 0]), rels) == pytest.approx(0.6309297535714574)
    for order in all_rankings(4):
        val = metrics.ndcg(order, np.array([2.0, 0.0, 1.0, 3.0]))
        assert 0.0 <= val <= 1.0


def test_ndcg_is_one_only_for_ideal_order_with_distinct_gains():
    rels = np.array([3.0, 1.0, 2.0])
    for order in all_rankings(3):
        val = metrics.ndcg(order, rels)
        if np.all(np.diff(rels[order]) <= 0):
            assert val == 1.0
        else:
            assert val < 1.0


def test_ndcg_zero_when_nothing_relevant():
    assert metrics.ndcg(np.array([1, 0]), np.zeros(2)) == 0.0


def test_metrics_ignore_relevance_permutation_symmetry():
    """Queries with all-equal relevance score identically under any order."""
    rels = np.full(4, 2.0)
    vals = {metrics.ndcg(order, rels) for order in all_rankings(4)}
    assert vals == {1.0}


def test_err_hand_values():
    assert metrics.err(np.array([0]), np.array([4.0])) == pytest.approx(0.9375)
    got = metrics.err(np.array([0, 1]), np.array([4.0, 4.0]))
    assert got == pytest.approx(0.966796875)


def test_err_prefers_relevant_earlier():
    """Swapping a better document ahead of a worse one never lowers ERR."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        rels = rng.integers(0, 5, size=5).astype(float)
        order = rng.permutation(5)
        k = rng.integers(0, 4)
        a, b = order[k], order[k + 1]
        if rels[a] >= rels[b]:
            continue
        swapped = order.copy()
        swapped[k], swapped[k + 1] = b, a
        assert metrics.err(swapped, rels) >= metrics.err(order, rels)


def test_err_validates_grades():
    with pytest.raises(ValueError):
        metrics.err(np.array([0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        metrics.err(np.array([0]), np.array([5.0]), max_grade=4.0)


def test_avg_rank_hand_value():
    got = metrics.avg_rank(np.array([0, 1, 2]), np.array([2.0, 1.0, 0.0]))
    assert got == pytest.approx(4.0 / 3.0)


def test_avg_rank_needs_some_relevance():
    with pytest.raises(ValueError):
        metrics.avg_rank(np.array([0, 1]), np.zeros(2))


def test_utility_metric_parse_and_str():
    m = metrics.UtilityMetric.parse("ndcg@10")
    assert m.kind == "ndcg" and m.cutoff == 10
    assert str(m) == "ndcg@10"
    assert str(metrics.UtilityMetric.parse("err")) == "err"
    assert metrics.UtilityMetric.parse("avgrank").kind == "avgrank"
    with pytest.raises(ValueError):
        metrics.UtilityMetric.parse("map")
    with pytest.raises(ValueError):
        metrics.UtilityMetric.parse("ndcg@0")


def test_utility_metric_reward_negates_avg_rank():
    m = metrics.UtilityMetric("avgrank")
    order = np.array([0, 1])
    rels = np.array([1.0, 0.0])
    assert m.batch_rewards(order[None], rels)[0] == -m.value(order, rels) == -1.0


def literal_value(kind, order, rels, cutoff=None, max_grade=4.0):
    """Each metric of one ranking, restated as a loop over its positions."""
    n = len(rels)
    if kind == "err":
        stop = (np.exp2(rels) - 1.0) / 2.0 ** max_grade
        total = 0.0
        not_stopped = 1.0
        for j, d in enumerate(order, start=1):
            total += not_stopped * stop[d] / j
            not_stopped *= 1.0 - stop[d]
        return total
    if kind == "avgrank":
        return sum(rels[d] * j for j, d in enumerate(order, start=1)) / sum(rels)
    k = n if cutoff is None else min(cutoff, n)

    def dcg_of(ranked):
        return sum((2.0 ** rels[d] - 1.0) / math.log2(1.0 + j)
                   for j, d in enumerate(ranked[:k], start=1))

    value = dcg_of(order)
    if kind == "ndcg":
        ideal = dcg_of(sorted(range(n), key=lambda d: -rels[d]))
        return value / ideal if ideal > 0.0 else 0.0
    return value


def test_batch_values_match_literal_definitions():
    rng = np.random.default_rng(3)
    cases = []
    for n in (1, 2, 5, 10, 30):
        cases.append(rng.uniform(0.0, 4.0, size=n))
        cases.append(rng.integers(0, 3, size=n).astype(float))  # many ties
        cases.append(np.zeros(n))
    specs = [("dcg", None), ("dcg", 3), ("ndcg", None), ("ndcg", 3), ("ndcg", 50),
             ("err", None), ("avgrank", None)]
    for rels in cases:
        n = len(rels)
        orders = np.stack([rng.permutation(n) for _ in range(20)])
        for kind, cutoff in specs:
            m = metrics.UtilityMetric(kind, cutoff)
            if kind == "avgrank" and not rels.any():
                with pytest.raises(ValueError):
                    m.batch_values(orders, rels)
                continue
            batch = m.batch_values(orders, rels)
            loop = np.array([literal_value(kind, o, rels, cutoff) for o in orders])
            assert batch.shape == (20,)
            if kind == "err":
                # Same arithmetic in the same order: equal to the last bit.
                assert np.array_equal(batch, loop), (rels, kind)
            else:
                np.testing.assert_allclose(batch, loop, rtol=1e-12, atol=0.0)
            if kind == "ndcg" and not rels.any():
                assert np.all(batch == 0.0)
    rels = np.array([0.5, 4.5, 2.0])
    m = metrics.UtilityMetric("err", err_max_grade=5.0)
    orders = np.stack(list(all_rankings(3)))
    assert np.array_equal(m.batch_values(orders, rels), np.array(
        [literal_value("err", o, rels, max_grade=5.0) for o in orders]))


@pytest.mark.parametrize("bad", [[0, 1], [0, 1, 2, 3], [0, 1, 3], [0, -1, 2],
                                 [0, 1, 1]])
def test_scalar_entry_points_refuse_an_invalid_ranking(bad):
    """A single ranking is validated before it becomes a block of one:
    wrong length, out-of-range index (negative included), repeated index.
    ``exposure_of_ranking`` takes its length from the ranking itself."""
    order = np.array(bad)
    with pytest.raises(InvalidRankingError):
        metrics.UtilityMetric("ndcg").value(order, np.array([1.0, 2.0, 0.0]))
    with pytest.raises(InvalidRankingError):
        policy.ranking_logprob(np.zeros(3), order)
    if len(bad) == 3:
        with pytest.raises(InvalidRankingError):
            fairness.exposure_of_ranking(order)


@pytest.mark.parametrize("text", ["dcg", "dcg@3", "ndcg", "ndcg@3", "err", "avgrank"])
def test_query_constants_give_the_bits_of_an_array_call(text):
    """On a query, value and batch_rewards read the gains, ideal DCG and
    stop probabilities kept with it, and equal the array call bit for bit,
    on the first call and on later ones."""
    metric = metrics.UtilityMetric.parse(text)
    rng = np.random.default_rng(21)
    for rels in (rng.integers(0, 5, size=7) + rng.uniform(0.0, 0.9, size=7),
                 np.array([2.0, 2.0, 1.0, 1.0, 0.0, 2.0]),            # ties
                 np.zeros(5),                                          # all zero
                 np.array([3.0])):                                     # n=1
        n = len(rels)
        query = data.Query.from_arrays("q", np.zeros((n, 1)), rels)
        orders = np.stack([rng.permutation(n) for _ in range(16)])
        if metric.kind == "avgrank" and not rels.any():
            for source in (query, rels):
                with pytest.raises(ValueError, match="all-zero"):
                    metric.batch_rewards(orders, source)
            continue
        for _ in range(2):
            for order in orders[:4]:
                assert metric.value(order, query) == metric.value(order, rels)
            np.testing.assert_array_equal(metric.batch_rewards(orders, query),
                                          metric.batch_rewards(orders, rels))
    gains = metrics.gains(query)
    assert metrics.gains(query) is gains and not gains.flags.writeable
    assert metrics.ideal_dcg(query, 3) == metrics.ideal_dcg(rels, 3)


def test_err_on_a_query_refuses_a_grade_below_its_top_relevance():
    query = data.Query.from_arrays("q", np.zeros((2, 1)), [5.0, 1.0])
    for _ in range(2):
        with pytest.raises(ValueError, match="max_grade"):
            metrics.UtilityMetric("err").value(np.arange(2), query)
    assert metrics.UtilityMetric("err", err_max_grade=5.0).value(np.arange(2), query) \
        == metrics.err(np.arange(2), np.array([5.0, 1.0]), max_grade=5.0)


def test_expected_utility_uniform_two_docs():
    # Uniform policy over two orders: (1 + 0.63093) / 2
    got = metrics.expected_utility(np.zeros(2), np.array([1.0, 0.0]),
                                   metrics.UtilityMetric("ndcg"), exact=True)
    assert got == pytest.approx(0.8154648767857287, abs=1e-12)


def test_expected_utility_monte_carlo_converges_to_exact():
    rng = np.random.default_rng(7)
    scores = np.array([0.8, -0.2, 0.1, 0.4])
    rels = np.array([2.0, 0.0, 1.0, 3.0])
    m = metrics.UtilityMetric("ndcg")
    exact = metrics.expected_utility(scores, rels, m, exact=True)
    mc = metrics.expected_utility(scores, rels, m, num_samples=40000, rng=rng)
    assert mc == pytest.approx(exact, abs=0.005)


def test_expected_utility_exact_needs_small_query():
    with pytest.raises(ValueError):
        metrics.expected_utility(np.zeros(9), np.zeros(9),
                                 metrics.UtilityMetric("ndcg"), exact=True)
