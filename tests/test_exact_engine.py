"""Exact Plackett-Luce expectations from the DP over placed subsets,
checked against enumeration of every ranking."""
import numpy as np
import pytest

from fairltr import fairness, metrics, policy
import oracle


def score_cases(n, rng):
    """Random scores, ties, all zeros, and scores beyond the clamp."""
    beyond = np.where(np.arange(n) % 2 == 0, 1.2, -1.2) * policy.SCORE_CLAMP
    return {
        "random": rng.normal(scale=2.0, size=n),
        "ties": np.round(rng.normal(size=n)),
        "zeros": np.zeros(n),
        "beyond_clamp": beyond,
    }


CASES = [(n, kind) for n in range(1, 8)
         for kind in ("random", "ties", "zeros", "beyond_clamp")]


def enumerated_marginals(scores):
    n = scores.shape[0]
    marginals = np.zeros((n, n))
    for order in oracle.all_rankings(n):
        marginals[order, np.arange(n)] += np.exp(
            oracle.ranking_logprobs(scores, order))
    return marginals


@pytest.mark.parametrize("n,kind", CASES)
def test_position_marginals_match_enumeration(n, kind):
    scores = score_cases(n, np.random.default_rng(n))[kind]
    got = policy.position_marginals(scores)
    np.testing.assert_allclose(got, enumerated_marginals(scores), rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)


METRICS = [metrics.UtilityMetric("ndcg", 3), metrics.UtilityMetric("ndcg"),
           metrics.UtilityMetric("dcg"), metrics.UtilityMetric("err"),
           metrics.UtilityMetric("avgrank")]


@pytest.mark.parametrize("n,kind", CASES)
def test_exact_expected_utility_matches_enumeration(n, kind):
    rng = np.random.default_rng(100 + n)
    scores = score_cases(n, rng)[kind]
    rels = rng.integers(0, 5, size=n).astype(float)
    rels[rng.integers(n)] = 3.0  # avgrank needs a relevant document
    for metric in METRICS:
        want = oracle.enumerate_policy_expectations(
            scores, rels, metric=metric).utility
        got = oracle.expected_utility(scores, rels, metric)
        # dcg reaches ~40 here, so the bound scales with the value.
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (str(metric), got, want)


def test_exact_err_keeps_the_grade_and_relevance_checks():
    with pytest.raises(ValueError, match="max_grade"):
        oracle.expected_utility(np.zeros(3), np.array([5.0, 0.0, 1.0]),
                                metrics.UtilityMetric("err"))
    with pytest.raises(ValueError, match="non-negative"):
        oracle.expected_utility(np.zeros(3), np.array([-1.0, 0.0, 1.0]),
                                metrics.UtilityMetric("err"))
    with pytest.raises(ValueError, match="all-zero"):
        oracle.expected_utility(np.zeros(3), np.zeros(3),
                                metrics.UtilityMetric("avgrank"))


def test_exact_paths_never_enumerate(monkeypatch):
    """The exact paths neither call the enumeration oracle nor value a
    ranking's probability, and draw no ranking."""
    def refuse(*args, **kwargs):
        raise AssertionError("an exact path enumerated or sampled rankings")

    for name in ("all_rankings", "enumerate_policy_expectations", "ranking_logprobs"):
        monkeypatch.setattr(oracle, name, refuse)
    for name in ("gumbel_noise", "sample_rankings"):
        monkeypatch.setattr(policy, name, refuse)
    scores = np.linspace(-1.0, 1.0, 7)
    rels = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 1.0, 0.0])
    expo = fairness.exposure_of_policy(scores)
    assert expo.mode == "exact"
    assert expo.values.sum() == pytest.approx(metrics.position_bias_vector(7).sum())
    for metric in METRICS:
        assert np.isfinite(oracle.expected_utility(scores, rels, metric))


def score_block(n, rng):
    """A ``(K, Q, n)`` block of three members on the ``score_cases`` rows
    plus scores at +-SCORE_CLAMP, scaled per member so that some random
    rows hit the clamp."""
    rows = [*score_cases(n, rng).values(), np.full(n, policy.SCORE_CLAMP),
            np.full(n, -policy.SCORE_CLAMP), rng.normal(scale=40.0, size=n)]
    return np.stack([np.array(rows) * scale for scale in (1.0, -1.0, 3.0)])


@pytest.mark.parametrize("n", range(1, 8))
def test_a_score_block_takes_one_dp_with_the_bits_of_each_vector(n):
    """Flows, position marginals and exposures of a block equal its rows'
    calls one at a time, byte for byte."""
    block = score_block(n, np.random.default_rng(200 + n))
    rows = block.reshape(-1, n)
    flows = policy.placement_flows(block)
    assert flows.shape == (*block.shape, 2 ** n)
    want_flows = np.array([policy.placement_flows(s) for s in rows])
    assert flows.tobytes() == want_flows.tobytes()
    marginals = policy.position_marginals(block)
    assert marginals.shape == (*block.shape, n)
    want_marginals = np.array([policy.position_marginals(s) for s in rows])
    assert marginals.tobytes() == want_marginals.tobytes()
    for scores in (block, block[0]):
        expo = fairness.exposure_of_policy(scores)
        want = [fairness.exposure_of_policy(s).values for s in scores.reshape(-1, n)]
        assert expo.mode == "exact" and expo.values.shape == scores.shape
        assert expo.values.tobytes() == np.array(want).tobytes()


def test_the_cached_subset_layout_is_read_only():
    """The layout is built once per n and shared read-only; the flows are a
    fresh array of its columns, the subsets by size, the empty set first."""
    layout = policy._subset_layout(4)
    assert layout is policy._subset_layout(4)
    for array in (layout.unplaced, *layout.parents, layout.onehot):
        with pytest.raises(ValueError):
            array[0] = 0
    sizes = 4 - layout.unplaced.sum(axis=0)
    assert sizes[0] == 0 and sizes[-1] == 4 and (np.diff(sizes) >= 0).all()
    np.testing.assert_array_equal(layout.onehot.argmax(axis=1)[:-1], sizes[:-1])
    flows = policy.placement_flows(np.zeros(4))
    assert flows.flags.writeable and not np.shares_memory(flows, layout.unplaced)
    np.testing.assert_array_equal(flows[:, 0], 0.25)
    np.testing.assert_array_equal(policy.position_marginals(np.zeros(4)), 0.25)


@pytest.mark.parametrize("n", [1, 4, 7])
def test_exact_marginals_ignore_a_shift_of_every_score(n):
    """A Plackett-Luce policy, and so its position marginals and its
    entropy, is the same at ``s`` and at ``s + c``: a bias shared by every
    score moves nothing."""
    rng = np.random.default_rng(300 + n)
    scores = rng.normal(scale=2.0, size=(4, n))
    marginals = policy.position_marginals(scores)
    entropy, _ = policy.softmax_entropy(scores)
    for shift in (-7.25, 1e-3, 3.0, 12.5):
        np.testing.assert_allclose(policy.position_marginals(scores + shift), marginals,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(policy.softmax_entropy(scores + shift)[0], entropy,
                                   rtol=1e-13, atol=0)
