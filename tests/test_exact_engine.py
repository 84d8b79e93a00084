"""Exact Plackett-Luce expectations from the DP over placed subsets,
checked against enumeration of every ranking."""
import numpy as np
import pytest

from fairltr import baselines, fairness, metrics, policy, ranking
from fairltr.ranking import all_rankings


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
    for order in all_rankings(n):
        marginals[order, np.arange(n)] += np.exp(policy.ranking_logprob(scores, order))
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
        want = baselines.enumerate_policy_expectations(
            scores, rels, metric=metric).utility
        got = metrics.expected_utility(scores, rels, metric, exact=True)
        # dcg reaches ~40 here, so the bound scales with the value.
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (str(metric), got, want)


def test_exact_err_keeps_the_grade_and_relevance_checks():
    with pytest.raises(ValueError, match="max_grade"):
        metrics.expected_utility(np.zeros(3), np.array([5.0, 0.0, 1.0]),
                                 metrics.UtilityMetric("err"), exact=True)
    with pytest.raises(ValueError, match="non-negative"):
        metrics.expected_utility(np.zeros(3), np.array([-1.0, 0.0, 1.0]),
                                 metrics.UtilityMetric("err"), exact=True)
    with pytest.raises(ValueError, match="all-zero"):
        metrics.expected_utility(np.zeros(3), np.zeros(3),
                                 metrics.UtilityMetric("avgrank"), exact=True)


def test_exact_paths_never_enumerate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact mode enumerated rankings")

    for module in (ranking, fairness, metrics):
        monkeypatch.setattr(module, "all_rankings", refuse, raising=False)
    monkeypatch.setattr(policy, "ranking_logprob", refuse)
    monkeypatch.setattr(policy, "ranking_logprobs", refuse)
    scores = np.linspace(-1.0, 1.0, 7)
    rels = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 1.0, 0.0])
    expo = fairness.exposure_of_policy(scores, mode="exact")
    assert expo.mode == "exact"
    assert expo.values.sum() == pytest.approx(metrics.position_bias_vector(7).sum())
    for metric in METRICS:
        assert np.isfinite(metrics.expected_utility(scores, rels, metric, exact=True))
