"""Exact enumeration oracle for the tests.

``enumerate_policy_expectations`` sums over every one of the n! rankings
to give the expected utility, exposures, disparities and their exact
score-space gradients of the Plackett-Luce policy at one score vector.
The library computes exact expectations with the DP over placed subsets
(``policy.placement_flows``); this brute-force sum is what the tests check
that DP, and the Monte-Carlo estimators, against.  Both disparities come
from the hinge rows of ``fairness.individual_rows`` and
``fairness.group_rows``, with the hinge indicators taken from the exact
exposures.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from fairltr.fairness import HingeRows, group_rows, hinge_gaps, hinge_mean, \
    hinge_weights, individual_rows, ranking_exposures
from fairltr.metrics import UtilityMetric
from fairltr.policy import logprob_grads_scores, ranking_logprobs
from fairltr.ranking import ENUMERATION_LIMIT, Ranking


def all_rankings(num_docs: int, limit: int = ENUMERATION_LIMIT) -> Iterator[Ranking]:
    """Yield every permutation of ``0..num_docs-1``.

    Refuses to enumerate above ``limit`` candidates (n! blowup).
    """
    if num_docs > limit:
        raise ValueError(
            f"refusing to enumerate {num_docs}! rankings (limit {limit})")
    for perm in itertools.permutations(range(num_docs)):
        yield np.array(perm, dtype=np.intp)


@dataclass
class ExactPolicyStats:
    """Exact expectations of the ranking policy at one score vector.

    Gradients are wrt the scores.  Disparity fields are None when merits
    (individual) or groups (group) were not supplied.
    """

    utility: float
    utility_grad: np.ndarray
    exposures: np.ndarray
    individual_disparity: float | None = None
    individual_grad: np.ndarray | None = None
    group_disparity: float | None = None
    group_grad: np.ndarray | None = None


def enumerate_policy_expectations(scores: np.ndarray, relevances: np.ndarray,
                                  merits: np.ndarray | None = None,
                                  groups: np.ndarray | None = None,
                                  metric: UtilityMetric | None = None
                                  ) -> ExactPolicyStats:
    """Sum over all n! rankings; refuse above ``ENUMERATION_LIMIT`` docs.

    Hinge indicators for the disparity gradients come from the exact
    exposures, so away from the hinge kink the returned gradients are the
    true gradients of the disparity values.
    """
    s = np.asarray(scores, dtype=float)
    rels = np.asarray(relevances, dtype=float)
    n = s.shape[0]
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"exact enumeration limited to {ENUMERATION_LIMIT} docs, got {n}")
    if metric is None:
        metric = UtilityMetric("ndcg")

    orders = np.stack(list(all_rankings(n)))
    probs = np.exp(ranking_logprobs(s, orders))
    glogs = logprob_grads_scores(s, orders)
    per_ranking = ranking_exposures(orders)

    deltas = metric.batch_values(orders, rels)
    stats = ExactPolicyStats(
        utility=float(probs @ deltas),
        utility_grad=(probs * deltas) @ glogs,
        exposures=probs @ per_ranking,
    )

    hinge = (stats.exposures, per_ranking, probs, glogs)
    if merits is not None:
        stats.individual_disparity, stats.individual_grad = _exact_hinge(
            individual_rows(merits), *hinge)
    if groups is not None:
        if merits is None:
            raise ValueError("group disparity needs merits")
        stats.group_disparity, stats.group_grad = _exact_hinge(
            group_rows(merits, groups), *hinge)
    return stats


def _exact_hinge(rows: HingeRows, exposures: np.ndarray,
                 per_ranking: np.ndarray, probs: np.ndarray,
                 glogs: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact ``hinge_mean(rows, exposures)`` and its score gradient, summed
    over the enumerated rankings with hinge indicators from the exact
    exposures."""
    grad = np.zeros(exposures.shape[0])
    if len(rows):
        weights = hinge_weights(rows, hinge_gaps(rows, exposures) > 0.0)
        grad = (probs * (per_ranking @ weights)) @ glogs
    return hinge_mean(rows, exposures), grad
