"""Reference methods: exact enumeration, LP post-processing, top-1 softmax.

``enumerate_policy_expectations`` is the ground-truth companion of the
Monte-Carlo trainer: for small candidate sets it computes expected utility,
exposures, disparities, and their exact score-space gradients by summing
over every permutation.  Both disparities come from the hinge rows of
``fairness.individual_rows`` and ``fairness.group_rows``, with the hinge
indicators taken from the exact exposures.

The LP baseline estimates relevance with a pooled linear regression, then
solves, per query, a linear program over doubly stochastic matrices that
trades expected DCG against a slack on the between-group per-merit exposure
gap, whose constraint is the ``group_rows`` row scaled to shares.  Its
objective has rank one and it has a single side constraint, so it is solved
in closed form by sorting: the optimum is one ranking or a mixture of two,
and ``FairLPResult`` holds them with their weights and expected exposures
instead of a matrix.  The top-1 baseline trains a linear scorer whose
softmax matches the normalized relevance profile, with a squared penalty on
the between-group mean top-1 probability gap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Query
from .fairness import DisparityConfig, HingeRows, MeritFunction, group_rows, \
    hinge_gaps, hinge_mean, hinge_weights, individual_rows, ranking_exposures
from .metrics import UtilityMetric, gains, ideal_dcg, position_bias_vector
from .policy import LinearModel, logprob_grads_scores, ranking_logprobs
from .ranking import ENUMERATION_LIMIT, all_rankings


# ---------------------------------------------------------------------------
# Exact enumeration oracle
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Relevance regression
# ---------------------------------------------------------------------------


def fit_linear_regression(dataset: Dataset, ridge: float = 1e-6,
                          use_bias: bool = True) -> LinearModel:
    """Pooled least-squares fit of relevance on features.

    A fixed tiny ridge term on the weights (never the bias) keeps the
    normal equations solvable for collinear features.
    """
    X = np.vstack([q.feature_matrix for q in dataset])
    y = np.concatenate([q.relevances for q in dataset])
    if use_bias:
        X = np.hstack([X, np.ones((X.shape[0], 1))])
    reg = np.full(X.shape[1], ridge)
    if use_bias:
        reg[-1] = 0.0
    coef = np.linalg.solve(X.T @ X + np.diag(reg), X.T @ y)
    if use_bias:
        return LinearModel(coef[:-1], coef[-1:])
    return LinearModel(coef)


# ---------------------------------------------------------------------------
# LP post-processing, solved in closed form
# ---------------------------------------------------------------------------


@dataclass
class FairLPResult:
    """Optimum of the fair LP as a mixture of at most two rankings.

    ``orders[k]`` is played with probability ``weights[k]``;
    ``exposures`` is the mixture's expected exposure per document.
    """

    orders: np.ndarray
    weights: np.ndarray
    xi: float
    objective: float
    exposures: np.ndarray


def solve_fair_lp(estimated_relevances: np.ndarray, groups: np.ndarray | None,
                  lam: float,
                  merit: MeritFunction | None = None) -> FairLPResult:
    """Best doubly stochastic ranking under a group-exposure slack penalty.

    Maximizes expected DCG of the estimated relevances (normalized by the
    ideal DCG) minus ``lam`` times a slack ``xi >= 0`` bounding how far the
    higher estimated-merit group's exposure share per merit share exceeds
    the other group's.  Both objective terms are dimensionless, so the same
    ``lam`` grid is meaningful across queries.  With ``lam = 0`` or no
    usable groups the optimum is the permutation sorting by estimated
    relevance.

    The LP is solved exactly, without an LP solver.  With ``w`` the
    normalized gains and ``a`` the ``group_rows`` row scaled to shares, it
    maximizes ``w @ P @ v - lam * xi`` subject to ``a @ P @ v <= xi``.  For
    a multiplier ``mu`` in ``[0, lam]`` the inner maximum over doubly
    stochastic ``P`` is, by the rearrangement inequality, a descending sort
    of ``w - mu * a``, so the dual is convex and piecewise linear in ``mu``
    with knots where two entries swap.  Each segment between knots takes
    its ordering from its midpoint.  The optimum is the first segment's
    ordering when it meets the constraint, the last segment's with a
    positive slack when none does, and otherwise the mixture of the two
    orderings next to the sign change of the constraint that meets it
    exactly.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError("lam must be finite and >= 0")
    r_hat = np.asarray(estimated_relevances, dtype=float)
    if not np.isfinite(r_hat).all():
        raise ValueError("estimated relevances must be finite")
    n = r_hat.shape[0]
    merit = merit or MeritFunction()

    v = position_bias_vector(n)
    scale = ideal_dcg(r_hat)
    w = gains(r_hat) / (scale if scale > 0.0 else 1.0)
    a = np.zeros(n)
    if groups is not None and lam > 0.0:
        g = np.asarray(groups)
        merits = merit(np.maximum(r_hat, 0.0))
        rows = group_rows(merits, g)
        if len(rows):
            # Dimensionless form: each group's share of the total exposure
            # budget divided by its share of total merit.
            share = (float(merits[g == 0].sum())
                     + float(merits[g == 1].sum())) / float(v.sum())
            a = share * rows[0]

    i, j = np.triu_indices(n, 1)
    cross = a[i] != a[j]
    knots = (w[i] - w[j])[cross] / (a[i] - a[j])[cross]
    inside = np.unique(knots[(knots > 0.0) & (knots < lam)])
    bounds = np.concatenate(([0.0], inside, [lam]))
    mids = (bounds[:-1] + bounds[1:]) / 2.0
    orders = np.argsort(mids[:, None] * a - w, axis=1, kind="stable")
    per_order = ranking_exposures(orders)
    utility = per_order @ w
    gap = per_order @ a

    fair = np.flatnonzero(gap <= 0.0)
    if len(fair) == 0:
        pick, weights, xi = [-1], [1.0], float(gap[-1])
    elif fair[0] == 0 or gap[fair[0]] == 0.0:
        pick, weights, xi = [fair[0]], [1.0], 0.0
    else:
        k = fair[0]
        theta = gap[k] / (gap[k] - gap[k - 1])
        pick, weights, xi = [k - 1, k], [theta, 1.0 - theta], 0.0
    weights = np.array(weights)
    return FairLPResult(orders=orders[pick], weights=weights, xi=xi,
                        objective=float(weights @ utility[pick]) - lam * xi,
                        exposures=weights @ per_order[pick])


def evaluate_exposures(exposures: np.ndarray, query: Query,
                       merit: MeritFunction | None = None
                       ) -> tuple[float, float]:
    """Expected NDCG and group disparity of an expected exposure vector
    under the query's true relevances.  The gains, the ideal DCG and the
    group row are the ones kept with the query."""
    ideal = ideal_dcg(query)
    score = float(gains(query) @ exposures) / ideal if ideal > 0.0 else 0.0
    disp = 0.0
    if query.groups is not None:
        group = DisparityConfig("group", merit or MeritFunction())
        disp = hinge_mean(group.query_rows(query), exposures)
    return score, disp


# ---------------------------------------------------------------------------
# Top-1 softmax baseline
# ---------------------------------------------------------------------------


def train_top1_baseline(dataset: Dataset, lam: float,
                        learning_rate: float = 0.01, epochs: int = 50,
                        seed: int = 0, max_grad_norm: float = 10.0) -> LinearModel:
    """Linear scorer trained so Softmax(scores) matches normalized relevance.

    Minimizes, per query, cross-entropy between the normalized relevance
    profile (uniform when all relevances are zero) and the softmax of the
    scores, plus ``lam`` times the squared between-group gap in mean
    softmax probability.  Plain SGD, one step per query, shuffled passes.
    Per-step gradients are norm-clipped so the largest penalty weights
    (up to 10**6 on the sweep grid) descend stably instead of oscillating.
    Each query's target profile and group weights are computed once,
    before the first pass.
    """
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    targets = [_top1_target(query.relevances) for query in dataset]
    pickers = [_group_picker(query.groups) if lam > 0.0 else None
               for query in dataset]
    rng = np.random.default_rng(seed)
    model = LinearModel(np.zeros(dataset.feature_dim), np.zeros(1))
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
            grad_w, grad_b = model.backprop(X, score_grad)
            norm = math.sqrt(float(np.square(grad_w).sum())
                             + float(np.square(grad_b).sum()))
            if norm > max_grad_norm:
                grad_w = grad_w * (max_grad_norm / norm)
                grad_b = grad_b * (max_grad_norm / norm)
            model.weights -= learning_rate * grad_w
            model.bias -= learning_rate * grad_b
    return model


def _top1_target(relevances: np.ndarray) -> np.ndarray:
    """Normalized relevance profile, uniform when every relevance is zero."""
    total = relevances.sum()
    if total > 0.0:
        return relevances / total
    return np.full(relevances.shape[0], 1.0 / relevances.shape[0])


def _group_picker(groups: np.ndarray | None) -> np.ndarray | None:
    """Weights whose product with top-1 probabilities is the mean
    probability of group 0 minus that of group 1; None unless both groups
    are present."""
    if groups is None or not ((groups == 0).any() and (groups == 1).any()):
        return None
    return np.where(groups == 0, 1.0 / (groups == 0).sum(),
                    -1.0 / (groups == 1).sum())


def top1_lambda_grid() -> list[float]:
    """Penalty weights spanning no constraint to overwhelming constraint."""
    return [0.0] + [10.0 ** k for k in range(7)]


def lp_lambda_grid(points: int = 11, upper: float = 0.2) -> list[float]:
    return [upper * k / (points - 1) for k in range(points)]
