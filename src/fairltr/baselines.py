"""Reference methods: LP post-processing and top-1 softmax.

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

from .data import Dataset, require_seed
from .fairness import MeritFunction, group_rows, ranking_exposures
from .metrics import gains, ideal_dcg, position_bias_vector
from .policy import LinearModel


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
    require_top1_settings(learning_rate, epochs)
    require_seed(seed)
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
            grad = model.backprop(X, score_grad)
            # Two sums, the weights' squares then the bias's: one sum over
            # the whole vector rounds differently and moves clipped steps.
            norm = math.sqrt(float(np.square(grad[:-1]).sum())
                             + float(np.square(grad[-1:]).sum()))
            if norm > max_grad_norm:
                grad = grad * (max_grad_norm / norm)
            model.params -= learning_rate * grad
    return model


def require_top1_settings(learning_rate: float, epochs: int) -> None:
    """Refuse a learning rate that is negative or not finite, and fewer than
    one epoch."""
    if not 0.0 <= learning_rate < np.inf:
        raise ValueError(
            f"learning rate must be finite and >= 0, got {learning_rate:g}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")


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
