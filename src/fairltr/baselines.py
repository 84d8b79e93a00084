"""Reference methods: LP post-processing and top-1 softmax.

The LP baseline estimates relevance with a pooled linear regression, then
solves, per query, a linear program over doubly stochastic matrices that
trades expected DCG against a slack on the between-group per-merit exposure
gap, whose constraint is the ``group_rows`` row scaled to shares.  Its
objective has rank one and it has a single side constraint, so it is solved
in closed form by sorting: the optimum is one ranking or a mixture of two,
and ``FairLPResult`` holds them with their weights and expected exposures
instead of a matrix.  The top-1 baseline, in the manner of DELTR, trains
a linear scorer whose softmax matches the normalized relevance profile,
with a squared penalty on the between-group mean top-1 probability gap, by
full-batch gradient descent with a backtracking step.

Both take a penalty-weight grid as their unit of work, and neither
dispatches per query.  ``solve_fair_lp_grid`` solves a ``(Q, n)`` block of
equal-size queries at every weight in one array pass over the segments of
the largest weight, and ``train_top1_grid`` trains a block of one model per
weight, each epoch one step on the loss summed over all queries, valued by
one stacked pass per run of equal-size queries.
``solve_fair_lp`` and ``train_top1_baseline`` are their calls on one query
or at one weight, and each weight's result has the bits of that call.
"""
from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .fairness import MeritFunction, group_rows, ranking_exposures
from .metrics import gains, ideal_dcg, position_bias_vector
from .policy import LinearModel


# ---------------------------------------------------------------------------
# Relevance regression
# ---------------------------------------------------------------------------


# The weight of the ridge term on the regression's weights (never its bias).
_RIDGE = 1e-6


def fit_linear_regression(dataset: Dataset) -> LinearModel:
    """Pooled least-squares fit of relevance on features, with a bias.

    A fixed tiny ridge term on the weights (never the bias) keeps the
    normal equations solvable for collinear features.
    """
    X = np.hstack([dataset.features, np.ones((dataset.num_docs, 1))])
    y = dataset.relevances
    reg = np.full(X.shape[1], _RIDGE)
    reg[-1] = 0.0
    coef = np.linalg.solve(X.T @ X + np.diag(reg), X.T @ y)
    return LinearModel(coef[:-1], coef[-1:])


# ---------------------------------------------------------------------------
# LP post-processing, solved in closed form
# ---------------------------------------------------------------------------


@dataclass
class FairLPResult:
    """Optima of the fair LP, each a mixture of two rankings.

    Every field has leading ``(L, Q)`` axes, one penalty weight by one
    query of a ``solve_fair_lp_grid`` block, and none for
    ``solve_fair_lp``.  ``orders[..., k, :]`` is played with probability
    ``weights[..., k]``, a lone ranking padded with a weight-0 copy of
    itself; ``xi`` is the slack, ``objective`` the LP value and
    ``exposures`` the mixture's expected exposure per document.
    """

    orders: np.ndarray
    weights: np.ndarray
    xi: np.ndarray
    objective: np.ndarray
    exposures: np.ndarray


def solve_fair_lp(estimated_relevances: np.ndarray, groups: np.ndarray | None,
                  lam: float,
                  merit: MeritFunction | None = None) -> FairLPResult:
    """Best doubly stochastic ranking of one query under a group-exposure
    slack penalty: ``solve_fair_lp_grid`` of the block of one query at the
    one penalty weight ``lam``.

    Maximizes expected DCG of the estimated relevances (normalized by the
    ideal DCG) minus ``lam`` times a slack ``xi >= 0`` bounding how far the
    higher estimated-merit group's exposure share per merit share exceeds
    the other group's.  Both objective terms are dimensionless, so the same
    ``lam`` grid is meaningful across queries.  With ``lam = 0`` or no
    usable groups the optimum is the permutation sorting by estimated
    relevance.
    """
    block = solve_fair_lp_grid(np.asarray(estimated_relevances, dtype=float)[None],
                               groups if groups is None else np.asarray(groups)[None], [lam], merit)
    return FairLPResult(*(value[0, 0] for value in vars(block).values()))


# The most entries of one ``(Q, segments, n)`` array of a block's solve; a
# larger block is solved in parts of whole queries.
_LP_PART_ENTRIES = 1 << 20


def solve_fair_lp_grid(estimated_relevances: np.ndarray, groups: np.ndarray | None,
                       lambdas: Sequence[float],
                       merit: MeritFunction | None = None) -> FairLPResult:
    """The fair LP of each query of a ``(Q, n)`` block of estimates, with
    ``(Q, n)`` groups or None, at each penalty weight of ``lambdas``: one
    result whose fields have leading ``(L, Q)`` axes, the weights in their
    order; they may be unsorted or repeated.

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
    exactly.  A query without a usable group row has a zero row, whose one
    segment is the sort by ``w`` at every weight.

    The segments of a weight are the first ones of the largest weight's,
    so the block is one array pass: every pair's knot, the distinct ones
    inside ``(0, top)`` sorted first and the rest ``+inf``; each query's
    bounds padded with ``top`` to ``n (n - 1) / 2 + 1`` segments; one
    stable sort of the keys at the midpoints, the sort by ``w`` (``lam =
    0``) in front, and one ``ranking_exposures`` call.  A weight ``lam >
    0`` reads the first ``k`` segments of each query, ``k - 1`` being its
    number of knots below ``lam``.  A block whose arrays would hold more
    than ``_LP_PART_ENTRIES`` entries is solved in parts of whole queries,
    with the same bits.  Raises ``ValueError`` before any solve for a
    weight that is negative or not finite, an empty grid, or non-finite
    estimates.
    """
    lambdas = require_lambda_grid(lambdas)
    r_hat = np.asarray(estimated_relevances, dtype=float)
    if not np.isfinite(r_hat).all():
        raise ValueError("estimated relevances must be finite")
    (Q, n), groups = r_hat.shape, None if groups is None else np.asarray(groups)
    per_part = max(1, _LP_PART_ENTRIES // ((n * (n - 1) // 2 + 2) * n))
    if Q > per_part:
        parts = [vars(solve_fair_lp_grid(r_hat[s:s + per_part], groups if groups is None
                                         else groups[s:s + per_part], lambdas, merit))
                 for s in range(0, Q, per_part)]
        return FairLPResult(**{key: np.concatenate([part[key] for part in parts], axis=1)
                               for key in parts[0]})
    a = _lp_constraint_rows(r_hat, groups, merit or MeritFunction())
    scale = ideal_dcg(r_hat)
    w = gains(r_hat) / np.where(scale > 0.0, scale, 1.0)[:, None]
    top = max(lambdas)
    i, j = _pair_indices(n)
    cross = a[:, i] != a[:, j]
    knots = (w[:, i] - w[:, j]) / np.where(cross, a[:, i] - a[:, j], 1.0)
    knots = np.sort(np.where(cross & (knots > 0.0) & (knots < top), knots, np.inf))
    knots[:, 1:][knots[:, 1:] == knots[:, :-1]] = np.inf
    knots.sort()
    zero = np.zeros((Q, 1))
    bounds = np.hstack((zero, zero, np.minimum(knots, top), zero + top))
    mids = (bounds[:, :-1] + bounds[:, 1:]) / 2.0
    orders = np.argsort(mids[..., None] * a[:, None] - w[:, None], kind="stable")
    per_order = ranking_exposures(orders)
    gap = np.matmul(per_order, a[..., None])[..., 0]
    # Row 0, the sort by w, is lam = 0's one segment, under a zero row; a
    # weight lam > 0 has the segments from row 1 to row last.
    gap[:, 0] = 0.0
    lams = np.array(lambdas)[:, None]
    low = (lams > 0.0).astype(np.intp)
    last = (knots < lams[..., None]).sum(axis=-1) + low
    rows = np.arange(gap.shape[1])
    fair = (rows >= low[..., None]) & (rows <= last[..., None]) & (gap <= 0.0)
    found = fair.any(axis=-1)
    first = np.where(found, fair.argmax(axis=-1), last)
    query = np.arange(Q)
    at, before = gap[query, first], gap[query, first - 1]
    mixed = found & (first > low) & (at != 0.0)
    theta = np.divide(at, at - before, out=np.ones_like(at), where=mixed)
    pick = (query[:, None], np.stack((first - mixed, first), axis=-1))
    weights = np.stack((theta, 1.0 - theta), axis=-1)
    xi = np.where(found, 0.0, at)
    exposures = np.matmul(weights[..., None, :], per_order[pick])[..., 0, :]
    objective = np.matmul(exposures[..., None, :], w[..., None])[..., 0, 0] - lams * xi
    return FairLPResult(orders=orders[pick], weights=weights, xi=xi,
                        objective=objective, exposures=exposures)


def _lp_constraint_rows(r_hat: np.ndarray, groups: np.ndarray | None,
                        merit: MeritFunction) -> np.ndarray:
    """The LP's group row of each query of a ``(Q, n)`` block scaled to
    shares, a zero row for a query without a usable one, from one
    ``group_rows`` call."""
    if groups is None:
        return np.zeros(r_hat.shape)
    merits = merit(np.maximum(r_hat, 0.0))
    budget = float(position_bias_vector(r_hat.shape[1]).sum())
    # Dimensionless form: each group's share of the total exposure budget
    # divided by its share of total merit.
    return merits.sum(axis=-1, keepdims=True) / budget * group_rows(merits, groups)


@functools.lru_cache(maxsize=None)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, built once per length and read-only."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def require_lambda_grid(lambdas: Sequence[float]) -> list[float]:
    """The penalty weights as floats; refuses an empty grid and names the
    first weight that is negative or not finite."""
    lambdas = [float(lam) for lam in lambdas]
    if not lambdas:
        raise ValueError("the penalty weight grid is empty")
    for lam in lambdas:
        if not 0.0 <= lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {lam:g}")
    return lambdas


# ---------------------------------------------------------------------------
# Top-1 softmax baseline
# ---------------------------------------------------------------------------


def train_top1_baseline(dataset: Dataset, lam: float,
                        learning_rate: float = 0.01, epochs: int = 50) -> LinearModel:
    """Linear scorer trained so Softmax(scores) matches normalized relevance:
    ``train_top1_grid`` at the one penalty weight ``lam``."""
    block = train_top1_grid(dataset, [lam], learning_rate, epochs)
    return block.with_params(block.params[0])


def train_top1_grid(dataset: Dataset, lambdas: Sequence[float],
                    learning_rate: float = 0.01, epochs: int = 50) -> LinearModel:
    """A ``(K, d)`` block of linear scorers without a bias, member k
    trained with the penalty weight ``lambdas[k]``.

    Minimizes ``top1_objective`` by gradient descent from the zero model,
    one step per epoch on the loss summed over all queries.  Each step
    starts at ``learning_rate`` and is halved until the Armijo condition
    ``loss(w - t g) <= loss(w) - t |g|^2 / 2`` holds; a step too small to
    move the weights is taken as it is, so every epoch ends.  The softmax
    is shift-invariant, so a bias would have a zero gradient.

    Each member backtracks on its own step, and every product and sum of a
    pass is one member's own, so member k has the bits of training it
    alone.  Raises ``ValueError`` before any step for a bad grid
    (``require_lambda_grid``) or bad settings.
    """
    lams = np.array(require_lambda_grid(lambdas))
    require_top1_settings(learning_rate, epochs)
    terms = _top1_terms(dataset)
    weights = np.zeros((len(lams), dataset.feature_dim))
    loss, grad = _top1_loss_grad(terms, weights, lams)
    for _ in range(epochs):
        step, squares = np.full(len(lams), learning_rate), np.square(grad).sum(axis=1)
        todo = np.arange(len(lams))
        while todo.size:
            trial = weights[todo] - step[todo, None] * grad[todo]
            trial_loss, trial_grad = _top1_loss_grad(terms, trial, lams[todo])
            done = ((trial_loss <= loss[todo] - 0.5 * step[todo] * squares[todo])
                    | (trial == weights[todo]).all(axis=1))
            taken = todo[done]
            weights[taken], loss[taken] = trial[done], trial_loss[done]
            grad[taken] = trial_grad[done]
            todo = todo[~done]
            step[todo] /= 2.0
    return LinearModel(weights)


def top1_objective(dataset: Dataset, weights: np.ndarray,
                   lambdas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The top-1 loss of each ``(K, d)`` member at ``lambdas[k]``, summed
    over the queries, and its ``(K, d)`` gradient.

    A query's loss is the cross-entropy between its normalized relevance
    profile (uniform when all relevances are zero) and the softmax of its
    scores, plus ``lam`` times the squared gap between the groups' mean
    softmax probability (zero for a query without both groups)."""
    return _top1_loss_grad(_top1_terms(dataset), np.asarray(weights, dtype=float),
                           np.array(require_lambda_grid(lambdas)))


def _top1_terms(dataset: Dataset) -> list:
    """Per run, the ``(Q n, d)`` features, ``(Q, n)`` target profiles and
    group weights (``_group_picker``)."""
    return [(run.features.reshape(-1, dataset.feature_dim), _top1_target(run.relevances),
             _group_picker(run.groups)) for run in dataset.runs]


def _top1_loss_grad(terms: list, weights: np.ndarray,
                    lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``top1_objective`` from ``_top1_terms``: one stacked pass per run,
    ``(Q n, d) @ (K, d, 1)`` scores and ``(d, Q n) @ (K, Q n, 1)``
    gradients, with each reduction along one member's own row."""
    K = len(weights)
    loss, grad = np.zeros(K), np.zeros_like(weights)
    for X, target, picker in terms:
        scores = np.matmul(X, weights[..., None]).reshape(K, *target.shape)
        scores -= scores.max(axis=-1, keepdims=True)
        p = np.exp(scores)
        total = p.sum(axis=-1, keepdims=True)
        log_p = scores - np.log(total)
        p /= total
        score_grad = p - target
        run_loss = -(target * log_p).reshape(K, -1).sum(axis=-1)
        if picker is not None:
            gap = (p * picker).sum(axis=-1, keepdims=True)
            run_loss += lams * np.square(gap).reshape(K, -1).sum(axis=-1)
            score_grad += 2.0 * lams[:, None, None] * gap * p * (picker - gap)
        loss += run_loss
        grad += np.matmul(X.T, score_grad.reshape(K, -1, 1))[..., 0]
    return loss, grad


def require_top1_settings(learning_rate: float, epochs: int) -> None:
    """Refuse a learning rate that is negative or not finite, and fewer than
    one epoch."""
    if not 0.0 <= learning_rate < np.inf:
        raise ValueError(
            f"learning rate must be finite and >= 0, got {learning_rate:g}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")


def _top1_target(relevances: np.ndarray) -> np.ndarray:
    """Normalized relevance profile of each ``(..., n)`` relevance vector,
    uniform when every relevance is zero."""
    total = relevances.sum(axis=-1, keepdims=True)
    return np.divide(relevances, total, where=total > 0.0,
                     out=np.full(relevances.shape, 1.0 / relevances.shape[-1]))


def _group_picker(groups: np.ndarray | None) -> np.ndarray | None:
    """Weights whose product with top-1 probabilities is the mean
    probability of group 0 minus that of group 1, of each ``(..., n)``
    group vector: zero for a vector without both groups, and None when no
    vector has both."""
    if groups is None:
        return None
    in0 = groups == 0
    n0, n1 = in0.sum(axis=-1, keepdims=True), (~in0).sum(axis=-1, keepdims=True)
    both = (n0 > 0) & (n1 > 0)
    picker = np.where(in0, 1.0 / np.maximum(n0, 1), -1.0 / np.maximum(n1, 1))
    return np.where(both, picker, 0.0) if both.any() else None


def top1_lambda_grid() -> list[float]:
    """Penalty weights spanning no constraint to overwhelming constraint."""
    return [0.0] + [10.0 ** k for k in range(7)]


_LP_GRID_POINTS, _LP_GRID_UPPER = 11, 0.2


def lp_lambda_grid() -> list[float]:
    """``_LP_GRID_POINTS`` evenly spaced penalty weights from 0 to
    ``_LP_GRID_UPPER``: the LP's slack weights, in units of normalized DCG
    per unit of slack."""
    return [_LP_GRID_UPPER * k / (_LP_GRID_POINTS - 1)
            for k in range(_LP_GRID_POINTS)]
