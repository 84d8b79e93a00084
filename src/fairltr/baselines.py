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

Both take a penalty-weight grid as their unit of work, and neither
dispatches per query.  ``solve_fair_lp_grid`` solves a ``(Q, n)`` block of
equal-size queries at every weight in one array pass over the segments of
the largest weight, and ``train_top1_grid`` trains a block of one model per
weight in lockstep, from targets and group weights built once per run.
``solve_fair_lp`` and ``train_top1_baseline`` are their calls on one query
or at one weight, and each weight's result has the bits of that call.
"""
from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset, require_seed
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
                        learning_rate: float = 0.01, epochs: int = 50,
                        seed: int = 0) -> LinearModel:
    """Linear scorer trained so Softmax(scores) matches normalized relevance:
    ``train_top1_grid`` at the one penalty weight ``lam``."""
    block = train_top1_grid(dataset, [lam], learning_rate, epochs, seed)
    return block.with_params(block.params[0])


# The largest norm of a top-1 step's gradient; a larger one is scaled down
# to it.
_TOP1_MAX_GRAD_NORM = 10.0


def train_top1_grid(dataset: Dataset, lambdas: Sequence[float],
                    learning_rate: float = 0.01, epochs: int = 50,
                    seed: int = 0) -> LinearModel:
    """A ``(K, d + 1)`` block of linear scorers with a bias, member k
    trained with the penalty weight ``lambdas[k]``.

    Minimizes, per query, cross-entropy between the normalized relevance
    profile (uniform when all relevances are zero) and the softmax of the
    scores, plus ``lam`` times the squared between-group gap in mean
    softmax probability.  Plain SGD, one step per query, shuffled passes.
    Per-step gradients are norm-clipped so the largest penalty weights
    (up to 10**6 on the sweep grid) descend stably instead of oscillating.

    The members step together: the per-epoch permutation, the generator's
    only draw, is shared, and each step is one set of stacked products on
    the block.  Each stacked product is the one-member product of each
    member (a ``(K, 1, n) @ (n,)`` gap is the dot of each row, a
    ``(n, d) @ (K, d, 1)`` score the matrix-vector product of each), so
    member k's bits are those of training it alone.  Each run's target
    profiles and group weights are built once as ``(Q, n)`` arrays, and a
    step reads its query's rows of them and of the run's features; the
    clip is the factor ``max_norm / max(norm, max_norm)`` of each member,
    exactly 1.0 for one that is not clipped.  Raises ``ValueError`` before
    any step for a bad grid (``require_lambda_grid``) or bad settings.
    """
    two_lams = 2.0 * np.array(require_lambda_grid(lambdas))[:, None]
    require_top1_settings(learning_rate, epochs)
    require_seed(seed)
    K, d = len(two_lams), dataset.feature_dim
    params = np.zeros((K, d + 1))
    weights, bias = params[:, :d, None], params[:, d:]
    grad, squares, norm = np.empty_like(params), np.empty_like(params), np.empty(K)
    grad_weights, grad_bias, factor = grad[:, :d, None], grad[:, d], norm[:, None]
    squares_weights, squares_bias = squares[:, :d], squares[:, d]
    # The constants as arrays of their operands' shapes: numpy takes its
    # fast path for operands of one shape, not for scalars or broadcasts.
    max_norm, rate = np.full(K, _TOP1_MAX_GRAD_NORM), np.full_like(params, learning_rate)
    # The block's buffers for each query size, with the views its products
    # write through: probabilities, score gradients and the penalty's terms.
    buffers, steps = {}, []
    for run in dataset.runs:
        n = run.relevances.shape[1]
        if n not in buffers:
            probs, score_grad = np.empty((K, n)), np.empty((K, n))
            buffers[n] = (probs, probs[..., None], probs[:, None, :], score_grad,
                          score_grad[..., None], np.empty((K, 1)), np.empty((K, 1)),
                          np.empty((K, n)), np.empty((K, n)))
        targets, pickers = _top1_target(run.relevances), _group_picker(run.groups)
        for q, X in enumerate(run.features):
            picker = None if pickers is None or not pickers[q].any() else pickers[q]
            steps.append((X, X.T, np.tile(targets[q], (K, 1)), picker, buffers[n]))
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for qi in rng.permutation(len(steps)):
            X, XT, target, picker, views = steps[qi]
            p, p_column, p_row, score_grad, score_grad_column, gap, scaled, penalty, \
                spread = views
            np.matmul(X, weights, out=p_column)
            p += bias
            p -= np.maximum.reduce(p, axis=1, keepdims=True)
            np.exp(p, out=p)
            p /= np.add.reduce(p, axis=1, keepdims=True)
            np.subtract(p, target, out=score_grad)
            if picker is not None:
                np.matmul(p_row, picker, out=gap)
                # A zero weight adds zeros: p - target is never -0.0.
                np.multiply(two_lams, gap, out=scaled)
                np.multiply(scaled, p, out=penalty)
                np.subtract(picker, gap, out=spread)
                penalty *= spread
                score_grad += penalty
            np.matmul(XT, score_grad_column, out=grad_weights)
            np.add.reduce(score_grad, axis=1, out=grad_bias)
            # Two sums, the weights' squares then the bias's: one sum over
            # the whole vector rounds differently and moves clipped steps.
            np.square(grad, out=squares)
            np.add.reduce(squares_weights, axis=1, out=norm)
            norm += squares_bias
            np.sqrt(norm, out=norm)
            # The clip factor is exactly 1.0 for a member at or below the
            # largest norm, a zero gradient's included.
            np.maximum(norm, max_norm, out=norm)
            np.divide(max_norm, norm, out=norm)
            grad *= factor
            grad *= rate
            params -= grad
    return LinearModel(params[:, :d], bias)


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
