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

Both take a penalty-weight grid as their unit of work.
``solve_fair_lp_grid`` solves a query at every weight from the segments of
the largest one, and ``train_top1_grid`` trains a block of one model per
weight in lockstep.  ``solve_fair_lp`` and ``train_top1_baseline`` are
their calls at one weight, and each weight's result has the bits of that
call.
"""
from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset, require_seed
from .fairness import MeritFunction, group_rows, ranking_exposures
from .metrics import _best_dcg, gains, position_bias_vector
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
    X = np.vstack([q.feature_matrix for q in dataset])
    y = np.concatenate([q.relevances for q in dataset])
    X = np.hstack([X, np.ones((X.shape[0], 1))])
    reg = np.full(X.shape[1], _RIDGE)
    reg[-1] = 0.0
    coef = np.linalg.solve(X.T @ X + np.diag(reg), X.T @ y)
    return LinearModel(coef[:-1], coef[-1:])


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
    """Best doubly stochastic ranking under a group-exposure slack penalty:
    ``solve_fair_lp_grid`` at the one penalty weight ``lam``.

    Maximizes expected DCG of the estimated relevances (normalized by the
    ideal DCG) minus ``lam`` times a slack ``xi >= 0`` bounding how far the
    higher estimated-merit group's exposure share per merit share exceeds
    the other group's.  Both objective terms are dimensionless, so the same
    ``lam`` grid is meaningful across queries.  With ``lam = 0`` or no
    usable groups the optimum is the permutation sorting by estimated
    relevance.
    """
    return solve_fair_lp_grid(estimated_relevances, groups, [lam], merit)[0]


def solve_fair_lp_grid(estimated_relevances: np.ndarray, groups: np.ndarray | None,
                       lambdas: Sequence[float],
                       merit: MeritFunction | None = None
                       ) -> list[FairLPResult] | list[list[FairLPResult]]:
    """The fair LP of one query at each penalty weight of ``lambdas``, in
    their order; the weights may be unsorted or repeated.

    ``estimated_relevances`` may also be a ``(Q, n)`` block of Q queries'
    estimates, with ``(Q, n)`` groups: the result is then the list of each
    query's list, each with the bits of a call on that query alone.  A
    block builds its group rows in one ``group_rows`` call, one query being
    the block of one.

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

    The segments of a weight are the first ones of the largest weight's,
    so the knots, orderings and ranking exposures are found once, for the
    largest weight, and each ``lam > 0`` reads the first ``k`` of them,
    ``k - 1`` being the number of knots below ``lam``.  ``lam = 0``, and
    every weight of a query without a usable group row, take the sort by
    ``w`` alone.  Raises ``ValueError`` before any solve for a weight that
    is negative or not finite, an empty grid, or non-finite estimates.
    """
    lambdas = require_lambda_grid(lambdas)
    r_hat = np.asarray(estimated_relevances, dtype=float)
    if not np.isfinite(r_hat).all():
        raise ValueError("estimated relevances must be finite")
    block = r_hat.reshape(-1, r_hat.shape[-1])
    rows = _lp_constraint_rows(block, None if groups is None else
                               np.asarray(groups).reshape(block.shape),
                               merit or MeritFunction())
    solved = [_solve_query(estimates, a, lambdas) for estimates, a in zip(block, rows)]
    return solved if r_hat.ndim == 2 else solved[0]


def _solve_query(r_hat: np.ndarray, a: np.ndarray | None,
                 lambdas: list[float]) -> list[FairLPResult]:
    """``solve_fair_lp_grid`` of one query's estimates and scaled group row
    ``a``, None without a usable one."""
    n = r_hat.shape[0]
    g = gains(r_hat)
    scale = _best_dcg(g, n)
    w = g / (scale if scale > 0.0 else 1.0)
    top = max(lambdas)
    solved = {}
    if 0.0 in lambdas or a is None:
        # The sort by w is the one segment of a zero constraint row.
        orders = np.argsort(0.0 - w, kind="stable")[None]
        solved[0.0] = _lp_optimum(orders, ranking_exposures(orders), w,
                                  np.zeros(n), 0.0)
    if a is not None and top > 0.0:
        i, j = _pair_indices(n)
        cross = a[i] != a[j]
        knots = (w[i] - w[j])[cross] / (a[i] - a[j])[cross]
        # The distinct knots inside (0, top), sorted: np.unique's values,
        # without the numpy.ma import that np.unique makes.
        inside = np.sort(knots[(knots > 0.0) & (knots < top)])
        distinct = np.ones(len(inside), dtype=bool)
        distinct[1:] = inside[1:] != inside[:-1]
        inside = inside[distinct]
        bounds = np.concatenate(([0.0], inside, [top]))
        mids = (bounds[:-1] + bounds[1:]) / 2.0
        orders = np.argsort(mids[:, None] * a - w, axis=1, kind="stable")
        per_order = ranking_exposures(orders)
        for lam in set(lambdas) - {0.0}:
            k = int(np.searchsorted(inside, lam)) + 1
            solved[lam] = _lp_optimum(orders[:k], per_order[:k], w, a, lam)
    return [solved[lam if a is not None else 0.0] for lam in lambdas]


def _lp_constraint_rows(r_hat: np.ndarray, groups: np.ndarray | None,
                        merit: MeritFunction) -> list[np.ndarray | None]:
    """The LP's group row of each query of a ``(Q, n)`` block scaled to
    shares, or None for a query without a usable one; the rows come from
    one ``group_rows`` call."""
    if groups is None:
        return [None] * len(r_hat)
    merits = merit(np.maximum(r_hat, 0.0))
    budget = float(position_bias_vector(r_hat.shape[1]).sum())
    scaled = []
    for m, g, rows in zip(merits, groups, group_rows(merits, groups)):
        # Dimensionless form: each group's share of the total exposure
        # budget divided by its share of total merit.
        scaled.append((float(m[g == 0].sum()) + float(m[g == 1].sum())) / budget
                      * rows[0] if len(rows) else None)
    return scaled


@functools.lru_cache(maxsize=None)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, built once per length and read-only."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _lp_optimum(orders: np.ndarray, per_order: np.ndarray, w: np.ndarray,
                a: np.ndarray, lam: float) -> FairLPResult:
    """The optimum from the orderings of the segments of ``[0, lam]`` and
    their ranking exposures: the first fair ordering, the last one with a
    slack when none is fair, or the mixture meeting the constraint."""
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
    member (a ``(K, 1, n) @ (n, 1)`` gap is the dot of each row, a
    ``(n, d) @ (K, d, 1)`` score the matrix-vector product of each), so
    member k's bits are those of training it alone.  Each query's
    features, target profile and group weights are found once.  Raises
    ``ValueError`` before any step for a bad grid (``require_lambda_grid``)
    or bad settings.
    """
    two_lams = 2.0 * np.array(require_lambda_grid(lambdas))[:, None]
    require_top1_settings(learning_rate, epochs)
    require_seed(seed)
    K, d = len(two_lams), dataset.feature_dim
    params = np.zeros((K, d + 1))
    weights, bias = params[:, :d, None], params[:, d:]
    grad, squares = np.empty_like(params), np.empty_like(params)
    grad_weights, grad_bias = grad[:, :d, None], grad[:, d]
    # Probabilities and score gradients of the block, one pair of buffers
    # per query size, each with the views its products write through.
    buffers = {}
    for n in {len(query) for query in dataset}:
        probs, score_grad = np.empty((K, n)), np.empty((K, n))
        buffers[n] = (probs, probs[..., None], probs[:, None, :],
                      score_grad, score_grad[..., None])
    steps = []
    for query in dataset:
        picker = _group_picker(query.groups)
        steps.append((query.feature_matrix, query.feature_matrix.T,
                      _top1_target(query.relevances), picker,
                      None if picker is None else picker[:, None],
                      buffers[len(query)]))
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for qi in rng.permutation(len(dataset)):
            X, XT, target, picker, picker_column, views = steps[qi]
            p, p_column, p_row, score_grad, score_grad_column = views
            np.matmul(X, weights, out=p_column)
            p += bias
            p -= np.maximum.reduce(p, axis=1, keepdims=True)
            np.exp(p, out=p)
            p /= np.add.reduce(p, axis=1, keepdims=True)
            np.subtract(p, target, out=score_grad)
            if picker is not None:
                gap = np.matmul(p_row, picker_column)[:, 0]
                # A zero weight adds zeros: p - target is never -0.0.
                penalty = two_lams * gap * p
                penalty *= picker - gap
                score_grad += penalty
            np.matmul(XT, score_grad_column, out=grad_weights)
            np.add.reduce(score_grad, axis=1, out=grad_bias)
            # Two sums, the weights' squares then the bias's: one sum over
            # the whole vector rounds differently and moves clipped steps.
            np.square(grad, out=squares)
            norm = np.add.reduce(squares[:, :d], axis=1)
            norm += squares[:, d]
            np.sqrt(norm, out=norm)
            if np.maximum.reduce(norm) > _TOP1_MAX_GRAD_NORM:
                clipped = norm > _TOP1_MAX_GRAD_NORM
                grad[clipped] *= (_TOP1_MAX_GRAD_NORM / norm[clipped])[:, None]
            grad *= learning_rate
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


_LP_GRID_POINTS, _LP_GRID_UPPER = 11, 0.2


def lp_lambda_grid() -> list[float]:
    """``_LP_GRID_POINTS`` evenly spaced penalty weights from 0 to
    ``_LP_GRID_UPPER``: the LP's slack weights, in units of normalized DCG
    per unit of slack."""
    return [_LP_GRID_UPPER * k / (_LP_GRID_POINTS - 1)
            for k in range(_LP_GRID_POINTS)]
