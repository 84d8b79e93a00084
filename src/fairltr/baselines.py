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
gap, whose constraint is the ``group_rows`` row scaled to shares.  The
top-1 baseline trains a linear scorer whose softmax matches the normalized
relevance profile, with a squared penalty on the between-group mean top-1
probability gap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .data import Dataset
from .fairness import MeritFunction, group_disparity, group_rows, hinge_mean, \
    individual_rows, ranking_exposures
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


def _exact_hinge(rows: np.ndarray, exposures: np.ndarray,
                 per_ranking: np.ndarray, probs: np.ndarray,
                 glogs: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact ``hinge_mean(rows, exposures)`` and its score gradient, summed
    over the enumerated rankings with hinge indicators from the exact
    exposures."""
    grad = np.zeros(exposures.shape[0])
    if len(rows):
        active = rows @ exposures > 0.0
        weights = rows[active].sum(axis=0) / len(rows)
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
# LP post-processing over doubly stochastic matrices
# ---------------------------------------------------------------------------


@dataclass
class DoublyStochasticMatrix:
    """A square matrix with unit row and column sums, entries in [0, 1].

    ``values[i, j]`` is the probability that document i sits at position
    j + 1.  Construction validates the marginals to 1e-6.
    """

    values: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.values, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {P.shape}")
        if P.min() < -1e-6 or P.max() > 1.0 + 1e-6:
            raise ValueError("matrix entries must lie in [0, 1]")
        if (np.abs(P.sum(axis=1) - 1.0).max() > 1e-6
                or np.abs(P.sum(axis=0) - 1.0).max() > 1e-6):
            raise ValueError("row and column sums must equal 1")
        self.values = np.clip(P, 0.0, 1.0)

    @property
    def num_docs(self) -> int:
        return self.values.shape[0]

    def exposures(self) -> np.ndarray:
        return self.values @ position_bias_vector(self.num_docs)


@dataclass
class FairLPResult:
    matrix: DoublyStochasticMatrix
    xi: float
    objective: float


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
    relevance.  Exact (vertex) solutions are expected up to about 20
    documents.
    """
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    r_hat = np.asarray(estimated_relevances, dtype=float)
    n = r_hat.shape[0]
    merit = merit or MeritFunction()

    u = gains(r_hat)
    v = position_bias_vector(n)
    scale = ideal_dcg(r_hat)
    if scale <= 0.0:
        scale = 1.0

    num_vars = n * n + 1  # P row-major, then xi
    c = np.zeros(num_vars)
    c[:n * n] = -np.outer(u / scale, v).ravel()
    c[-1] = lam

    A_eq = np.zeros((2 * n, num_vars))
    for i in range(n):
        A_eq[i, i * n:(i + 1) * n] = 1.0          # row sums
        A_eq[n + i, i::n][:n] = 1.0               # column sums
    b_eq = np.ones(2 * n)

    A_ub = None
    b_ub = None
    if groups is not None and lam > 0.0:
        g = np.asarray(groups)
        merits = merit(np.maximum(r_hat, 0.0))
        rows = group_rows(merits, g)
        if len(rows):
            # Dimensionless form: each group's share of the total exposure
            # budget divided by its share of total merit.
            # (share ratio of higher-merit group) - (other) <= xi
            share = (float(merits[g == 0].sum())
                     + float(merits[g == 1].sum())) / float(v.sum())
            A_ub = np.zeros((1, num_vars))
            A_ub[0, :n * n] = np.outer(share * rows[0], v).ravel()
            A_ub[0, -1] = -1.0
            b_ub = np.zeros(1)

    bounds = [(0.0, 1.0)] * (n * n) + [(0.0, None)]
    res = optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                           bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP solver failed: {res.message}")
    P = DoublyStochasticMatrix(res.x[:n * n].reshape(n, n))
    xi = float(res.x[-1]) if A_ub is not None else 0.0
    return FairLPResult(matrix=P, xi=xi, objective=float(-res.fun))


@dataclass
class MatrixEval:
    ndcg: float
    disparity: float


def evaluate_stochastic_matrix(matrix: DoublyStochasticMatrix,
                               relevances: np.ndarray,
                               groups: np.ndarray | None,
                               merit: MeritFunction | None = None) -> MatrixEval:
    """Expected NDCG and group disparity of a stochastic placement under the
    true relevances."""
    merit = merit or MeritFunction()
    rels = np.asarray(relevances, dtype=float)
    exposures = matrix.exposures()
    ideal = ideal_dcg(rels)
    expected_dcg = float(gains(rels) @ exposures)
    score = expected_dcg / ideal if ideal > 0.0 else 0.0
    disp = 0.0
    if groups is not None:
        disp = group_disparity(exposures, merit(rels), np.asarray(groups))
    return MatrixEval(ndcg=score, disparity=disp)


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
    """
    if lam < 0.0:
        raise ValueError("lam must be >= 0")
    rng = np.random.default_rng(seed)
    model = LinearModel(np.zeros(dataset.feature_dim), np.zeros(1))
    for _ in range(epochs):
        for qi in rng.permutation(len(dataset)):
            query = dataset.queries[qi]
            X = query.feature_matrix
            scores = model.scores(X)
            z = np.exp(scores - scores.max())
            p = z / z.sum()
            total = query.relevances.sum()
            target = (query.relevances / total if total > 0.0
                      else np.full(query.num_docs, 1.0 / query.num_docs))
            score_grad = p - target
            g = query.groups
            if lam > 0.0 and g is not None and (g == 0).any() and (g == 1).any():
                picker = np.where(g == 0, 1.0 / (g == 0).sum(),
                                  -1.0 / (g == 1).sum())
                gap = float(picker @ p)
                score_grad = score_grad + 2.0 * lam * gap * p * (picker - gap)
            grads = model.backprop(X, score_grad)
            norm = np.sqrt(sum(float(np.sum(np.square(a))) for a in grads))
            if norm > max_grad_norm:
                grads = [a * (max_grad_norm / norm) for a in grads]
            model.weights -= learning_rate * grads[0]
            model.bias -= learning_rate * grads[1]
    return model


def top1_lambda_grid() -> list[float]:
    """Penalty weights spanning no constraint to overwhelming constraint."""
    return [0.0] + [10.0 ** k for k in range(7)]


def lp_lambda_grid(points: int = 11, upper: float = 0.2) -> list[float]:
    return [upper * k / (points - 1) for k in range(points)]
