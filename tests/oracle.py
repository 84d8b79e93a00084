"""Exact references and equality checks for the tests.

``enumerate_policy_expectations`` sums over every one of the n! rankings
to give the expected utility, exposures, disparities and their exact
score-space gradients of the Plackett-Luce policy at one score vector.
The library computes exact expectations with the DP over placed subsets
(``policy.placement_flows``); this brute-force sum is what the tests check
that DP, and the Monte-Carlo estimators, against.  Both disparities come
from the hinge rows of ``fairness.individual_rows`` and
``fairness.group_rows``, with the hinge indicators taken from the exact
exposures.  ``expected_utility`` is the exact expected metric from the same
DP, in O(2^n n), which the tests check against both.

``ranking_logprobs`` gives each ranking's log-probability, and
``logprob_grad_rows`` is the stage-by-stage score gradient of each
ranking's log-probability, the per-ranking reference of the library's
weighted sum of those gradients.

The package builds the metric constants and the hinge rows of a run of
equal-size queries in one vectorized pass.  ``query_gains``,
``query_ideal_dcg``, ``query_group_row``, ``query_pairs`` and
``query_disparity`` are the one-query references they are checked
against, written as plain loops or per-query formulas.
``hinge_weights`` is the exposure gradient of one query's hinge rows of
either kind, written pair by pair for pair rows; the package forms it for
pair rows only (its trainer values a group row at each sampled ranking
directly).  ``_exact_hinge`` sums it over the enumerated rankings.

``dataset_of`` builds a dataset from per-query arrays through the
package's one constructor.  ``datasets_equal`` and ``models_equal``
compare datasets and models bit for bit, for the round-trip and
determinism tests; ``param_arrays`` gives a model's named parameter
arrays, the views of its one vector.  ``model_of`` makes a model of each
parameter layout, a linear model with a bias among them.

``solve_fair_lp_query`` is the per-query reference of the package's block
solve of the fair LP (``baselines.solve_fair_lp_grid``): one query's
segments found by sorting its distinct knots, and each weight's optimum
picked from its first segments with plain control flow.

``top1_query_objective`` and ``train_top1_query`` are the per-query
references of the top-1 baseline (``baselines.top1_objective`` and
``baselines.train_top1_grid``): the summed loss and its gradient written
one query at a time from its relevances and group labels, and the same
backtracking descent with plain control flow.

``parse_letor_lines`` is the reference LETOR parser: it reads one line at a
time and checks each rule with plain Python (``letor_line_error``), which
the tests check the package's vectorized parser against.
"""
from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from fairltr.data import Dataset, ParseError, Query
from fairltr.fairness import DisparityConfig, group_rows, individual_rows, \
    ranking_exposures
from fairltr.metrics import UtilityMetric, gains, ideal_dcg, position_bias_vector
from fairltr.policy import SCORE_CLAMP, LinearModel, ScoringModel, _stage_weights, \
    _subset_layout, init_model, placement_flows, position_marginals
from fairltr.ranking import Ranking

# Largest candidate count that the oracle enumerates n! rankings of, and
# that its exact expectations take.
ENUMERATION_LIMIT = 7


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
    glogs = logprob_grad_rows(s, orders)
    per_ranking = ranking_exposures(orders)

    deltas = metric.batch_values(orders, metric.constants(rels))
    stats = ExactPolicyStats(
        utility=float(probs @ deltas),
        utility_grad=(probs * deltas) @ glogs,
        exposures=probs @ per_ranking,
    )

    hinge = (stats.exposures, per_ranking, probs, glogs)
    if merits is not None:
        stats.individual_disparity, stats.individual_grad = _exact_hinge(
            "individual", individual_rows(merits), *hinge)
    if groups is not None:
        if merits is None:
            raise ValueError("group disparity needs merits")
        stats.group_disparity, stats.group_grad = _exact_hinge(
            "group", (group_rows(merits, groups),), *hinge)
    return stats


def query_gains(rels: np.ndarray) -> np.ndarray:
    """The gains ``2**rel - 1`` of one query."""
    return np.array([2.0 ** rel - 1.0 for rel in rels])


def query_ideal_dcg(rels: np.ndarray, k: int) -> float:
    """DCG at ``k`` of one query's gains sorted best first."""
    top = sorted(query_gains(rels), reverse=True)[:k]
    return float(sum(gain / math.log2(2.0 + j) for j, gain in enumerate(top)))


def query_group_row(merits: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """One query's group hinge row from its group totals: zero when a group
    is absent, has no merit, or the mean merits tie."""
    in0, in1 = groups == 0, groups == 1
    n0, n1 = int(in0.sum()), int(in1.sum())
    m0, m1 = float(merits[in0].sum()), float(merits[in1].sum())
    if n0 == 0 or n1 == 0 or m0 <= 0.0 or m1 <= 0.0 or m0 / n0 == m1 / n1:
        return np.zeros(len(merits))
    return float(np.sign(m0 / n0 - m1 / n1)) * (in0 / m0 - in1 / m1)


def query_pairs(merits: np.ndarray) -> list[tuple[int, int]]:
    """One query's ordered pairs (i, j), i != j, with m_i >= m_j > 0."""
    return [(i, j) for i in range(len(merits)) for j in range(len(merits))
            if i != j and merits[i] >= merits[j] > 0.0]


def query_disparity(kind: str, merits: np.ndarray, groups: np.ndarray | None,
                    exposures: np.ndarray) -> float:
    """The disparity of one query at one exposure vector, from its group
    row or its pairs: the mean of the positive parts of the gaps, 0
    without rows."""
    if kind == "group":
        if groups is None:
            return 0.0
        return max(0.0, float(query_group_row(merits, groups) @ exposures))
    gaps = [exposures[i] / merits[i] - exposures[j] / merits[j]
            for i, j in query_pairs(merits)]
    return float(np.mean(np.maximum(gaps, 0.0))) if gaps else 0.0


def hinge_weights(kind: str, rows: tuple[np.ndarray, ...],
                  exposures: np.ndarray) -> np.ndarray:
    """The gradient of one query's disparity of ``kind`` wrt the exposures,
    with each hinge indicator taken at the ``(n,)`` ``exposures``: the
    active rows summed, over the number of rows.  ``rows`` is the query's
    row of ``DisparityConfig.rows``; pair rows are summed pair by pair."""
    e = np.asarray(exposures, dtype=float)
    if kind == "group":
        (row,) = rows
        return row if row @ e > 0.0 else np.zeros(len(e))
    mask, inv_merit = rows
    grad = np.zeros(len(e))
    pairs = list(zip(*np.nonzero(mask)))
    for i, j in pairs:
        if e[i] * inv_merit[i] - e[j] * inv_merit[j] > 0.0:
            grad[i] += inv_merit[i]
            grad[j] -= inv_merit[j]
    return grad / max(len(pairs), 1)


def _exact_hinge(kind: str, rows: tuple[np.ndarray, ...], exposures: np.ndarray,
                 per_ranking: np.ndarray, probs: np.ndarray,
                 glogs: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact disparity of ``kind`` under one query's ``rows`` and its score
    gradient, summed over the enumerated rankings with hinge indicators
    from the exact exposures."""
    weights = hinge_weights(kind, rows, exposures)
    return (float(DisparityConfig(kind).from_exposures(exposures, rows)),
            (probs * (per_ranking @ weights)) @ glogs)


def ranking_logprobs(scores: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Log-probability of each ranking in a batch of shape ``(size, n)``, or
    of one ranking ``(n,)``; rows are not validated."""
    orders = np.asarray(orders)
    _, w, remaining, _ = _stage_weights(scores, orders.reshape(-1, orders.shape[-1]))
    return np.log(w / remaining).sum(axis=-1).reshape(orders.shape[:-1])


def logprob_grad_rows(scores: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """The score gradient of each ranking's log-probability at one score
    vector, one row per ranking of a ``(..., n)`` batch, written stage by
    stage: stage i adds 1 at the document it places and subtracts the
    softmax over the documents not yet placed.  The per-ranking reference
    that the library's weighted sum (``policy.logprob_grads_scores``) is
    checked against; it shares no code with it."""
    s = np.clip(np.asarray(scores, dtype=float), -SCORE_CLAMP, SCORE_CLAMP)
    orders = np.asarray(orders, dtype=np.intp)
    flat = orders.reshape(-1, orders.shape[-1])
    rows = np.zeros(flat.shape)
    every = np.arange(len(flat))
    for i in range(flat.shape[1]):
        rest = flat[:, i:]
        weights = np.exp(s[rest] - s[rest].max(axis=1, keepdims=True))
        rows[every, flat[:, i]] += 1.0
        rows[every[:, None], rest] -= weights / weights.sum(axis=1, keepdims=True)
    return rows.reshape(orders.shape)


def expected_utility(scores: np.ndarray, relevances: np.ndarray,
                     metric: UtilityMetric) -> float:
    """Exact expected metric value of the Plackett-Luce policy at ``scores``.

    It draws no random numbers.  It comes from the DP over placed subsets
    (``policy.placement_flows``) in O(2^n n): dcg and ndcg as
    ``gains @ M @ discounts`` and avgrank as
    ``rels @ M @ positions / rels.sum()`` over the position marginals ``M``,
    and ERR from the flows themselves.  It is refused above
    ``ENUMERATION_LIMIT`` candidates.
    """
    rels = np.asarray(relevances, dtype=float)
    n = rels.shape[0]
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"exact expectation limited to {ENUMERATION_LIMIT} docs, got {n}")
    if metric.kind == "err":
        return _expected_err(scores, rels, metric.err_max_grade)
    marginals = position_marginals(scores)
    if metric.kind == "avgrank":
        total = rels.sum()
        if total == 0.0:
            raise ValueError("avg_rank is undefined for all-zero relevances")
        return float(rels @ marginals @ np.arange(1.0, n + 1) / total)
    k = n if metric.cutoff is None else min(metric.cutoff, n)
    value = float(gains(rels) @ marginals[:, :k] @ position_bias_vector(k))
    if metric.kind == "ndcg":
        ideal = float(ideal_dcg(rels, metric.cutoff))
        return value / ideal if ideal > 0.0 else 0.0
    return value


def _expected_err(scores: np.ndarray, rels: np.ndarray, max_grade: float) -> float:
    """Exact ERR of the policy: the cascade reaches slot ``|S| + 1`` with
    probability ``prod_{d in S} (1 - R_d)``, whatever the order of ``S``."""
    stop, _ = UtilityMetric("err", err_max_grade=max_grade).constants(rels)
    placed = 1.0 - _subset_layout(len(rels)).unplaced
    reach = np.prod(np.where(placed == 1.0, 1.0 - stop[:, None], 1.0), axis=0)
    slot = placed.sum(axis=0) + 1.0
    return float(np.sum(reach * (stop @ placement_flows(scores)) / slot))


@dataclass
class QueryLPOptimum:
    """One query's fair-LP optimum: one ranking or a mixture of two."""

    orders: np.ndarray
    weights: np.ndarray
    xi: float
    objective: float
    exposures: np.ndarray


def solve_fair_lp_query(r_hat: np.ndarray, a: np.ndarray,
                        lambdas: list[float]) -> list[QueryLPOptimum]:
    """The fair LP of one query's estimates and scaled group row ``a`` at
    each weight of ``lambdas``: the segments of the largest weight, each a
    sort at its midpoint, found once, and each ``lam > 0`` reading the
    first ``k`` of them, ``k - 1`` being its number of knots below
    ``lam``; ``lam = 0`` takes the sort by the normalized gains."""
    n = r_hat.shape[0]
    g = gains(r_hat)
    scale = ideal_dcg(r_hat)
    w = g / (scale if scale > 0.0 else 1.0)
    top = max(lambdas)
    solved = {}
    if 0.0 in lambdas:
        orders = np.argsort(0.0 - w, kind="stable")[None]
        solved[0.0] = _lp_optimum(orders, ranking_exposures(orders), w,
                                  np.zeros(n), 0.0)
    if top > 0.0:
        i, j = np.triu_indices(n, 1)
        cross = a[i] != a[j]
        knots = (w[i] - w[j])[cross] / (a[i] - a[j])[cross]
        inside = np.unique(knots[(knots > 0.0) & (knots < top)])
        bounds = np.concatenate(([0.0], inside, [top]))
        mids = (bounds[:-1] + bounds[1:]) / 2.0
        orders = np.argsort(mids[:, None] * a - w, axis=1, kind="stable")
        per_order = ranking_exposures(orders)
        for lam in set(lambdas) - {0.0}:
            k = int(np.searchsorted(inside, lam)) + 1
            solved[lam] = _lp_optimum(orders[:k], per_order[:k], w, a, lam)
    return [solved[lam] for lam in lambdas]


def _lp_optimum(orders: np.ndarray, per_order: np.ndarray, w: np.ndarray,
                a: np.ndarray, lam: float) -> QueryLPOptimum:
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
    return QueryLPOptimum(orders=orders[pick], weights=weights, xi=xi,
                          objective=float(weights @ utility[pick]) - lam * xi,
                          exposures=weights @ per_order[pick])


def top1_query_objective(dataset: Dataset, w: np.ndarray,
                         lam: float) -> tuple[float, np.ndarray]:
    """The top-1 loss of the weights ``w`` summed over the queries, one
    query at a time, and its gradient.  A query's loss is the cross-entropy
    of the softmax of its scores against its relevances over their total
    (uniform when all are zero), plus ``lam`` times the squared gap between
    its groups' mean probability when it has both groups."""
    loss, grad = 0.0, np.zeros(dataset.feature_dim)
    for query in dataset:
        X, rels, n = query.feature_matrix, query.relevances, len(query)
        shifted = X @ w - np.max(X @ w)
        z = np.exp(shifted)
        p = z / z.sum()
        target = rels / rels.sum() if rels.sum() > 0.0 else np.full(n, 1.0 / n)
        loss -= float(np.dot(target, shifted - np.log(z.sum())))
        score_grad = p - target
        if query.groups is not None and 0 < query.groups.sum() < n:
            in1 = query.groups == 1
            gap = float(p[~in1].mean() - p[in1].mean())
            # d gap / d s_j = p_j (c_j - gap), c_j the sign of j's group over its size.
            c = np.where(in1, -1.0 / in1.sum(), 1.0 / (~in1).sum())
            loss += lam * gap * gap
            score_grad = score_grad + 2.0 * lam * gap * p * (c - gap)
        grad += X.T @ score_grad
    return loss, grad


def train_top1_query(dataset: Dataset, lam: float, learning_rate: float = 0.01,
                     epochs: int = 50) -> tuple[np.ndarray, float, np.ndarray, int]:
    """Gradient descent on ``top1_query_objective`` from zero weights, one
    step per epoch, each step halved from ``learning_rate`` until the loss
    falls by at least half the step times the squared gradient norm, or
    until it no longer moves the weights.  Returns the weights, their loss
    and gradient, and the number of halvings."""
    w = np.zeros(dataset.feature_dim)
    loss, grad = top1_query_objective(dataset, w, lam)
    halvings = 0
    for _ in range(epochs):
        step = learning_rate
        while True:
            trial = w - step * grad
            trial_loss, trial_grad = top1_query_objective(dataset, trial, lam)
            if (trial_loss <= loss - 0.5 * step * float(grad @ grad)
                    or np.array_equal(trial, w)):
                break
            step /= 2.0
            halvings += 1
        w, loss, grad = trial, trial_loss, trial_grad
    return w, loss, grad, halvings


def dataset_of(queries) -> Dataset:
    """The dataset of ``queries``, each ``(qid, features, relevances)``,
    ``(qid, features, relevances, groups)`` or a ``Query`` view of another
    dataset, built by the one constructor
    from their concatenated arrays; a query's number of documents is its
    number of relevances.  Groups are kept when the first query has them.
    """
    queries = [(query.qid, query.feature_matrix, query.relevances, query.groups)
               if isinstance(query, Query) else tuple(query) + (None,) * (4 - len(query))
               for query in queries]
    if not queries:
        return Dataset([], [], np.zeros((0, 0)), [])
    qids, features, relevances, labels = zip(*queries)
    return Dataset(qids, [len(np.atleast_1d(rels)) for rels in relevances],
                   np.concatenate([np.asarray(f, dtype=float) for f in features]),
                   np.concatenate([np.atleast_1d(np.asarray(r, dtype=float))
                                   for r in relevances]),
                   None if labels[0] is None else np.concatenate(labels))


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Bitwise equality of two datasets: qids, sizes, arrays and group
    labels."""
    return (a.qids == b.qids and np.array_equal(a.sizes, b.sizes)
            and a.features.shape == b.features.shape
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.relevances, b.relevances)
            and (a.groups is None) == (b.groups is None)
            and (a.groups is None or np.array_equal(a.groups, b.groups)))


# Feature ids must fit the index type: |id| <= the largest intp.
_MAX_FEATURE_ID = int(np.iinfo(np.intp).max)


def letor_line_error(line: str) -> str | None:
    """What is wrong with one comment-free LETOR line, by the first rule it
    breaks, or None; the rules apply to the relevance, then the qid, then
    each feature token in turn."""
    tokens = line.split()
    if not tokens:
        return None
    if len(tokens) < 2:
        return "expected relevance and qid"
    try:
        rel = float(tokens[0])
    except ValueError:
        rel = math.nan
    if not math.isfinite(rel):
        return f"bad relevance {tokens[0]!r}"
    if not tokens[1].startswith("qid:") or len(tokens[1]) <= 4:
        return f"expected qid:<id>, got {tokens[1]!r}"
    if len(tokens) < 3:
        return "document has no features"
    seen: set[int] = set()
    for tok in tokens[2:]:
        fid_s, sep, val_s = tok.partition(":")
        if not sep:
            return f"expected fid:value, got {tok!r}"
        try:
            fid = int(fid_s)
            val = float(val_s)
        except ValueError:
            val = math.nan
        if not math.isfinite(val) or abs(fid) > _MAX_FEATURE_ID:
            return f"bad feature {tok!r}"
        if fid < 1:
            return f"feature ids are 1-based, got {fid}"
        if fid in seen:
            return f"feature id {fid} repeated"
        seen.add(fid)
    return None


def parse_letor_lines(text: str, feature_dim: int | None = None) -> Dataset:
    """The dataset of LETOR text, read one line at a time: the first line
    that breaks a rule raises its ``ParseError``.  Queries follow the first
    appearance of their qids, and features are densified to
    ``max(feature_dim or 0, largest id)``.  Lines end at LF, CRLF or a lone
    CR, as a file read in text mode ends them."""
    documents: dict[str, list[tuple[float, dict[int, float]]]] = {}
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.partition("#")[0]
        message = letor_line_error(line)
        if message:
            raise ParseError(f"line {lineno}: {message}")
        tokens = line.split()
        if tokens:
            features = {int(fid): float(value) for fid, _, value in
                        (tok.partition(":") for tok in tokens[2:])}
            documents.setdefault(tokens[1][4:], []).append(
                (float(tokens[0]), features))
    if not documents:
        raise ParseError("no document lines found")
    dim = max([feature_dim or 0] + [fid for docs in documents.values()
                                    for _, features in docs for fid in features])
    queries = []
    for qid, docs in documents.items():
        matrix = np.zeros((len(docs), dim))
        for row, (_, features) in enumerate(docs):
            for fid, value in features.items():
                matrix[row, fid - 1] = value
        queries.append((qid, matrix, [rel for rel, _ in docs]))
    return dataset_of(queries)


def models_equal(a: ScoringModel, b: ScoringModel) -> bool:
    """Same kind, header and parameter bits."""
    return (a.kind == b.kind and a.header == b.header
            and np.array_equal(a.params, b.params))


def param_arrays(model: ScoringModel) -> list[np.ndarray]:
    """The named parameter arrays of ``model`` in layout order: views of
    ``model.params``."""
    return [getattr(model, attr) for attr, *_ in model.layout]


def model_of(kind: str, feature_dim: int, rng: np.random.Generator,
             hidden_units: int = 32, bias: bool = False) -> ScoringModel:
    """``policy.init_model``, and with ``bias`` a linear model of the same
    weights and a small uniform bias: the layout of
    ``baselines.fit_linear_regression``, which training never makes."""
    model = init_model(kind, feature_dim, rng, hidden_units=hidden_units)
    if not bias:
        return model
    return LinearModel(model.weights, bias=rng.uniform(-0.001, 0.001, size=1))
