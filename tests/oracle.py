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

``datasets_equal`` and ``models_equal`` compare datasets and models bit
for bit, for the round-trip and determinism tests; ``param_arrays`` gives
a model's named parameter arrays, the views of its one vector.

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
from fairltr.fairness import HingeRows, group_rows, hinge_gaps, hinge_mean, \
    hinge_weights, individual_rows, ranking_exposures
from fairltr.metrics import UtilityMetric, _stop_probabilities, gains, ideal_dcg, \
    position_bias_vector
from fairltr.policy import ScoringModel, logprob_grads_scores, placement_flows, \
    position_marginals, ranking_logprobs
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
        ideal = ideal_dcg(rels, metric.cutoff)
        return value / ideal if ideal > 0.0 else 0.0
    return value


def _expected_err(scores: np.ndarray, rels: np.ndarray, max_grade: float) -> float:
    """Exact ERR of the policy: the cascade reaches slot ``|S| + 1`` with
    probability ``prod_{d in S} (1 - R_d)``, whatever the order of ``S``."""
    stop = _stop_probabilities(rels, max_grade)
    placed, flows = placement_flows(scores)
    reach = np.prod(np.where(placed, 1.0 - stop, 1.0), axis=1)
    slot = placed.sum(axis=1) + 1.0
    return float(np.sum(reach * (flows @ stop) / slot))


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Bitwise equality of two datasets: qids, arrays and group labels."""
    if (len(a) != len(b) or a.feature_dim != b.feature_dim
            or a.has_groups != b.has_groups):
        return False
    for qa, qb in zip(a, b):
        if qa.qid != qb.qid or qa.num_docs != qb.num_docs:
            return False
        if not np.array_equal(qa.feature_matrix, qb.feature_matrix):
            return False
        if not np.array_equal(qa.relevances, qb.relevances):
            return False
        if (qa.groups is None) != (qb.groups is None):
            return False
        if qa.groups is not None and not np.array_equal(qa.groups, qb.groups):
            return False
    return True


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
        queries.append(Query(qid, matrix, [rel for rel, _ in docs]))
    return Dataset(queries, dim)


def models_equal(a: ScoringModel, b: ScoringModel) -> bool:
    """Same kind, header and parameter bits."""
    return (a.kind == b.kind and a.header == b.header
            and np.array_equal(a.params, b.params))


def param_arrays(model: ScoringModel) -> list[np.ndarray]:
    """The named parameter arrays of ``model`` in layout order: views of
    ``model.params``."""
    return [getattr(model, attr) for attr, *_ in model.layout]
