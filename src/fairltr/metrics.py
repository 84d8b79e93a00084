"""Ranking quality metrics under a logarithmic position-bias model.

Positions are 1-based in the formulas below.  The attention a ranking gives
to position j is ``1 / log2(1 + j)``, so position 1 receives weight 1 and
the discount matches the DCG convention with exponential gains
``2**rel - 1``.

Each metric is defined once, over an ``(S, n)`` block of rankings, by
``UtilityMetric.batch_values``.  A call on one ranking (``value`` and the
``dcg``, ``ndcg``, ``err`` and ``avg_rank`` functions) validates the
ranking and returns its block of one.

Every metric takes the relevances as an array or as a ``data.Query``.  A
query's constants, its gains, its ideal DCG at each cutoff and its ERR stop
probabilities at each grade ceiling, are built on first use and kept with
the query (``Query.derived``), so training steps and evaluations reuse
them; an array's are built per call.  Both give the same bits.
``position_bias_vector`` builds the vector of each length once and returns
it read-only, so every ranking of that length shares it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import Query
from .ranking import ENUMERATION_LIMIT, Ranking, as_ranking
from . import policy

Relevances = np.ndarray | Query


def position_bias(j: int) -> float:
    """Attention fraction at 1-based position ``j``; strictly decreasing,
    equal to 1 at the top position."""
    if j < 1:
        raise ValueError(f"position must be >= 1, got {j}")
    return float(1.0 / np.log2(1.0 + j))


@functools.lru_cache(maxsize=None)
def position_bias_vector(num_positions: int) -> np.ndarray:
    """``position_bias(j)`` for j = 1..num_positions, built once per length
    and shared by every caller, so the array is read-only."""
    bias = 1.0 / np.log2(1.0 + np.arange(1, num_positions + 1, dtype=float))
    bias.flags.writeable = False
    return bias


def _relevances(source: Relevances) -> np.ndarray:
    if isinstance(source, Query):
        return source.relevances
    return np.asarray(source, dtype=float)


def _per_query(source: Relevances, key, build):
    """``build(relevances)``: built once and kept with a query, or built
    afresh for a relevance array."""
    if isinstance(source, Query):
        return source.derived(key, lambda: build(source.relevances))
    return build(_relevances(source))


def gains(relevances: Relevances) -> np.ndarray:
    """Exponential gains ``2**rel - 1``; read-only for a query."""
    return _per_query(relevances, "gains", lambda rels: np.exp2(rels) - 1.0)


def dcg(order: Ranking, relevances: Relevances, cutoff: int | None = None) -> float:
    """Discounted cumulative gain of a ranking, optionally truncated."""
    return UtilityMetric("dcg", cutoff).value(order, relevances)


def ideal_dcg(relevances: Relevances, cutoff: int | None = None) -> float:
    """DCG of the best ranking at ``cutoff``, kept with a query per cutoff."""
    k = _effective_cutoff(cutoff, len(relevances))

    def build(rels: np.ndarray) -> float:
        # Contiguous copy so the dot product gives the same bits as the
        # one-row product of batch_values(); an ideally ordered ranking then
        # scores exactly 1.0 under ndcg.
        top = np.ascontiguousarray(np.sort(gains(rels))[::-1][:k])
        return float(top @ position_bias_vector(k))

    return _per_query(relevances, ("ideal_dcg", k), build)


def _effective_cutoff(cutoff: int | None, num_docs: int) -> int:
    """Positions a metric counts; ``UtilityMetric`` has checked ``cutoff >= 1``."""
    return num_docs if cutoff is None else min(cutoff, num_docs)


def ndcg(order: Ranking, relevances: Relevances, cutoff: int | None = None) -> float:
    """DCG normalized by the best achievable DCG at the same cutoff.

    Defined as 0 when every relevance is zero (the ideal DCG vanishes).
    """
    return UtilityMetric("ndcg", cutoff).value(order, relevances)


def _stop_probabilities(relevances: Relevances, max_grade: float) -> np.ndarray:
    """Cascade stop probability of each document, kept with a query per
    grade ceiling."""
    def build(rels: np.ndarray) -> np.ndarray:
        if np.any(rels < 0):
            raise ValueError("err requires non-negative relevances")
        if rels.size and max_grade < rels.max():
            raise ValueError(
                f"max_grade {max_grade} is below the largest relevance {rels.max()}")
        return (np.exp2(rels) - 1.0) / (2.0 ** max_grade)

    return _per_query(relevances, ("err_stop", max_grade), build)


def err(order: Ranking, relevances: Relevances, max_grade: float = 4.0) -> float:
    """Expected reciprocal rank under the cascade user model.

    Per-document stop probability ``R_d = (2**rel_d - 1) / 2**max_grade``.

    Raises:
        ValueError: negative relevance, or ``max_grade`` below the maximum
            relevance present.
    """
    return UtilityMetric("err", err_max_grade=max_grade).value(order, relevances)


def avg_rank(order: Ranking, relevances: Relevances) -> float:
    """Relevance-weighted mean position, ``sum_d rel_d pos(d) / sum_d rel_d``.

    Lower is better.  Raises ``ValueError`` when all relevances are zero.
    """
    return UtilityMetric("avgrank").value(order, relevances)


@dataclass(frozen=True)
class UtilityMetric:
    """A named ranking metric with an optional rank cutoff.

    ``kind`` is one of ``dcg``, ``ndcg``, ``err``, ``avgrank``.  The cutoff
    applies to dcg/ndcg only.  ``err_max_grade`` feeds the cascade stop
    probabilities.  ``sign`` is -1 for avgrank and +1 otherwise, so that
    ``sign * value`` is always bigger-is-better for a learner.
    """

    kind: str = "ndcg"
    cutoff: int | None = None
    err_max_grade: float = 4.0

    def __post_init__(self):
        if self.kind not in ("dcg", "ndcg", "err", "avgrank"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.cutoff is not None and self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "UtilityMetric":
        """Parse ``"ndcg"``, ``"ndcg@10"``, ``"err"``, ``"avgrank"`` ..."""
        name, _, cut = text.strip().lower().partition("@")
        cutoff = int(cut) if cut else None
        return cls(kind=name, cutoff=cutoff)

    def __str__(self) -> str:
        return self.kind if self.cutoff is None else f"{self.kind}@{self.cutoff}"

    @property
    def sign(self) -> float:
        return -1.0 if self.kind == "avgrank" else 1.0

    def value(self, order: Ranking, relevances: Relevances) -> float:
        """Metric value of one ranking, validated as a permutation."""
        order = as_ranking(order, len(relevances))
        return float(self.batch_values(order[None], relevances)[0])

    def batch_values(self, orders: np.ndarray, relevances: Relevances) -> np.ndarray:
        """Metric value of each row of an ``(S, n)`` block of rankings.

        Rows are not validated.  ``relevances`` is an array or a query,
        whose gains, ideal DCG and stop probabilities are kept with it.
        avgrank scatters positions 1..n into each row.  ERR reaches position
        j with ``prod_{i<j} (1 - R_{order[i]})``, a cumulative product
        shifted by one position, and adds its terms with a running sum so
        they accumulate in cascade order.
        """
        orders = np.asarray(orders, dtype=np.intp)
        n = len(relevances)
        if self.kind == "avgrank":
            rels = _relevances(relevances)
            total = rels.sum()
            if total == 0.0:
                raise ValueError("avg_rank is undefined for all-zero relevances")
            positions = np.empty(orders.shape)
            positions[np.arange(len(orders))[:, None], orders] = np.arange(1.0, n + 1)
            return positions @ rels / total
        if self.kind == "err":
            stop = _stop_probabilities(relevances, self.err_max_grade)[orders]
            reach = np.ones(orders.shape)
            reach[:, 1:] = np.cumprod(1.0 - stop[:, :-1], axis=1)
            return np.cumsum(reach * stop / np.arange(1.0, n + 1), axis=1)[:, -1]
        k = _effective_cutoff(self.cutoff, n)
        values = gains(relevances)[orders[:, :k]] @ position_bias_vector(k)
        if self.kind == "ndcg":
            ideal = ideal_dcg(relevances, self.cutoff)
            values = values / ideal if ideal > 0.0 else np.zeros_like(values)
        return values

    def batch_rewards(self, orders: np.ndarray, relevances: Relevances) -> np.ndarray:
        values = self.batch_values(orders, relevances)
        return values if self.sign > 0.0 else -values


def expected_utility(scores: np.ndarray, relevances: np.ndarray,
                     metric: UtilityMetric, num_samples: int = 1000,
                     rng: np.random.Generator | None = None,
                     exact: bool = False) -> float:
    """Expected metric value of the Plackett-Luce policy at ``scores``.

    With ``exact=True`` the expectation is exact and draws no random numbers.
    It comes from the DP over placed subsets (``policy.placement_flows``) in
    O(2^n n): dcg and ndcg as ``gains @ M @ discounts`` and avgrank as
    ``rels @ M @ positions / rels.sum()`` over the position marginals ``M``,
    and ERR from the flows themselves.  Exact mode is still refused above
    ``ENUMERATION_LIMIT`` candidates.  Otherwise the expectation is a
    Monte-Carlo mean over ``num_samples`` sampled rankings.
    """
    rels = np.asarray(relevances, dtype=float)
    n = rels.shape[0]
    if exact:
        if n > ENUMERATION_LIMIT:
            raise ValueError(
                f"exact expectation limited to {ENUMERATION_LIMIT} docs, got {n}")
        if metric.kind == "err":
            return _expected_err(scores, rels, metric.err_max_grade)
        marginals = policy.position_marginals(scores)
        if metric.kind == "avgrank":
            total = rels.sum()
            if total == 0.0:
                raise ValueError("avg_rank is undefined for all-zero relevances")
            return float(rels @ marginals @ np.arange(1.0, n + 1) / total)
        k = _effective_cutoff(metric.cutoff, n)
        value = float(gains(rels) @ marginals[:, :k] @ position_bias_vector(k))
        if metric.kind == "ndcg":
            ideal = ideal_dcg(rels, metric.cutoff)
            return value / ideal if ideal > 0.0 else 0.0
        return value
    if rng is None:
        rng = np.random.default_rng(0)
    orders = policy.sample_rankings(scores, num_samples, rng)
    return float(metric.batch_values(orders, rels).mean())


def _expected_err(scores: np.ndarray, rels: np.ndarray, max_grade: float) -> float:
    """Exact ERR of the policy: the cascade reaches slot ``|S| + 1`` with
    probability ``prod_{d in S} (1 - R_d)``, whatever the order of ``S``."""
    stop = _stop_probabilities(rels, max_grade)
    placed, flows = policy.placement_flows(scores)
    reach = np.prod(np.where(placed, 1.0 - stop, 1.0), axis=1)
    slot = placed.sum(axis=1) + 1.0
    return float(np.sum(reach * (flows @ stop) / slot))
