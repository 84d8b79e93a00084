"""Ranking quality metrics under a logarithmic position-bias model.

Positions are 1-based in the formulas below.  The attention a ranking gives
to position j is ``1 / log2(1 + j)``, so position 1 receives weight 1 and
the discount matches the DCG convention with exponential gains
``2**rel - 1``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ranking import ENUMERATION_LIMIT, Ranking, as_ranking
from . import policy


def position_bias(j: int) -> float:
    """Attention fraction at 1-based position ``j``; strictly decreasing,
    equal to 1 at the top position."""
    if j < 1:
        raise ValueError(f"position must be >= 1, got {j}")
    return float(1.0 / np.log2(1.0 + j))


def position_bias_vector(num_positions: int) -> np.ndarray:
    return 1.0 / np.log2(1.0 + np.arange(1, num_positions + 1, dtype=float))


def gains(relevances: np.ndarray) -> np.ndarray:
    return np.exp2(np.asarray(relevances, dtype=float)) - 1.0


def _checked(order: Ranking, relevances: np.ndarray) -> tuple[Ranking, np.ndarray]:
    rels = np.asarray(relevances, dtype=float)
    return as_ranking(order, rels.shape[0]), rels


def dcg(order: Ranking, relevances: np.ndarray, cutoff: int | None = None) -> float:
    """Discounted cumulative gain of a ranking, optionally truncated."""
    order, rels = _checked(order, relevances)
    k = _effective_cutoff(cutoff, rels.shape[0])
    discounts = position_bias_vector(k)
    return float(gains(rels)[order[:k]] @ discounts)


def ideal_dcg(relevances: np.ndarray, cutoff: int | None = None) -> float:
    rels = np.asarray(relevances, dtype=float)
    k = _effective_cutoff(cutoff, rels.shape[0])
    # Contiguous copy so the dot product follows the exact code path of
    # dcg(); an ideally ordered ranking then scores exactly 1.0 under ndcg.
    top = np.ascontiguousarray(np.sort(gains(rels))[::-1][:k])
    return float(top @ position_bias_vector(k))


def _effective_cutoff(cutoff: int | None, num_docs: int) -> int:
    if cutoff is None:
        return num_docs
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return min(cutoff, num_docs)


def ndcg(order: Ranking, relevances: np.ndarray, cutoff: int | None = None) -> float:
    """DCG normalized by the best achievable DCG at the same cutoff.

    Defined as 0 when every relevance is zero (the ideal DCG vanishes).
    """
    ideal = ideal_dcg(relevances, cutoff)
    if ideal == 0.0:
        return 0.0
    return dcg(order, relevances, cutoff) / ideal


def _stop_probabilities(rels: np.ndarray, max_grade: float) -> np.ndarray:
    if np.any(rels < 0):
        raise ValueError("err requires non-negative relevances")
    if rels.size and max_grade < rels.max():
        raise ValueError(
            f"max_grade {max_grade} is below the largest relevance {rels.max()}")
    return (np.exp2(rels) - 1.0) / (2.0 ** max_grade)


def err(order: Ranking, relevances: np.ndarray, max_grade: float = 4.0) -> float:
    """Expected reciprocal rank under the cascade user model.

    Per-document stop probability ``R_d = (2**rel_d - 1) / 2**max_grade``.

    Raises:
        ValueError: negative relevance, or ``max_grade`` below the maximum
            relevance present.
    """
    order, rels = _checked(order, relevances)
    stop = _stop_probabilities(rels, max_grade)
    total = 0.0
    not_stopped = 1.0
    for j, d in enumerate(order, start=1):
        total += not_stopped * stop[d] / j
        not_stopped *= 1.0 - stop[d]
    return float(total)


def avg_rank(order: Ranking, relevances: np.ndarray) -> float:
    """Relevance-weighted mean position, ``sum_d rel_d pos(d) / sum_d rel_d``.

    Lower is better.  Raises ``ValueError`` when all relevances are zero.
    """
    order, rels = _checked(order, relevances)
    total = rels.sum()
    if total == 0.0:
        raise ValueError("avg_rank is undefined for all-zero relevances")
    positions = np.empty(rels.shape[0])
    positions[order] = np.arange(1, rels.shape[0] + 1, dtype=float)
    return float((rels @ positions) / total)


@dataclass(frozen=True)
class UtilityMetric:
    """A named ranking metric with an optional rank cutoff.

    ``kind`` is one of ``dcg``, ``ndcg``, ``err``, ``avgrank``.  The cutoff
    applies to dcg/ndcg only.  ``err_max_grade`` feeds the cascade stop
    probabilities.  ``reward`` negates avgrank so that bigger is always
    better for a learner.
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

    def value(self, order: Ranking, relevances: np.ndarray) -> float:
        if self.kind == "dcg":
            return dcg(order, relevances, self.cutoff)
        if self.kind == "ndcg":
            return ndcg(order, relevances, self.cutoff)
        if self.kind == "err":
            return err(order, relevances, self.err_max_grade)
        return avg_rank(order, relevances)

    def batch_values(self, orders: np.ndarray, relevances: np.ndarray) -> np.ndarray:
        """Metric value per row of ``orders``; dcg/ndcg are vectorized."""
        orders = np.asarray(orders, dtype=np.intp)
        if self.kind in ("dcg", "ndcg"):
            rels = np.asarray(relevances, dtype=float)
            k = _effective_cutoff(self.cutoff, rels.shape[0])
            discounts = position_bias_vector(k)
            values = gains(rels)[orders[:, :k]] @ discounts
            if self.kind == "ndcg":
                ideal = ideal_dcg(rels, self.cutoff)
                values = values / ideal if ideal > 0.0 else np.zeros_like(values)
            return values
        return np.array([self.value(row, relevances) for row in orders])

    def reward(self, order: Ranking, relevances: np.ndarray) -> float:
        v = self.value(order, relevances)
        return -v if self.kind == "avgrank" else v

    def batch_rewards(self, orders: np.ndarray, relevances: np.ndarray) -> np.ndarray:
        values = self.batch_values(orders, relevances)
        return -values if self.kind == "avgrank" else values


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
