"""Ranking quality metrics under a logarithmic position-bias model.

Positions are 1-based in the formulas below.  The attention a ranking gives
to position j is ``1 / log2(1 + j)``, so position 1 receives weight 1 and
the discount matches the DCG convention with exponential gains
``2**rel - 1``.

Each metric is defined once, by ``UtilityMetric.batch_values``, over a
block of rankings whose last two axes are a batch, ``(S, n)``: one
query's batch, a ``(K, S, n)`` block of K members' batches of one query,
or ``(K, Q, S, n)`` batches of a run of Q queries.  It reads the metric's
constants of the queries, which ``UtilityMetric.constants`` builds in one
vectorized pass over ``(Q, n)`` relevances, or ``(n,)`` for one query: a
weight per document (the gains, the ERR stop probabilities or the
relevances) and a scale per query (the ideal DCG, the total relevance or
1).  Row q of the constants values the batches at index q of the
rankings (``at_rankings``).  A caller builds them once and reads row views
of them: the trainer for the training split before its first step, an
evaluation once per run of equal-size queries and pass.
``UtilityMetric.value``, the call on one ranking, validates the ranking
and builds its constants.  ``position_bias_vector`` builds the vector of
each length once and returns it read-only, so every ranking of that
length shares it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ranking import Ranking, as_ranking, at_rankings

# A metric's constants of Q queries: (Q, n) document weights and (Q,) scales.
Constants = tuple[np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=None)
def position_bias_vector(num_positions: int) -> np.ndarray:
    """The attention ``1 / log2(1 + j)`` of each 1-based position j =
    1..num_positions, built once per length and shared by every caller, so
    the array is read-only."""
    bias = 1.0 / np.log2(1.0 + np.arange(1, num_positions + 1, dtype=float))
    bias.flags.writeable = False
    return bias


def gains(relevances) -> np.ndarray:
    """Exponential gains ``2**rel - 1``."""
    return np.exp2(np.asarray(relevances, dtype=float)) - 1.0


def _dcg(gain_values: np.ndarray, orders: np.ndarray, cutoff: int | None) -> np.ndarray:
    """DCG at ``cutoff`` of each ranking of ``orders`` under the rows of
    ``gain_values`` (``at_rankings``); the one definition of DCG."""
    k = _effective_cutoff(cutoff, orders.shape[-1])
    return at_rankings(gain_values, orders[..., :k]) @ position_bias_vector(k)


def ideal_dcg(relevances, cutoff: int | None = None) -> np.ndarray:
    """DCG at ``cutoff`` of the best ranking of each ``(..., n)`` relevance
    vector, ``(...)``: ``_dcg`` of the ranking by descending gain, so a best
    ranking has NDCG exactly 1."""
    g = gains(relevances)
    return _dcg(g, np.argsort(-g, axis=-1, kind="stable")[..., None, :], cutoff)[..., 0]


def _effective_cutoff(cutoff: int | None, num_docs: int) -> int:
    """Positions a metric counts; ``UtilityMetric`` has checked ``cutoff >= 1``."""
    return num_docs if cutoff is None else min(cutoff, num_docs)


@dataclass(frozen=True)
class UtilityMetric:
    """A named ranking metric with an optional rank cutoff.

    ``kind`` is one of:

    * ``dcg``: discounted cumulative gain, optionally truncated;
    * ``ndcg``: DCG over the ideal DCG at the same cutoff, 0 when that is
      not positive;
    * ``err``: expected reciprocal rank under the cascade model, with stop
      probability ``R_d = (2**rel_d - 1) / 2**err_max_grade``; a negative
      relevance, or one above ``err_max_grade``, raises ``ValueError``;
    * ``avgrank``: relevance-weighted mean position,
      ``sum_d rel_d pos(d) / sum_d rel_d``, lower is better, and a
      ``ValueError`` when every relevance is zero.

    A cutoff applies to dcg/ndcg only, and is refused for err and avgrank.
    ``sign`` is -1 for avgrank and +1 otherwise, so that ``sign * value``
    is always bigger-is-better for a learner.
    """

    kind: str = "ndcg"
    cutoff: int | None = None
    err_max_grade: float = 4.0

    def __post_init__(self):
        if self.kind not in ("dcg", "ndcg", "err", "avgrank"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.cutoff is not None and self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.cutoff is not None and self.kind in ("err", "avgrank"):
            raise ValueError(f"{self.kind} takes no cutoff, got "
                             f"{self.kind}@{self.cutoff}; a cutoff applies "
                             "to dcg and ndcg")

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

    def constants(self, relevances) -> Constants:
        """The constants ``batch_values`` reads of ``(..., n)`` relevances,
        built in one pass: ``(..., n)`` document weights and ``(...)``
        scales.  A ranking's value is the sum of its weights against the
        positions, over the scale: for dcg the gains over 1; for ndcg the
        gains over the ideal DCG, or zeros over 1 where that is not
        positive; for err the stop probabilities over 1 (the cascade sums
        them its own way); for avgrank the relevances over their total.
        Raises ``ValueError`` for the first query on which the metric is
        undefined."""
        rels = np.asarray(relevances, dtype=float)
        ones = np.ones(rels.shape[:-1])
        if self.kind == "avgrank":
            total = rels.sum(axis=-1)
            if np.any(total == 0.0):
                raise ValueError("avg_rank is undefined for all-zero relevances")
            return rels, total
        if self.kind == "err":
            low, high = rels.min(axis=-1).reshape(-1), rels.max(axis=-1).reshape(-1)
            bad = (low < 0) | (self.err_max_grade < high)
            if bad.any():
                q = int(np.argmax(bad))
                if low[q] < 0:
                    raise ValueError("err requires non-negative relevances")
                raise ValueError(f"max_grade {self.err_max_grade} is below the "
                                 f"largest relevance {high[q]}")
            return gains(rels) / (2.0 ** self.err_max_grade), ones
        if self.kind == "dcg":
            return gains(rels), ones
        ideal = ideal_dcg(rels, self.cutoff)
        live = ideal > 0.0
        return np.where(live[..., None], gains(rels), 0.0), np.where(live, ideal, 1.0)

    def value(self, order: Ranking, relevances) -> float:
        """Metric value of one ranking, validated as a permutation."""
        order = as_ranking(order, len(relevances))
        return float(self.batch_values(order[None], self.constants(relevances))[0])

    def batch_values(self, orders: np.ndarray, constants: Constants) -> np.ndarray:
        """Metric value of each ranking of ``(..., S, n)`` rankings,
        ``(..., S)``, from the ``constants`` of the queries' relevances: an
        ``(n,)`` row values every batch, and ``(Q, n)`` rows value the
        batches of ``(..., Q, S, n)`` rankings, row q those at index q.
        Rows are not validated.
        dcg and ndcg sum the weights of the first k positions against the
        position bias, and avgrank those of all positions against 1..n.
        ERR reaches position j with ``prod_{i<j} (1 - R_{order[i]})``, a
        cumulative product shifted by one position, and adds its terms
        with a running sum so they accumulate in cascade order.
        """
        weights, scale = constants
        orders = np.asarray(orders, dtype=np.intp)
        n = orders.shape[-1]
        if self.kind == "err":
            stop = at_rankings(weights, orders)
            reach = np.ones(orders.shape)
            reach[..., 1:] = np.cumprod(1.0 - stop[..., :-1], axis=-1)
            values = np.cumsum(reach * stop / np.arange(1.0, n + 1), axis=-1)[..., -1]
        elif self.kind == "avgrank":
            values = at_rankings(weights, orders) @ np.arange(1.0, n + 1)
        else:
            values = _dcg(weights, orders, self.cutoff)
        return values / scale[..., None]

    def batch_rewards(self, orders: np.ndarray, constants: Constants) -> np.ndarray:
        values = self.batch_values(orders, constants)
        return values if self.sign > 0.0 else -values
