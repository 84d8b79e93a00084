"""Ranking quality metrics under a logarithmic position-bias model.

Positions are 1-based in the formulas below.  The attention a ranking gives
to position j is ``1 / log2(1 + j)``, so position 1 receives weight 1 and
the discount matches the DCG convention with exponential gains
``2**rel - 1``.

Each metric is defined once, over an ``(S, n)`` block of rankings or a
``(K, S, n)`` block of K members' batches, by
``UtilityMetric.batch_values``.  ``UtilityMetric.value``, the call on one
ranking, validates the ranking and returns its block of one.

Every metric takes the relevances as an array or as a ``data.Query``, and
``batch_values`` also a run of Q queries of equal size, with one batch of
rankings per query.  A query's constants, its gains, its ideal DCG at each
cutoff and its ERR stop probabilities at each grade ceiling, are built on
first use and kept with the query (``Query.derived``), so training steps
and evaluations reuse them; an array's are built per call, and a run's are
its queries' stacked, those it lacks built by one call on its stacked
relevances (``UtilityMetric.prepare`` builds them ahead).  All give the
same bits.
``position_bias_vector`` builds the vector of each length once and returns
it read-only, so every ranking of that length shares it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Query
from .ranking import Ranking, as_ranking

Relevances = np.ndarray | Query


@functools.lru_cache(maxsize=None)
def position_bias_vector(num_positions: int) -> np.ndarray:
    """The attention ``1 / log2(1 + j)`` of each 1-based position j =
    1..num_positions, built once per length and shared by every caller, so
    the array is read-only."""
    bias = 1.0 / np.log2(1.0 + np.arange(1, num_positions + 1, dtype=float))
    bias.flags.writeable = False
    return bias


def _is_run(source) -> bool:
    """Whether ``source`` is a run of queries, a list or tuple of them."""
    return isinstance(source, (list, tuple)) and bool(source) \
        and isinstance(source[0], Query)


def _relevances(source: Relevances) -> np.ndarray:
    if isinstance(source, Query):
        return source.relevances
    if _is_run(source):
        return np.array([q.relevances for q in source])
    return np.asarray(source, dtype=float)


def _num_docs(source: Relevances) -> int:
    return len(source[0]) if _is_run(source) else len(source)


def _per_query(source: Relevances, key, build):
    """``build(relevances)``: built once and kept with a query, built
    afresh for a relevance array, and for a run of queries each query's,
    stacked.  The queries of a run that lack theirs get them from one
    ``build`` of their stacked ``(M, n)`` relevances, whose rows have the
    bits of each query's own build."""
    if isinstance(source, Query):
        return source.derived(key, lambda: build(source.relevances))
    if _is_run(source):
        return np.array(Query.derived_of_run(
            source, key, lambda missing: build(_relevances(missing))))
    return build(_relevances(source))


def _take(constants: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """``constants[orders]``: one query's ``(n,)`` constants at rankings of
    any shape, or a run's ``(Q, n)`` constants at ``(..., Q, S, n)``
    rankings, row q at the rankings of query q."""
    if constants.ndim == 1:
        return constants[orders]
    return constants[np.arange(len(constants))[:, None, None], orders]


def gains(relevances: Relevances) -> np.ndarray:
    """Exponential gains ``2**rel - 1``; read-only for a query."""
    return _per_query(relevances, "gains", lambda rels: np.exp2(rels) - 1.0)


def ideal_dcg(relevances: Relevances | Sequence[Query],
              cutoff: int | None = None) -> float | np.ndarray:
    """DCG of the best ranking at ``cutoff``, kept with a query per cutoff;
    a run of queries gives each query's, ``(Q,)``."""
    k = _effective_cutoff(cutoff, _num_docs(relevances))
    return _per_query(relevances, ("ideal_dcg", k),
                      lambda rels: _best_dcg(gains(rels), k))


def _best_dcg(gain_values: np.ndarray, cutoff: int) -> float | np.ndarray:
    """DCG at ``cutoff`` of ``gain_values`` sorted best first: the ideal DCG
    of the relevances with these gains, for a caller that has the gains; a
    ``(Q, n)`` block gives each row's, ``(Q,)``."""
    # A contiguous copy and a stacked (..., 1, k) @ (k,) product, so each
    # row's dot product has the bits of the one-row product of
    # batch_values(); an ideally ordered ranking then scores exactly 1.0
    # under ndcg.  A (Q, k) @ (k,) product would round some rows otherwise.
    top = np.ascontiguousarray(np.sort(gain_values)[..., ::-1][..., :cutoff])
    best = (top[..., None, :] @ position_bias_vector(cutoff))[..., 0]
    return float(best) if best.ndim == 0 else best


def _effective_cutoff(cutoff: int | None, num_docs: int) -> int:
    """Positions a metric counts; ``UtilityMetric`` has checked ``cutoff >= 1``."""
    return num_docs if cutoff is None else min(cutoff, num_docs)


def _stop_probabilities(relevances: Relevances, max_grade: float) -> np.ndarray:
    """Cascade stop probability of each document, kept with a query per
    grade ceiling."""
    def build(rels: np.ndarray) -> np.ndarray:
        if np.any(rels < 0) or (rels.size and max_grade < rels.max()):
            # The first query at fault, with its own largest relevance.
            for row in np.atleast_2d(rels):
                if np.any(row < 0):
                    raise ValueError("err requires non-negative relevances")
                if row.size and max_grade < row.max():
                    raise ValueError(f"max_grade {max_grade} is below the "
                                     f"largest relevance {row.max()}")
        return (np.exp2(rels) - 1.0) / (2.0 ** max_grade)

    return _per_query(relevances, ("err_stop", max_grade), build)


@dataclass(frozen=True)
class UtilityMetric:
    """A named ranking metric with an optional rank cutoff.

    ``kind`` is one of:

    * ``dcg``: discounted cumulative gain, optionally truncated;
    * ``ndcg``: DCG over the ideal DCG at the same cutoff, 0 when every
      relevance is zero;
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

    def value(self, order: Ranking, relevances: Relevances) -> float:
        """Metric value of one ranking, validated as a permutation."""
        order = as_ranking(order, len(relevances))
        return float(self.batch_values(order[None], relevances)[0])

    def batch_values(self, orders: np.ndarray,
                     relevances: Relevances | Sequence[Query]) -> np.ndarray:
        """Metric value of each row of an ``(S, n)`` block of rankings, or
        ``(K, S)`` values of a ``(K, S, n)`` block.

        ``relevances`` is an array or a query, whose gains, ideal DCG and
        stop probabilities are kept with it, or a run of Q queries of n
        documents each, a list or tuple; their constants are then stacked
        once, and ``(..., Q, S, n)`` rankings, query q's at index q, give
        ``(..., Q, S)`` values.  Rows are not validated.  Products are
        stacked, ``(..., S, k) @ (k,)``, so each batch's values have the
        bits of that batch valued alone.
        avgrank scatters positions 1..n into each row.  ERR reaches position
        j with ``prod_{i<j} (1 - R_{order[i]})``, a cumulative product
        shifted by one position, and adds its terms with a running sum so
        they accumulate in cascade order.
        """
        orders = np.asarray(orders, dtype=np.intp)
        n = orders.shape[-1]
        if self.kind == "avgrank":
            rels = _relevances(relevances)
            total = rels.sum(axis=-1, keepdims=True)
            if np.any(total == 0.0):
                raise ValueError("avg_rank is undefined for all-zero relevances")
            rows = orders.reshape(-1, n)
            positions = np.empty(rows.shape)
            positions[np.arange(len(rows))[:, None], rows] = np.arange(1.0, n + 1)
            return (positions.reshape(orders.shape) @ rels[..., None])[..., 0] / total
        if self.kind == "err":
            stop = _take(_stop_probabilities(relevances, self.err_max_grade), orders)
            reach = np.ones(orders.shape)
            reach[..., 1:] = np.cumprod(1.0 - stop[..., :-1], axis=-1)
            return np.cumsum(reach * stop / np.arange(1.0, n + 1), axis=-1)[..., -1]
        k = _effective_cutoff(self.cutoff, n)
        values = _take(gains(relevances), orders[..., :k]) @ position_bias_vector(k)
        if self.kind == "ndcg":
            ideal = ideal_dcg(relevances, self.cutoff)
            if _is_run(relevances):
                # Each query's values over its own ideal, or 0 where it is 0.
                ideal = ideal[:, None]
                values = np.divide(values, ideal, out=np.zeros_like(values),
                                   where=ideal > 0.0)
            else:
                values = values / ideal if ideal > 0.0 else np.zeros_like(values)
        return values

    def batch_rewards(self, orders: np.ndarray, relevances: Relevances) -> np.ndarray:
        values = self.batch_values(orders, relevances)
        return values if self.sign > 0.0 else -values

    def prepare(self, run: Sequence[Query]) -> None:
        """Build the constants ``batch_values`` reads of each query of a run
        of equal-size queries that lacks them, one call per constant for the
        whole run, and keep them with the queries."""
        if self.kind == "err":
            _stop_probabilities(run, self.err_max_grade)
        elif self.kind != "avgrank":
            gains(run)
            if self.kind == "ndcg":
                ideal_dcg(run, self.cutoff)
