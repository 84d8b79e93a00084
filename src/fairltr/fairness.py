"""Merit-weighted exposure and the disparity measures built on it.

Exposure of a document under a stochastic ranking policy is the expected
attention its position receives, using the same logarithmic position-bias
curve as the ranking metrics.  Fairness asks exposure to be proportional to
merit, a non-negative monotone transform of relevance.

The exposure of rankings is defined once, over an ``(S, n)`` block or a
``(Q, S, n)`` block of Q such batches, by ``ranking_exposures``;
``exposure_of_ranking`` validates one ranking and returns its block of one,
and the Monte-Carlo estimate ``mc_exposure`` is the mean row of each
``(S, n)`` batch.

Each disparity is defined once, as hinge rows: linear functions of the
expected exposure vector whose positive parts are the violations.  The
disparity is ``hinge_mean(rows, exposures)``, the mean of the positive
parts of ``hinge_gaps(rows, exposures)``, and zero when there are no rows;
``hinge_weights`` gives its gradient wrt the exposures.

* individual (``individual_rows``): one row per ordered pair where the
  first document has at least the merit of the second and the second has
  positive merit, holding the pair's per-merit exposure gap.  The rows are
  kept in pair form (``PairRows``): the pair indices and ``1/merit``, so
  they grow with the number of pairs, and a gap is ``x_i - x_j`` with
  ``x = exposures / merit``, exactly 0 for equal merits and exposures,
* group (``group_rows``): one dense row holding the per-merit exposure gap
  of groups 0 and 1, oriented so only over-exposure of the higher-merit
  group is charged, and no row for a degenerate query.

The trainer's Monte-Carlo gradient, the exact enumeration oracle and the LP
baseline's constraint all derive from the same rows.  ``DisparityConfig``
builds a dataset query's rows of either kind once and keeps them with the
query, read-only.  The hinge applies after the expectation over rankings,
so a stochastic policy can be exactly fair even though every single
ranking is unfair.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Query
from .metrics import position_bias_vector
from .ranking import ENUMERATION_LIMIT, Ranking, as_ranking
from . import policy


@dataclass(frozen=True)
class MeritFunction:
    """Elementwise non-negative merit transform of relevance.

    Kinds: ``identity``, ``square``, ``sqrt``.  Relevances must be
    non-negative, which keeps every kind monotone non-decreasing with
    merit(0) = 0.
    """

    kind: str = "identity"

    def __post_init__(self):
        if self.kind not in ("identity", "square", "sqrt"):
            raise ValueError(f"unknown merit kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "MeritFunction":
        return cls(text.strip().lower())

    def __str__(self) -> str:
        return self.kind

    def __call__(self, relevances: np.ndarray) -> np.ndarray:
        rels = np.asarray(relevances, dtype=float)
        if np.any(rels < 0):
            raise ValueError("merit requires non-negative relevances")
        if self.kind == "square":
            return rels ** 2
        if self.kind == "sqrt":
            return np.sqrt(rels)
        return rels.copy()


def ranking_exposures(orders: np.ndarray) -> np.ndarray:
    """Attention each document receives from each ranking of a block of
    shape ``(..., n)``, such as ``(S, n)`` or ``(Q, S, n)``; the one
    definition of a ranking's exposure.  Rows are not validated."""
    orders = np.asarray(orders, dtype=np.intp)
    flat = orders.reshape(-1, orders.shape[-1])
    values = np.empty(flat.shape)
    values[np.arange(len(flat))[:, None], flat] = position_bias_vector(flat.shape[1])
    return values.reshape(orders.shape)


def exposure_of_ranking(order: Ranking) -> np.ndarray:
    """Attention each document receives from one fixed ranking."""
    order = as_ranking(order, np.asarray(order).shape[0])
    return ranking_exposures(order[None])[0]


@dataclass
class ExposureVector:
    """Per-document expected exposure plus how it was estimated.

    ``mode`` is ``"exact"`` (position marginals from the placed-subset DP)
    or ``"mc"``; ``num_samples`` is set for Monte-Carlo estimates only.
    ``values`` is ``(n,)``, or ``(Q, n)`` for a Monte-Carlo block of Q score
    vectors.
    """

    values: np.ndarray
    mode: str
    num_samples: int | None = None


def exposure_of_policy(scores: np.ndarray, mode: str = "auto",
                       num_samples: int = 32,
                       rng: np.random.Generator | None = None) -> ExposureVector:
    """Expected exposure under the Plackett-Luce policy at ``scores``.

    ``mode="exact"`` computes ``M @ position_bias_vector(n)`` from the
    position marginals ``M`` of ``policy.position_marginals``, a DP over
    placed subsets in O(2^n n) that draws no random numbers; it is refused
    above ``ENUMERATION_LIMIT`` documents.  ``mode="mc"`` averages over
    sampled rankings, and ``mode="auto"`` picks exact mode exactly when
    ``n <= ENUMERATION_LIMIT``.

    In Monte-Carlo mode ``scores`` may also be a ``(Q, n)`` block of Q score
    vectors: ``values`` is then ``(Q, n)``, drawn by one
    ``policy.sample_rankings`` call and reduced by one ``mc_exposure`` call,
    and equals Q calls on the rows one after another with the same ``rng``,
    bit for bit.  Exact mode takes one score vector.
    """
    s = np.asarray(scores, dtype=float)
    n = s.shape[-1]
    if mode == "auto":
        mode = "exact" if n <= ENUMERATION_LIMIT else "mc"
    if mode == "exact":
        if n > ENUMERATION_LIMIT:
            raise ValueError(
                f"exact exposure limited to {ENUMERATION_LIMIT} docs, got {n}")
        if s.ndim != 1:
            raise ValueError("exact exposure takes one score vector")
        values = policy.position_marginals(s) @ position_bias_vector(n)
        return ExposureVector(values=values, mode="exact")
    if mode != "mc":
        raise ValueError(f"unknown exposure mode {mode!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    orders = policy.sample_rankings(s, num_samples, rng)
    values = mc_exposure(orders.reshape(*s.shape[:-1], num_samples, n), n)
    return ExposureVector(values=values, mode="mc", num_samples=num_samples)


def mc_exposure(orders: np.ndarray, num_docs: int) -> np.ndarray:
    """Mean per-document exposure over an ``(S, num_docs)`` batch of sampled
    rankings, or over each ``(S, num_docs)`` batch of a ``(Q, S, num_docs)``
    block, giving ``(Q, num_docs)``; a block's rows are the means of its
    batches taken one at a time, bit for bit."""
    orders = np.asarray(orders)
    return ranking_exposures(orders).sum(axis=-2) / orders.shape[-2]


def merit_pairs(merits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs (i, j), i != j, with merit_i >= merit_j > 0.

    Equal positive merits appear in both orders.  Zero-merit documents are
    excluded entirely.
    """
    m = np.asarray(merits, dtype=float)
    mask = (m[:, None] >= m[None, :]) & (m[None, :] > 0.0)
    np.fill_diagonal(mask, False)
    return np.nonzero(mask)


@dataclass(frozen=True, eq=False)
class PairRows:
    """Hinge rows of individual disparity in pair form.

    Row k belongs to the pair ``(first[k], second[k])``; its gap at an
    exposure vector ``e`` is ``x[first[k]] - x[second[k]]`` with
    ``x = e * inv_merit``.  ``inv_merit`` is ``1/m``, and 0 for a zero merit,
    which is in no pair.  The arrays are read-only.
    """

    first: np.ndarray
    second: np.ndarray
    inv_merit: np.ndarray

    def __post_init__(self):
        for values in (self.first, self.second, self.inv_merit):
            values.flags.writeable = False

    def __len__(self) -> int:
        return len(self.first)


HingeRows = np.ndarray | PairRows


def individual_rows(merits: np.ndarray) -> PairRows:
    """Hinge rows of individual disparity, one per ``merit_pairs`` pair.

    Row (i, j) is the per-merit exposure gap ``e_i/m_i - e_j/m_j`` of the
    pair, in pair form; no rows when no pair qualifies.
    """
    m = np.asarray(merits, dtype=float)
    first, second = merit_pairs(m)
    inv_merit = np.divide(1.0, m, out=np.zeros(m.shape), where=m > 0.0)
    return PairRows(first, second, inv_merit)


def group_rows(merits: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Hinge row of group disparity between groups 0 and 1.

    The row is ``1/m0`` on group 0 and ``-1/m1`` on group 1 (``m_g`` the
    group's total merit), oriented by the sign of the mean-merit gap so
    that only over-exposure of the higher-merit group is charged.  Shape
    (0, n), no rows, when a group is absent, a group's total merit is not
    positive, or the mean merits tie.
    """
    m = np.asarray(merits, dtype=float)
    g = np.asarray(groups)
    in0, in1 = g == 0, g == 1
    n0, n1 = int(in0.sum()), int(in1.sum())
    m0, m1 = float(m[in0].sum()), float(m[in1].sum())
    if n0 == 0 or n1 == 0 or m0 <= 0.0 or m1 <= 0.0:
        return np.zeros((0, m.shape[0]))
    direction = float(np.sign(m0 / n0 - m1 / n1))
    if direction == 0.0:
        return np.zeros((0, m.shape[0]))
    return direction * (in0 / m0 - in1 / m1)[None, :]


def hinge_gaps(rows: HingeRows, exposures: np.ndarray) -> np.ndarray:
    """Each row's gap at an exposure vector: ``rows @ exposures`` for a dense
    row matrix, ``x_i - x_j`` with ``x = exposures * inv_merit`` for
    ``PairRows``."""
    e = np.asarray(exposures, dtype=float)
    if isinstance(rows, PairRows):
        x = e * rows.inv_merit
        return x[rows.first] - x[rows.second]
    return rows @ e


def hinge_weights(rows: HingeRows, active: np.ndarray) -> np.ndarray:
    """Gradient of ``hinge_mean`` wrt the exposures where the rows marked in
    ``active`` are the violated ones (a positive ``hinge_gaps`` entry): the
    sum of the active rows over the number of rows."""
    if isinstance(rows, PairRows):
        n = len(rows.inv_merit)
        counts = (np.bincount(rows.first[active], minlength=n)
                  - np.bincount(rows.second[active], minlength=n))
        return rows.inv_merit * counts / len(rows)
    return rows[active].sum(axis=0) / len(rows)


def hinge_mean(rows: HingeRows, exposures: np.ndarray) -> float:
    """Disparity of an exposure vector: mean of ``max(0, gap)`` over the
    rows' ``hinge_gaps``, zero when there are no rows."""
    if len(rows) == 0:
        return 0.0
    return float(np.maximum(hinge_gaps(rows, exposures), 0.0).mean())


def individual_disparity(exposures: np.ndarray, merits: np.ndarray) -> float:
    """Mean hinge violation of per-merit exposure over the merit pairs."""
    return hinge_mean(individual_rows(merits), exposures)


def group_disparity(exposures: np.ndarray, merits: np.ndarray,
                    groups: np.ndarray) -> float:
    """Hinge violation of per-merit exposure between groups 0 and 1."""
    return hinge_mean(group_rows(merits, groups), exposures)


@dataclass(frozen=True)
class DisparityConfig:
    """Which disparity to control and the merit transform feeding it."""

    kind: str = "group"
    merit: MeritFunction = field(default_factory=MeritFunction)

    def __post_init__(self):
        if self.kind not in ("individual", "group"):
            raise ValueError(f"unknown disparity kind {self.kind!r}")

    @classmethod
    def parse(cls, kind: str, merit: str = "identity") -> "DisparityConfig":
        return cls(kind=kind.strip().lower(), merit=MeritFunction.parse(merit))

    def rows(self, relevances: np.ndarray, groups: np.ndarray | None) -> HingeRows:
        """Hinge rows of this disparity for one query; a query without group
        labels has no group rows."""
        merits = self.merit(relevances)
        if self.kind == "individual":
            return individual_rows(merits)
        if groups is None:
            return np.zeros((0, merits.shape[0]))
        return group_rows(merits, groups)

    def query_rows(self, query: Query) -> HingeRows:
        """``rows`` of a dataset query, built on first use and kept with the
        query, read-only, for every later training step and evaluation."""
        return query.derived(("rows", self),
                             lambda: self.rows(query.relevances, query.groups))

    def from_exposures(self, exposures: np.ndarray, query: Query) -> float:
        """Disparity of an exposure vector for one query."""
        return hinge_mean(self.query_rows(query), exposures)
