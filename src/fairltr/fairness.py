"""Merit-weighted exposure and the disparity measures built on it.

Exposure of a document under a stochastic ranking policy is the expected
attention its position receives, using the same logarithmic position-bias
curve as the ranking metrics.  Fairness asks exposure to be proportional to
merit, a non-negative monotone transform of relevance.

The exposure of rankings is defined once, over an ``(S, n)`` block or a
``(Q, S, n)`` block of Q such batches, by ``ranking_exposures``, and the
Monte-Carlo estimate ``mc_exposure`` is the mean row of each ``(S, n)``
batch.

Each disparity is defined once, as hinge rows: linear functions of the
expected exposure vector whose positive parts are the violations.  The
disparity is ``hinge_mean(rows, exposures)``, the mean of the positive
parts of ``hinge_gaps(rows, exposures)``, and zero when there are no rows;
``hinge_weights`` gives the gradient of pair rows wrt the exposures (a
dense row is its own).  So the individual disparity of an exposure vector
``e`` is ``hinge_mean(individual_rows(merits), e)`` and the group disparity
``hinge_mean(group_rows(merits, groups), e)``.

* individual (``individual_rows``): one row per ordered pair where the
  first document has at least the merit of the second and the second has
  positive merit, holding the pair's per-merit exposure gap.  The rows are
  kept in pair form (``PairRows``): the pair indices and ``1/merit``, so
  they grow with the number of pairs, and a gap is ``x_i - x_j`` with
  ``x = exposures / merit``, exactly 0 for equal merits and exposures,
* group (``group_rows``): one dense row holding the per-merit exposure gap
  of groups 0 and 1, oriented so only over-exposure of the higher-merit
  group is charged, and no row for a degenerate query.

The trainer's Monte-Carlo gradient, the tests' exact enumeration oracle
and the LP baseline's constraint all derive from the same rows.
``DisparityConfig`` builds a dataset query's rows of either kind once and
keeps them with the query, read-only; a run of equal-size queries builds
them in one pass over its stacked merits (``run_rows``), and
``from_exposures`` values a block of queries' exposures in one call.  The
hinge applies after the expectation over rankings, so a stochastic policy
can be exactly fair even though every single ranking is unfair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import Query
from .metrics import position_bias_vector
from .ranking import ENUMERATION_LIMIT
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


@dataclass
class ExposureVector:
    """Per-document expected exposure plus how it was estimated.

    ``mode`` is ``"exact"`` (position marginals from the placed-subset DP)
    or ``"mc"``.  ``values`` has the shape of the scores: ``(n,)``, or
    ``(Q, n)`` or ``(K, Q, n)`` for a block.
    """

    values: np.ndarray
    mode: str


def exposure_of_policy(scores: np.ndarray, num_samples: int = 32,
                       rng: np.random.Generator | None = None) -> ExposureVector:
    """Expected exposure under the Plackett-Luce policy at ``scores``.

    ``scores`` is one score vector, a ``(Q, n)`` block of Q score vectors,
    or a ``(K, Q, n)`` block of K members' score blocks, and ``values`` has
    the same shape.

    Up to ``ENUMERATION_LIMIT`` documents it is exact: ``M @
    position_bias_vector(n)`` from the position marginals ``M`` of
    ``policy.position_marginals``, one DP over placed subsets in O(2^n n)
    for the whole block, which draws no random numbers.  Every vector's
    values have the bits of a call on that vector alone.

    Above it, it is the mean over ``num_samples`` sampled rankings.  A
    ``(Q, n)`` block equals Q calls on the rows one after another with the
    same ``rng``, bit for bit, and member k of a ``(K, Q, n)`` block equals
    a call on ``scores[k]`` alone with ``rng`` in the same state.  The one
    ``(Q, num_samples, n)`` draw is made once (``policy.gumbel_noise``);
    each member ranks by it (``policy.sample_rankings``) and reduces
    (``mc_exposure``) in turn, so no member block of rankings is built.
    """
    s = np.asarray(scores, dtype=float)
    n = s.shape[-1]
    if n <= ENUMERATION_LIMIT:
        values = policy.position_marginals(s) @ position_bias_vector(n)
        return ExposureVector(values=values, mode="exact")
    if rng is None:
        rng = np.random.default_rng(0)
    members = s if s.ndim == 3 else s[None]
    shape = (*members.shape[1:-1], num_samples, n)
    noise = policy.gumbel_noise(rng, shape)
    values = np.array([
        mc_exposure(policy.sample_rankings(member, noise).reshape(shape), n)
        for member in members])
    return ExposureVector(values=values if s.ndim == 3 else values[0], mode="mc")


def mc_exposure(orders: np.ndarray, num_docs: int) -> np.ndarray:
    """Mean per-document exposure over an ``(S, num_docs)`` batch of sampled
    rankings, or over each ``(S, num_docs)`` batch of a ``(Q, S, num_docs)``
    block, giving ``(Q, num_docs)``; a block's rows are the means of its
    batches taken one at a time, bit for bit.

    It is the mean of the batch's ``ranking_exposures``, summed by one
    weighted ``bincount`` of the position bias over the whole block, each
    batch's documents offset by ``num_docs``: every document adds its
    attention in ranking order, as a sum over the batch's rows would.
    """
    orders = np.asarray(orders, dtype=np.intp)
    batches = orders.reshape(-1, *orders.shape[-2:])
    index = batches + num_docs * np.arange(len(batches))[:, None, None]
    attention = np.broadcast_to(position_bias_vector(num_docs), batches.shape)
    sums = np.bincount(index.reshape(-1), attention.reshape(-1),
                       minlength=len(batches) * num_docs)
    return sums.reshape(*orders.shape[:-2], num_docs) / orders.shape[-2]


def merit_pairs(merits: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ordered pairs (i, j), i != j, with merit_i >= merit_j > 0.

    Equal positive merits appear in both orders.  Zero-merit documents are
    excluded entirely.  A ``(Q, n)`` block of merit vectors gives the
    triples (q, i, j), each query's pairs in the order of its own call.
    """
    m = np.asarray(merits, dtype=float)
    mask = (m[..., :, None] >= m[..., None, :]) & (m[..., None, :] > 0.0)
    diagonal = np.arange(m.shape[-1])
    mask[..., diagonal, diagonal] = False
    return np.nonzero(mask)


@dataclass(frozen=True, eq=False)
class PairRows:
    """Hinge rows of individual disparity in pair form.

    Row k belongs to the pair ``(first[k], second[k])``; its gap at an
    exposure vector ``e`` is ``x[first[k]] - x[second[k]]`` with
    ``x = e * inv_merit``.  ``inv_merit`` is ``1/m``, and 0 for a zero merit,
    which is in no pair.  The arrays are read-only.  A stack of R queries'
    rows with P pairs each holds ``(R, P)`` indices and ``(R, n)`` inverse
    merits, and its gaps at ``(..., R, n)`` exposures are ``(..., R, P)``.
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


def individual_rows(merits: np.ndarray) -> PairRows | list[PairRows]:
    """Hinge rows of individual disparity, one per ``merit_pairs`` pair.

    Row (i, j) is the per-merit exposure gap ``e_i/m_i - e_j/m_j`` of the
    pair, in pair form; no rows when no pair qualifies.  A ``(Q, n)`` block
    of merit vectors gives the list of each one's rows, built in one pass.
    """
    m = np.asarray(merits, dtype=float)
    stack = m.reshape(-1, m.shape[-1])
    owner, first, second = merit_pairs(stack)
    # The pair indices are rows of one (3, pairs) array from nonzero; kept
    # as copies, the owner row is freed.
    first, second = first.copy(), second.copy()
    inv_merit = np.divide(1.0, stack, out=np.zeros(stack.shape), where=stack > 0.0)
    cuts = np.cumsum(np.bincount(owner, minlength=len(stack)))[:-1]
    rows = [PairRows(*each) for each in zip(np.split(first, cuts),
                                            np.split(second, cuts), inv_merit)]
    return rows if m.ndim == 2 else rows[0]


def group_rows(merits: np.ndarray, groups: np.ndarray) -> np.ndarray | list[np.ndarray]:
    """Hinge row of group disparity between groups 0 and 1.

    The row is ``1/m0`` on group 0 and ``-1/m1`` on group 1 (``m_g`` the
    group's total merit), oriented by the sign of the mean-merit gap so
    that only over-exposure of the higher-merit group is charged.  Shape
    (0, n), no rows, when a group is absent, a group's total merit is not
    positive, or the mean merits tie.  A ``(Q, n)`` block of merit and group
    vectors gives the list of each one's rows, built in one pass: ``(1,
    n)`` or ``(0, n)`` views of one matrix.
    """
    m = np.asarray(merits, dtype=float)
    stack = m.reshape(-1, m.shape[-1])
    g = np.asarray(groups).reshape(stack.shape)
    in0, in1 = g == 0, g == 1
    (sizes0, totals0), (sizes1, totals1) = \
        _selected_sums(stack, in0), _selected_sums(stack, in1)
    # The mean-merit gap of each query; 0, so no row, where a group is
    # absent or has no merit.
    gaps = [m0 / n0 - m1 / n1 if n0 and n1 and m0 > 0.0 and m1 > 0.0 else 0.0
            for n0, m0, n1, m1 in zip(sizes0, totals0.tolist(),
                                      sizes1, totals1.tolist())]
    direction = np.sign(gaps)
    live = direction != 0.0
    # A query without a row divides by 1 instead of its total.
    totals0[~live] = totals1[~live] = 1.0
    dense = direction[:, None] * (in0 / totals0[:, None] - in1 / totals1[:, None])
    rows = [dense[q:q + 1] if alive else dense[q:q]
            for q, alive in enumerate(live.tolist())]
    return rows if m.ndim == 2 else rows[0]


def _selected_sums(values: np.ndarray, mask: np.ndarray) -> tuple[list[int], np.ndarray]:
    """How many entries each row q of ``(Q, n)`` arrays selects, and
    ``values[q][mask[q]].sum()``, with those bits.  The rows that select
    equally many entries are summed as one contiguous ``(R, c)`` block,
    whose row sums are the one-row sums; a masked sum over whole rows would
    add in another order."""
    counts = mask.sum(axis=-1)
    sizes = counts.tolist()
    distinct = set(sizes)
    if len(distinct) == 1:
        return sizes, values[mask].reshape(len(values), sizes[0]).sum(axis=-1)
    sums = np.zeros(len(values))
    for count in distinct - {0}:
        rows = counts == count
        sums[rows] = values[rows][mask[rows]].reshape(-1, count).sum(axis=-1)
    return sizes, sums


def hinge_gaps(rows: HingeRows, exposures: np.ndarray) -> np.ndarray:
    """Each row's gap at an exposure vector: ``rows @ exposures`` for a dense
    row matrix, ``x_i - x_j`` with ``x = exposures * inv_merit`` for
    ``PairRows``.  A ``(K, n)`` block of exposure vectors gives ``(K, rows)``
    gaps, each vector's with the bits of its own call.  A stack of R
    queries' rows, ``(R, rows, n)`` dense or stacked ``PairRows``, at
    ``(K, R, n)`` exposures gives ``(K, R, rows)`` gaps, each query's with
    the bits of its own call."""
    e = np.asarray(exposures, dtype=float)
    if isinstance(rows, PairRows):
        x = e * rows.inv_merit
        if rows.first.ndim == 1:
            return x.take(rows.first, axis=-1) - x.take(rows.second, axis=-1)
        # Each query's pairs index its own vector of the flattened block;
        # take keeps the gaps C-ordered, so each query's mean adds its gaps
        # as its own call does.
        offsets = x.shape[-1] * np.arange(len(rows.first))[:, None]
        flat = x.reshape(*x.shape[:-2], -1)
        return flat.take(rows.first + offsets, axis=-1) \
            - flat.take(rows.second + offsets, axis=-1)
    return (rows @ e[..., None])[..., 0]


def hinge_weights(rows: PairRows, active: np.ndarray) -> np.ndarray:
    """Gradient of ``hinge_mean`` of pair rows wrt the exposures where the
    rows marked in ``active`` are the violated ones (a positive
    ``hinge_gaps`` entry): the sum of the active rows over the number of
    rows.  A ``(K, rows)`` block of masks gives ``(K, n)`` weights, each
    with the bits of its own call.

    Each document's active pairs are counted by one ``bincount`` over all
    masks, each mask's documents offset by ``n``.  (A dense row is its own
    gradient row; the trainer values dense rows at each sampled ranking
    directly, ``trainer.hinge_sample_weights``.)
    """
    active = np.asarray(active, dtype=bool)
    lead = active.shape[:-1]
    n, masks = len(rows.inv_merit), math.prod(lead)
    mask, row = np.nonzero(active.reshape(masks, len(rows)))
    offset = n * mask
    counts = np.bincount(rows.first[row] + offset, minlength=n * masks)
    counts -= np.bincount(rows.second[row] + offset, minlength=n * masks)
    return rows.inv_merit * counts.reshape(*lead, n) / len(rows)


def hinge_mean(rows: HingeRows, exposures: np.ndarray) -> float | np.ndarray:
    """Disparity of an exposure vector: mean of ``max(0, gap)`` over the
    rows' ``hinge_gaps``, zero when there are no rows.  A ``(K, n)`` block
    of exposure vectors gives ``(K,)`` disparities, each with the bits of
    its own call."""
    e = np.asarray(exposures, dtype=float)
    if len(rows) == 0:
        return 0.0 if e.ndim == 1 else np.zeros(e.shape[:-1])
    means = np.maximum(hinge_gaps(rows, e), 0.0).mean(axis=-1)
    return float(means) if e.ndim == 1 else means


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

    def rows(self, relevances: np.ndarray,
             groups: np.ndarray | None) -> HingeRows | list[HingeRows]:
        """Hinge rows of this disparity for one query; a query without group
        labels has no group rows.  ``(Q, n)`` relevances and groups give the
        list of each query's rows, built in one pass."""
        merits = self.merit(relevances)
        if self.kind == "individual":
            return individual_rows(merits)
        if groups is None:
            none = np.zeros((0, merits.shape[-1]))
            return none if merits.ndim == 1 else [none] * len(merits)
        return group_rows(merits, groups)

    def query_rows(self, query: Query) -> HingeRows:
        """``rows`` of a dataset query, built on first use and kept with the
        query, read-only, for every later training step and evaluation."""
        return query.derived(("rows", self),
                             lambda: self.rows(query.relevances, query.groups))

    def run_rows(self, queries: Sequence[Query]) -> list[HingeRows]:
        """``query_rows`` of each query of a run of equal-size queries; the
        queries without theirs get them from one pass over the run."""
        def build(missing):
            groups = None if missing[0].groups is None else \
                np.array([q.groups for q in missing])
            return self.rows(np.array([q.relevances for q in missing]), groups)

        return Query.derived_of_run(queries, ("rows", self), build)

    def from_exposures(self, exposures: np.ndarray,
                       queries: Sequence[Query]) -> np.ndarray:
        """Disparities ``(K, Q)`` of K members' ``(K, Q, n)`` exposure vectors
        for a block of Q queries of n documents each, each with the bits of
        ``hinge_mean`` of its query's rows and vector alone.

        The queries with equally many rows are valued as one stack: the
        group rows by one ``(R, 1, n) @ (K, R, n, 1)`` product, the pair
        rows by one ``(K, R, P)`` gap block.  A query without rows has
        disparity 0.
        """
        rows = self.run_rows(queries)
        e = np.asarray(exposures, dtype=float)
        disparities = np.zeros(e.shape[:-1])
        sizes = np.array([len(each) for each in rows])
        for size in set(sizes.tolist()) - {0}:
            at = np.flatnonzero(sizes == size)
            disparities[:, at] = hinge_mean(_stack([rows[q] for q in at]),
                                            e.take(at, axis=1))
        return disparities


def _stack(rows: list[HingeRows]) -> HingeRows:
    """The rows of R queries with equally many rows, stacked: ``(R, rows,
    n)`` dense, or ``PairRows`` of ``(R, P)`` indices."""
    if isinstance(rows[0], PairRows):
        return PairRows(*(np.array([getattr(each, name) for each in rows])
                          for name in ("first", "second", "inv_merit")))
    return np.array(rows)
