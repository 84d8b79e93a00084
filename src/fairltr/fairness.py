"""Merit-weighted exposure and the disparity measures built on it.

Exposure of a document under a stochastic ranking policy is the expected
attention its position receives, using the same logarithmic position-bias
curve as the ranking metrics.  Fairness asks exposure to be proportional to
merit, a non-negative monotone transform of relevance.

The exposure of rankings is defined once, over an ``(S, n)`` block or a
``(Q, S, n)`` block of Q such batches, by ``ranking_exposures``, and the
Monte-Carlo estimate ``mc_exposure`` is the mean row of each ``(S, n)``
batch.

Each disparity is defined once, by hinge rows: linear functions of the
expected exposure vector whose positive parts are the violations, the
disparity being their mean, and zero without rows.
``DisparityConfig.rows`` builds the rows of ``(Q, n)`` relevances and
groups in one vectorized pass, as a tuple of arrays whose row q is query
q's, and ``DisparityConfig.from_exposures`` values ``(..., Q, n)``
exposure vectors under them.

* individual (``individual_rows``): one row per ordered pair where the
  first document has at least the merit of the second and the second has
  positive merit, holding the pair's per-merit exposure gap.  The rows are
  a ``(Q, n, n)`` pair mask with ``(Q, n)`` inverse merits, and a gap is
  ``x_i - x_j`` with ``x = exposures / merit`` (``pair_gaps``), exactly 0
  for equal merits and exposures; ``hinge_weights`` is the disparity's
  gradient wrt the exposures.
* group (``group_rows``): one dense ``(Q, n)`` row holding the per-merit
  exposure gap of groups 0 and 1, oriented so only over-exposure of the
  higher-merit group is charged, and a zero row for a degenerate query.

The trainer's Monte-Carlo gradient, the tests' exact enumeration oracle
and the LP baseline's constraint all derive from the same rows.  The
hinge applies after the expectation over rankings, so a stochastic policy
can be exactly fair even though every single ranking is unfair.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import position_bias_vector
from .ranking import ENUMERATION_LIMIT
from . import policy

# The hinge rows of Q queries, arrays whose row q is query q's: a pair mask
# and inverse merits for individual disparity, one dense row for group.
Rows = tuple[np.ndarray, ...]


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


def individual_rows(merits: np.ndarray) -> Rows:
    """Hinge rows of individual disparity, ``(mask, inv_merit)``.

    ``mask[..., i, j]`` marks the ordered pair (i, j), i != j, with merit_i
    >= merit_j > 0, whose row is the per-merit exposure gap ``e_i/m_i -
    e_j/m_j``: equal positive merits pair in both orders, and a zero merit
    in none.  ``inv_merit`` is ``1/m``, and 0 for a zero merit.  ``(...,
    n)`` merits give ``(..., n, n)`` masks and ``(..., n)`` inverse merits.
    """
    m = np.asarray(merits, dtype=float)
    mask = (m[..., :, None] >= m[..., None, :]) & (m[..., None, :] > 0.0)
    diagonal = np.arange(m.shape[-1])
    mask[..., diagonal, diagonal] = False
    return mask, np.divide(1.0, m, out=np.zeros(m.shape), where=m > 0.0)


def group_rows(merits: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Hinge row of group disparity between groups 0 and 1 of each
    ``(..., n)`` merit and group vector, ``(..., n)``.

    The row is ``1/m0`` on group 0 and ``-1/m1`` on group 1 (``m_g`` the
    group's total merit), oriented by the sign of the mean-merit gap so
    that only over-exposure of the higher-merit group is charged.  It is
    zero when a group is absent, a group's total merit is not positive, or
    the mean merits tie.
    """
    m = np.asarray(merits, dtype=float)
    g = np.asarray(groups)
    in0, in1 = g == 0, g == 1
    m0, m1 = np.where(in0, m, 0.0).sum(axis=-1), np.where(in1, m, 0.0).sum(axis=-1)
    # An absent group has no merit.  A query without a row divides by 1
    # instead of its groups' totals and sizes, so its gap is 0.
    live = (m0 > 0.0) & (m1 > 0.0)
    m0, m1, n0, n1 = (np.where(live, value, 1.0) for value in
                      (m0, m1, in0.sum(axis=-1), in1.sum(axis=-1)))
    direction = np.sign(m0 / n0 - m1 / n1)[..., None]
    return np.where(direction != 0.0,
                    direction * (in0 / m0[..., None] - in1 / m1[..., None]), 0.0)


def pair_gaps(rows: Rows, exposures: np.ndarray) -> np.ndarray:
    """``x_i - x_j`` of every ordered pair (i, j), ``x = exposures *
    inv_merit`` under individual ``rows``: ``(..., n)`` exposure vectors
    give ``(..., n, n)``; the rows' mask picks the pairs that are rows."""
    x = np.asarray(exposures, dtype=float) * rows[1]
    return x[..., :, None] - x[..., None, :]


def hinge_weights(rows: Rows, exposures: np.ndarray) -> np.ndarray:
    """Gradient of the individual disparity under ``rows`` wrt the
    exposures, with each pair's hinge indicator taken at ``exposures``:
    the sum of the active (positive-gap) pair rows over the number of
    rows, ``(..., n)`` for ``(..., n)`` exposures.  Without an active row it
    is exactly zero."""
    mask, inv_merit = rows
    # A gap x_i - x_j is positive where x_i > x_j.
    x = np.asarray(exposures, dtype=float) * inv_merit
    active = mask & (x[..., :, None] > x[..., None, :])
    counts = active.sum(axis=-1) - active.sum(axis=-2)
    return inv_merit * counts / _pair_counts(mask)[..., None]


def _pair_counts(mask: np.ndarray) -> np.ndarray:
    """The number of pair rows of each mask, 1 for a mask without rows."""
    return np.maximum(mask.sum(axis=(-2, -1)), 1)


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

    def rows(self, relevances: np.ndarray, groups: np.ndarray | None) -> Rows:
        """Hinge rows of this disparity of ``(..., n)`` relevances and
        groups, built in one pass, as a tuple of arrays whose leading axes
        are the relevances': ``individual_rows``, or the one ``group_rows``
        row, a zero row for queries without group labels."""
        merits = self.merit(relevances)
        if self.kind == "individual":
            return individual_rows(merits)
        return (np.zeros(merits.shape) if groups is None else group_rows(merits, groups),)

    def from_exposures(self, exposures: np.ndarray, rows: Rows) -> np.ndarray:
        """The disparity of each of ``(..., Q, n)`` exposure vectors under
        ``rows`` of Q queries, ``(..., Q)``: the mean of the positive parts
        of the rows' gaps, and 0 without rows.  A group row's gap is its
        product with the vector; the pair rows' gaps are ``pair_gaps``."""
        if self.kind == "group":
            return np.maximum((exposures * rows[0]).sum(axis=-1), 0.0)
        mask = rows[0]
        # The positive parts of the pair rows' gaps, in the gaps' buffer.
        hinges = pair_gaps(rows, exposures)
        np.maximum(hinges, 0.0, out=hinges)
        hinges *= mask
        return hinges.sum(axis=(-2, -1)) / _pair_counts(mask)
