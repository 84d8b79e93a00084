"""Merit-weighted exposure and the disparity measures built on it.

Exposure of a document under a stochastic ranking policy is the expected
attention its position receives, using the same logarithmic position-bias
curve as the ranking metrics.  Fairness asks exposure to be proportional to
merit, a non-negative monotone transform of relevance.  Two violation
measures are defined:

* individual: average hinge violation over ordered pairs where the first
  document has at least the merit of the second (and the second has
  positive merit),
* group: hinge violation of per-merit exposure between two groups, charged
  only when the higher-merit group is over-exposed.

Both apply the hinge after the expectation over rankings, so a stochastic
policy can be exactly fair even though every single ranking is unfair.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def exposure_of_ranking(order: Ranking) -> np.ndarray:
    """Attention each document receives from one fixed ranking."""
    order = as_ranking(order, np.asarray(order).shape[0])
    n = order.shape[0]
    values = np.empty(n)
    values[order] = position_bias_vector(n)
    return values


@dataclass
class ExposureVector:
    """Per-document expected exposure plus how it was estimated.

    ``mode`` is ``"exact"`` (position marginals from the placed-subset DP)
    or ``"mc"``; ``num_samples`` is set for Monte-Carlo estimates only.
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
    """
    s = np.asarray(scores, dtype=float)
    n = s.shape[0]
    if mode == "auto":
        mode = "exact" if n <= ENUMERATION_LIMIT else "mc"
    if mode == "exact":
        if n > ENUMERATION_LIMIT:
            raise ValueError(
                f"exact exposure limited to {ENUMERATION_LIMIT} docs, got {n}")
        values = policy.position_marginals(s) @ position_bias_vector(n)
        return ExposureVector(values=values, mode="exact")
    if mode != "mc":
        raise ValueError(f"unknown exposure mode {mode!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    orders = policy.sample_rankings(s, num_samples, rng)
    return ExposureVector(values=mc_exposure(orders, n), mode="mc",
                          num_samples=num_samples)


def mc_exposure(orders: np.ndarray, num_docs: int) -> np.ndarray:
    """Mean per-document exposure over a batch of sampled rankings."""
    orders = np.asarray(orders, dtype=np.intp)
    bias = position_bias_vector(num_docs)
    values = np.zeros(num_docs)
    np.add.at(values, orders.ravel(), np.broadcast_to(bias, orders.shape).ravel())
    return values / orders.shape[0]


def merit_pairs(merits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs (i, j), i != j, with merit_i >= merit_j > 0.

    Equal positive merits appear in both orders.  Zero-merit documents are
    excluded entirely.
    """
    m = np.asarray(merits, dtype=float)
    mask = (m[:, None] >= m[None, :]) & (m[None, :] > 0.0)
    np.fill_diagonal(mask, False)
    return np.nonzero(mask)


def individual_disparity(exposures: np.ndarray, merits: np.ndarray) -> float:
    """Mean hinge violation of per-merit exposure over the merit pairs.

    Zero when no pair qualifies.
    """
    m = np.asarray(merits, dtype=float)
    v = np.asarray(exposures, dtype=float)
    ii, jj = merit_pairs(m)
    if ii.size == 0:
        return 0.0
    gaps = v[ii] / m[ii] - v[jj] / m[jj]
    return float(np.maximum(gaps, 0.0).mean())


def _group_sums(values: np.ndarray, groups: np.ndarray) -> tuple[float, float]:
    g = np.asarray(groups)
    return float(values[g == 0].sum()), float(values[g == 1].sum())


def group_disparity(exposures: np.ndarray, merits: np.ndarray,
                    groups: np.ndarray) -> float:
    """Hinge violation of per-merit exposure between groups 0 and 1.

    Per-merit exposure of a group is its mean exposure over its mean merit.
    Only over-exposure of the higher-merit group is charged; at an exact
    merit tie, and whenever a group is absent or has zero total merit, the
    disparity is zero.
    """
    v = np.asarray(exposures, dtype=float)
    m = np.asarray(merits, dtype=float)
    g = np.asarray(groups)
    n0 = int((g == 0).sum())
    n1 = int((g == 1).sum())
    if n0 == 0 or n1 == 0:
        return 0.0
    m0, m1 = _group_sums(m, g)
    if m0 <= 0.0 or m1 <= 0.0:
        return 0.0
    v0, v1 = _group_sums(v, g)
    direction = np.sign(m0 / n0 - m1 / n1)
    if direction == 0.0:
        return 0.0
    return float(max(0.0, direction * (v0 / m0 - v1 / m1)))


def ranking_pair_term(order: Ranking, merits: np.ndarray, i: int, j: int) -> float:
    """Per-merit exposure gap of documents ``i`` and ``j`` in one ranking.

    This is the inner quantity whose expectation the individual disparity
    hinges on; it can be negative for a single ranking.
    """
    m = np.asarray(merits, dtype=float)
    if m[i] <= 0.0 or m[j] <= 0.0:
        raise ValueError("pair term requires positive merits for both documents")
    v = exposure_of_ranking(order)
    return float(v[i] / m[i] - v[j] / m[j])


def ranking_group_term(order: Ranking, merits: np.ndarray,
                       groups: np.ndarray) -> float:
    """Group per-merit exposure difference (group 0 minus group 1) for one
    ranking, using total exposure over total merit per group."""
    m = np.asarray(merits, dtype=float)
    g = np.asarray(groups)
    if not ((g == 0).any() and (g == 1).any()):
        raise ValueError("group term requires both groups present")
    m0, m1 = _group_sums(m, g)
    if m0 <= 0.0 or m1 <= 0.0:
        raise ValueError("group term requires positive total merit per group")
    v = exposure_of_ranking(order)
    v0, v1 = _group_sums(v, g)
    return v0 / m0 - v1 / m1


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

    def from_exposures(self, exposures: np.ndarray, relevances: np.ndarray,
                       groups: np.ndarray | None) -> float:
        """Disparity of an exposure vector for one query.

        Group disparity of a query without group labels, with a single
        group, or with zero group merit counts as zero.
        """
        merits = self.merit(relevances)
        if self.kind == "individual":
            return individual_disparity(exposures, merits)
        if groups is None:
            return 0.0
        return group_disparity(exposures, merits, groups)
