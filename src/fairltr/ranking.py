"""Rankings over a candidate set and helpers shared across modules.

A ranking is a permutation of the candidate indices ``0..n-1`` stored as an
integer array, most attended position first.  ``ranking[j]`` is the index of
the document placed at position ``j + 1``.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

Ranking = np.ndarray

# Largest candidate count for exact policy expectations: exposure is exact
# up to it and Monte-Carlo above it, since the subset DP takes O(2^n n)
# memory.
ENUMERATION_LIMIT = 7


class InvalidRankingError(ValueError):
    """Raised when an index array is not a permutation of the candidates."""


def as_ranking(order: Iterable[int], num_docs: int) -> Ranking:
    """Validate ``order`` as a permutation of ``0..num_docs-1`` and return it.

    Raises:
        InvalidRankingError: wrong length, repeated index, or out-of-range
            index.
    """
    arr = np.asarray(list(order) if not isinstance(order, np.ndarray) else order,
                     dtype=np.intp)
    if arr.ndim != 1 or arr.shape[0] != num_docs:
        raise InvalidRankingError(
            f"ranking has length {arr.shape}, expected ({num_docs},)")
    seen = set()
    for idx in arr.tolist():  # Python ints compare faster than numpy scalars
        if idx < 0 or idx >= num_docs:
            raise InvalidRankingError(f"index {idx} out of range for {num_docs} docs")
        if idx in seen:
            raise InvalidRankingError(f"index {idx} repeated in ranking")
        seen.add(idx)
    return arr

