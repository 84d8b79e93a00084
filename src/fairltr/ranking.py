"""Rankings over a candidate set and helpers shared across modules.

A ranking is a permutation of the candidate indices ``0..n-1`` stored as an
integer array, most attended position first.  ``ranking[j]`` is the index of
the document placed at position ``j + 1``.

``at_rankings`` gathers per-document values at blocks of rankings, each row
of values at its own batch, through the flat offsets of ``row_offsets``.
"""
from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

Ranking = np.ndarray


class InvalidRankingError(ValueError):
    """Raised when an index array is not a permutation of the candidates."""


def as_ranking(order: Iterable[int], num_docs: int) -> Ranking:
    """Validate ``order`` as a permutation of ``0..num_docs-1`` and return it
    as an ``intp`` array.

    Raises:
        InvalidRankingError: a shape other than ``(num_docs,)``, or sorted
            values other than ``0..num_docs-1`` (a repeated or out-of-range
            index).
    """
    arr = np.asarray(list(order) if not isinstance(order, np.ndarray) else order,
                     dtype=np.intp)
    if arr.shape != (num_docs,) or not np.array_equal(np.sort(arr), np.arange(num_docs)):
        raise InvalidRankingError(f"{arr.tolist()} is not a permutation of "
                                  f"0..{num_docs - 1}")
    return arr


def at_rankings(values: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Each ``(n,)`` row of ``values`` gathered at its own batch of
    rankings.  ``values`` is ``(..., n)`` and ``orders`` ``(..., S, n)``,
    the axes before S ending with the values' leading axes; the result has
    the shape of ``orders``.  One ``(n,)`` vector is gathered at every
    ranking."""
    return values.reshape(-1)[orders + row_offsets(values.shape[:-1], values.shape[-1])]


@functools.lru_cache(maxsize=64)
def row_offsets(lead: tuple[int, ...], n: int) -> np.ndarray:
    """Where each row of ``(*lead, n)`` values starts in the flattened
    values, shaped ``(*lead, 1, 1)`` to offset each row's batch of
    rankings; read-only, built once per shape."""
    offsets = n * np.arange(math.prod(lead)).reshape(*lead, 1, 1)
    offsets.flags.writeable = False
    return offsets
