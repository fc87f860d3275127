"""Walker alias-method sampling.

Used as the "spend memory to gain speed" knob of Section 5.1: the alias
table takes O(V) extra memory but draws samples in O(1), whereas naive
inverse-CDF search draws in O(V).  The velocity benchmarks compare both to
demonstrate controlling data-generation velocity by changing the
generation *algorithm* rather than the degree of parallelism.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import GenerationError


class AliasSampler:
    """O(1) discrete sampling via Walker's alias method.

    ``probabilities`` is one distribution (1-D) or a stack of them (2-D,
    one distribution per row over the same outcomes).  Every row gets its
    own table, so a draw may name the row it comes from.
    """

    def __init__(self, probabilities: Sequence[float] | np.ndarray) -> None:
        weights = np.asarray(probabilities, dtype=np.float64)
        if weights.ndim not in (1, 2) or weights.size == 0:
            raise GenerationError(
                "probabilities must be a non-empty 1-D or 2-D sequence"
            )
        if np.any(weights < 0):
            raise GenerationError("probabilities must be non-negative")
        rows = np.atleast_2d(weights)
        totals = rows.sum(axis=1)
        if np.any(totals <= 0):
            raise GenerationError("probabilities must sum to a positive value")
        size = rows.shape[1]
        self._probability = np.zeros(rows.shape)
        self._alias = np.zeros(rows.shape, dtype=np.int64)
        for row, total in enumerate(totals):
            self._build_row(row, rows[row] * (size / total))

    def _build_row(self, row: int, scaled: np.ndarray) -> None:
        probability = self._probability[row]
        alias = self._alias[row]
        small = [i for i, w in enumerate(scaled) if w < 1.0]
        large = [i for i, w in enumerate(scaled) if w >= 1.0]
        while small and large:
            lo = small.pop()
            hi = large.pop()
            probability[lo] = scaled[lo]
            alias[lo] = hi
            scaled[hi] = scaled[hi] - (1.0 - scaled[lo])
            if scaled[hi] < 1.0:
                small.append(hi)
            else:
                large.append(hi)
        for remaining in large + small:
            probability[remaining] = 1.0
            alias[remaining] = remaining

    def __len__(self) -> int:
        """The number of outcomes each row draws from."""
        return self._probability.shape[1]

    def sample(
        self, rng: np.random.Generator, count: int, rows: int | np.ndarray = 0
    ) -> np.ndarray:
        """Draw ``count`` indexes distributed per the constructor weights.

        ``rows`` picks the distribution: one row index for every draw, or
        an array of ``count`` row indexes, one per draw.
        """
        columns = rng.integers(0, len(self), size=count)
        coins = rng.random(count)
        keep = coins < self._probability[rows, columns]
        return np.where(keep, columns, self._alias[rows, columns])


def naive_sample(
    rng: np.random.Generator, cumulative: np.ndarray, count: int
) -> np.ndarray:
    """O(V)-per-draw linear inverse-CDF sampling (the slow baseline).

    ``cumulative`` is the cumulative probability vector.  Deliberately a
    Python-level loop with linear scan: this is the inefficient algorithm
    whose replacement demonstrates the Section 5.1 velocity knob.
    """
    draws = np.empty(count, dtype=np.int64)
    for index in range(count):
        needle = rng.random()
        position = 0
        while position < len(cumulative) - 1 and cumulative[position] < needle:
            position += 1
        draws[index] = position
    return draws
