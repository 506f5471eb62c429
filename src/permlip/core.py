"""Permutation words, the 132-pattern test, and the adjacent-jump bound.

A permutation of length n is a tuple containing each of 1..n exactly once
(one-line notation).  Positions are 1-based throughout, so ``word[k - 1]``
is the entry at position k.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from operator import sub

__all__ = [
    "MaxSplit",
    "avoids_132",
    "in_class",
    "max_adjacent_jump",
    "prefix_extension_ok",
    "satisfies_adjacency",
    "split_at_max",
]


def avoids_132(word) -> bool:
    """Reference pattern test: no positions i < j < k with word_i < word_k < word_j.

    Deliberately the naive scan over all index triples.  It is the ground
    truth against which the incremental test ``prefix_extension_ok`` is
    validated, so it must stay definition-shaped.
    """
    for i, j, k in combinations(range(len(word)), 3):
        if word[i] < word[k] < word[j]:
            return False
    return True


def max_adjacent_jump(word) -> int:
    """Largest |word_{i+1} - word_i| over consecutive positions; 0 for length 1."""
    return max(map(abs, map(sub, word[1:], word)), default=0)


def satisfies_adjacency(word, m: int) -> bool:
    """True iff every consecutive jump has size at most m."""
    if m < 1:
        raise ValueError(f"jump bound must be a positive integer, got {m}")
    return max_adjacent_jump(word) <= m


def in_class(word, m: int) -> bool:
    """Class membership: word avoids 132 and every jump is at most m.
    Assumes a permutation: a repeated entry such as (1, 1, 1) passes."""
    return satisfies_adjacency(word, m) and avoids_132(word)


def prefix_extension_ok(prefix, value: int, m: int) -> bool:
    """Incremental membership test for growing a word left to right.

    Assumes ``prefix`` is a partial one-line word that already avoids 132
    and satisfies the jump bound, and that ``value`` is unused.  Appending
    ``value`` preserves both properties iff the final jump is at most m and
    ``value`` does not complete a 132: it must not lie strictly between the
    running minimum and any later prefix entry.  O(len(prefix)) per call.
    """
    if prefix and abs(value - prefix[-1]) > m:
        return False
    lowest = None
    for entry in prefix:
        if lowest is not None and lowest < value < entry:
            return False
        if lowest is None or entry < lowest:
            lowest = entry
    return True


class MaxSplit(namedtuple("MaxSplit", "left position right")):
    """Decomposition word = left + (max,) + right around the maximum entry.

    ``position`` is the 1-based position of the maximum.  For a word that
    avoids 132, every entry of ``left`` exceeds every entry of ``right``.
    """

    __slots__ = ()


def split_at_max(word) -> MaxSplit:
    """Split any nonempty permutation at its maximum; the empty word raises ValueError."""
    k = word.index(len(word))
    return MaxSplit(tuple(word[:k]), k + 1, tuple(word[k + 1:]))
