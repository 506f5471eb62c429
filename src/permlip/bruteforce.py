"""Brute-force ground truth for the bounded-jump 132-avoiding classes.

The searches :func:`count`, :func:`members` and :func:`max_position_census`
are driven only by the defining predicates (pattern test plus jump bound),
with no structural shortcuts and no closed forms, so they stay valid as an
independent oracle for the constructions and counts implemented elsewhere
in the package.

The module also holds the CLI's Catalan routes, used at bounds m >= n - 1
where every 132-avoider counts: :func:`catalan` (the binomial),
:func:`catalan_numbers` and :func:`catalan_by_recurrence`.  They live here
because ``cli`` imports this module up front, so they cost no further
import; none of the searches uses them.

Work grows exponentially with n, so searches refuse to run above a
ceiling: default 14, moved only through the environment variable
``PERMLIP_CEILING``.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from itertools import islice

from .core import prefix_extension_ok

__all__ = [
    "CEILING_ENV_VAR",
    "CeilingExceeded",
    "DEFAULT_CEILING",
    "brute_force_ceiling",
    "catalan",
    "catalan_by_recurrence",
    "catalan_numbers",
    "count",
    "max_position_census",
    "members",
]

DEFAULT_CEILING = 14
CEILING_ENV_VAR = "PERMLIP_CEILING"


class CeilingExceeded(Exception):
    """Requested length is above the configured brute-force ceiling."""


def brute_force_ceiling() -> int:
    """Active ceiling: the environment override if set, else the default."""
    raw = os.environ.get(CEILING_ENV_VAR)
    if raw is None:
        return DEFAULT_CEILING
    error = ValueError(f"{CEILING_ENV_VAR} must be a positive integer, got {raw!r}")
    try:
        value = int(raw)
    except ValueError:
        raise error from None
    if value < 1:
        raise error
    return value


def _check_args(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"length must be a positive integer, got {n}")
    if m < 1:
        raise ValueError(f"jump bound must be a positive integer, got {m}")
    limit = brute_force_ceiling()
    if n > limit:
        raise CeilingExceeded(f"n={n} exceeds brute-force ceiling {limit}")


def count(n: int, m: int, visit=None) -> int:
    """Number of length-n permutations avoiding 132 with all jumps <= m.

    Exact, by depth-first search over prefixes, extended only where the
    defining predicate allows.  This is the oracle's one walk: a given
    ``visit`` is called on each complete member, in lexicographic order,
    as the working prefix list (copy it to keep it); :func:`members` and
    :func:`max_position_census` are such visitors.
    """
    _check_args(n, m)
    used = [False] * (n + 1)
    prefix: list[int] = []

    def walk(lo: int, hi: int) -> int:
        if len(prefix) == n:
            if visit is not None:
                visit(prefix)
            return 1
        total = 0
        # Candidates lie in the adjacency window lo..hi around the last entry;
        # that is part of the definition, not a structural shortcut.
        # Ascending order makes the search lexicographic.
        for v in range(lo, hi + 1):
            if not used[v] and prefix_extension_ok(prefix, v, m):
                used[v] = True
                prefix.append(v)
                total += walk(max(1, v - m), min(n, v + m))
                prefix.pop()
                used[v] = False
        return total

    return walk(1, n)


def members(n: int, m: int) -> list[tuple[int, ...]]:
    """All class members of length n in lexicographic order, collected
    from the walk of :func:`count`."""
    out: list[tuple[int, ...]] = []
    count(n, m, lambda prefix: out.append(tuple(prefix)))
    return out


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"catalan index must be nonnegative, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def catalan_numbers() -> Iterator[int]:
    """C_0, C_1, ... without end, by C_k = C_(k-1) * 2(2k - 1) / (k + 1):
    one product of a big int by a small one per term."""
    c, k = 1, 0
    while True:
        yield c
        k += 1
        c = c * 2 * (2 * k - 1) // (k + 1)


def catalan_by_recurrence(n: int) -> int:
    """The n-th Catalan number read off :func:`catalan_numbers`, as a route
    independent of the binomial in :func:`catalan`."""
    if n < 0:
        raise ValueError(f"catalan index must be nonnegative, got {n}")
    return next(islice(catalan_numbers(), n, None))


def max_position_census(n: int, m: int) -> dict[int, int]:
    """Histogram of the 1-based position of the entry n across the class.

    Only positions that actually occur appear as keys, so the key set is
    the realized support.  Each member is tallied as the walk of
    :func:`count` visits it, so memory stays O(n), not the size of the class.
    """
    hist: dict[int, int] = {}

    def tally(prefix: list[int]) -> None:
        pos = prefix.index(n) + 1
        hist[pos] = hist.get(pos, 0) + 1

    count(n, m, tally)
    return dict(sorted(hist.items()))
