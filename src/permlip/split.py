"""Exact counts for every jump bound from the split at the maximum.

A 132-avoider of length n splits as pi = alpha n beta with every entry of
alpha above every entry of beta (Simion and Schmidt, "Restricted
permutations", Europ. J. Combin. 1985), and alpha and beta are 132-avoiders
themselves.  Under the jump bound m the split adds two jumps, last(alpha)
to n and n to first(beta); when beta is nonempty the second forces
|alpha| <= m - 1, the paper's fact that n sits only in positions 1..m or n.

So a member is glued from a member alpha of length a in 0..m - 1 and a
member beta of length n - 1 - a, or is a member of length n - 1 followed by
n.  Whether a glue is allowed, and the new first and last entries, depend
on each piece only through x = L - first entry and y = L - last entry (L
its length), both capped at m.  Counting by (x, y) is a finite transfer
system with lags 1..m, so every length costs O(min(m, n)^3) big-integer
steps and the generating function is rational (Stanley, *Enumerative
Combinatorics* I, §4.7).

The engine shares no counting code with ``core``, ``bruteforce`` or
``transfer``, so it is a third independent derivation of the same counts.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from itertools import islice

from .bruteforce import _check_args

__all__ = ["count", "counts", "head"]


def _shift(column: list[int], s: int, m: int) -> list[int]:
    """Counts keyed by y moved to min(s + y, m), for 1 <= s <= m."""
    return [0] * s + column[:m - s] + [sum(column[m - s:])]


def counts(m: int) -> Iterator[int]:
    """The class sizes A_1, A_2, ... at jump bound m, without end.

    Each length keeps a table of (m + 1)^2 counts, so callers cap m at the
    longest length they read minus one (``head`` does): beyond it the
    bound excludes nothing.
    """
    if m < 1:
        raise ValueError(f"jump bound must be a positive integer, got {m}")
    # Per length L only two views of its (x, y) table are kept:
    # head[d], the members that may stand before n (y <= m - 1), keyed by
    # the first distance d = min(x + 1, m) they give the glued word; and
    # below[k][y] = members with x <= k, for k < m, from which the members
    # that may stand after a prefix alpha of length s - 1 (x <= m - s) are
    # read.  Heads are kept for lengths 0..m - 1 (the empty alpha puts n
    # first: distance 0) and the last length, below-tables for the last m.
    heads = [[1] + [0] * m]
    window: deque[list[list[int]]] = deque(maxlen=m)
    n, table = 1, [[1] + [0] * m] + [[0] * (m + 1) for _ in range(m)]
    while True:
        yield sum(map(sum, table))
        head = [0] * (m + 1)
        for x, row in enumerate(table):
            head[min(x + 1, m)] += sum(row[:m])
        below, acc = [], [0] * (m + 1)
        for row in table[:m]:
            acc = [u + v for u, v in zip(acc, row)]
            below.append(acc)
        if n < m:
            heads.append(head)
        window.appendleft(below)  # window[k] is length n - k
        n += 1
        table = [[0] * (m + 1) for _ in range(m + 1)]
        # beta nonempty: |alpha| = a <= m - 1 and |beta| = n - 1 - a
        for a in range(min(m, n - 1)):
            tail = _shift(window[a][m - 1 - a], a + 1, m)
            for d, ways in enumerate(heads[a]):
                if ways:
                    row = table[d]
                    for y in range(a + 1, m + 1):
                        row[y] += ways * tail[y]
        # beta empty: pi = alpha n with |alpha| = n - 1
        for d, ways in enumerate(head):
            table[d][0] += ways


def head(n_max: int, m: int) -> Iterator[int]:
    """The class sizes A_1..A_n_max at jump bound m, read lazily off ``counts``.

    Refuses the same arguments as ``transfer.count`` at call time, before
    anything is read, including an n_max above the brute-force ceiling
    (``PERMLIP_CEILING``, else 14).  A bound of n_max - 1 or more excludes
    nothing up to n_max, so it is read as n_max - 1 and a huge m costs
    nothing extra.
    """
    _check_args(n_max, m)
    return islice(counts(min(m, max(n_max - 1, 1))), n_max)


def count(n: int, m: int) -> int:
    """Number of length-n permutations avoiding 132 with all jumps <= m: the
    last term of ``head(n, m)``, with its refusals."""
    return deque(head(n, m), maxlen=1)[0]
