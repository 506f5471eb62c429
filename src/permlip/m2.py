"""Closed-form constructions and counts for the jump-bound-2 class.

For n >= 3 the class splits three ways by the position of the maximum
entry: first, second, or last.  Each family has a rigid shape, built
directly here with no search:

* max-last members are an increasing tail fed by a short descending
  prefix (one family per position of the entry 1);
* max-second members are exactly the max-first members of length n - 2
  with the two largest values grafted on the front;
* max-first members satisfy the size recurrence
  count(n) = count(n - 1) + count(n - 3) + 1.

A single size is read off x^k mod the characteristic polynomial of a
constant-coefficient recurrence (Fiduccia, SIAM J. Comput. 1985): O(log n)
squarings of a polynomial of degree below 3 or 5, so the n-th size costs a
few products of O(n)-digit integers.  The streams of all sizes hold only a
sliding window of the last few terms and serve as independent checks on
those readouts.  Nothing is cached between calls.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import in_class

__all__ = [
    "class_count",
    "class_count_by_recurrence",
    "class_counts",
    "class_counts_by_recurrence",
    "max_first_count",
    "max_first_counts",
    "max_first_perms",
    "max_last_count",
    "max_last_perms",
    "max_second_count",
    "to_max_first",
    "to_max_second",
    "zigzag",
]


# Recurrences as tail coefficients t: u(k) = t[0]u(k-1) + ... + t[d-1]u(k-d),
# each with the first d terms of the sequence it is read from.
_G_TAIL = (1, 0, 1)  # g(k) = f(k) + 1 = g(k-1) + g(k-3), from k = 4
_G_START = (2, 2, 3)  # g(1), g(2), g(3)
_A_TAIL = (3, -3, 2, -2, 1)  # the class sizes a(n), from n = 7
_A_HEAD = (1, 2, 5, 8, 12, 18)  # a(1) .. a(6)


def _x_pow_mod(k: int, tail: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients, lowest first, of x^k mod the monic polynomial
    x^d - tail[0] x^(d-1) - ... - tail[d-1], by square-and-multiply over
    the bits of k.

    If u(j) = tail[0]u(j-1) + ... + tail[d-1]u(j-d) for every j >= s + d,
    then u(s + k) = sum(c[i] * u(s + i)) for these coefficients c.
    """
    d = len(tail)

    def reduced(p: list[int]) -> tuple[int, ...]:
        for i in range(len(p) - 1, d - 1, -1):
            if p[i]:
                for j, t in enumerate(tail, 1):
                    p[i - j] += t * p[i]
        return tuple(p[:d])

    c = (1,) + (0,) * (d - 1)
    for bit in bin(k)[2:]:
        sq = [0] * (2 * d - 1)
        for i, ci in enumerate(c):
            if ci:
                sq[2 * i] += ci * ci
                for j in range(i + 1, d):
                    sq[i + j] += 2 * ci * c[j]
        c = reduced(sq)
        if bit == "1":
            c = reduced([0, *c])
    return c


def _dot(c: tuple[int, ...], terms: tuple[int, ...]) -> int:
    return sum(ci * t for ci, t in zip(c, terms))


def max_last_perms(n: int) -> list[tuple[int, ...]]:
    """All max-last members of length n: a descending prefix, the rest of
    1..n-1 in increasing order, then n.  The odd prefixes 2p-1, ..., 3, 1
    (p = 1..n // 2; p = 1 gives the identity) come first, then the even
    runs 2p, ..., 2 closed by 1 (p = 1..(n - 1) // 2), each family by
    ascending prefix length."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    prefixes = [tuple(range(2 * p - 1, 0, -2)) for p in range(1, n // 2 + 1)]
    prefixes += [tuple(range(2 * p, 0, -2)) + (1,) for p in range(1, (n - 1) // 2 + 1)]
    return [prefix + tuple(sorted(set(range(1, n)) - set(prefix))) + (n,)
            for prefix in prefixes]


def max_last_count(n: int) -> int:
    """Number of max-last members: n - 1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return n - 1


def max_first_counts() -> Iterator[int]:
    """Max-first family sizes f(1), f(2), ... without end, by the size
    recurrence f(k) = f(k - 1) + f(k - 3) + 1 over a three-term window."""
    yield 1
    yield 1
    a, b, c = 1, 1, 2  # f(k - 2), f(k - 1), f(k)
    while True:
        yield c
        a, b, c = b, c, c + a + 1


def max_first_count(n: int) -> int:
    """Number of max-first members f(n), read off g(n) = f(n) + 1, which
    obeys g(k) = g(k - 1) + g(k - 3): x^(n-1) mod x^3 - x^2 - 1 applied to
    g(1..3) = 2, 2, 3."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _dot(_x_pow_mod(n - 1, _G_TAIL), _G_START) - 1


def max_second_count(n: int) -> int:
    """Number of max-second members: the max-first count two sizes down."""
    if n < 3:
        raise ValueError(f"max-second members need n >= 3, got {n}")
    return max_first_count(n - 2)


def class_counts() -> Iterator[int]:
    """Class sizes for n = 1, 2, ... without end, assembled from the three
    families: f(n) max-first, f(n - 2) max-second and n - 1 max-last
    members, with f read off one pass of :func:`max_first_counts`."""
    yield 1
    yield 2
    family = max_first_counts()
    two_back, one_back = next(family), next(family)  # f(n - 2), f(n - 1)
    for n, f_n in enumerate(family, start=3):
        yield f_n + two_back + (n - 1)
        two_back, one_back = one_back, f_n


def class_count(n: int) -> int:
    """Total class size for jump bound 2, assembled from the three families:
    f(n) + f(n - 2) + (n - 1).

    One power x^(n-3) mod x^3 - x^2 - 1 gives both max-first sizes, applied
    to g(1..3) for f(n - 2) and to g(3..5) = 3, 5, 7 for f(n), where
    g = f + 1.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n <= 2:
        return n
    c = _x_pow_mod(n - 3, _G_TAIL)
    two_back, f_n = _dot(c, _G_START) - 1, _dot(c, (3, 5, 7)) - 1
    return f_n + two_back + (n - 1)


def class_counts_by_recurrence() -> Iterator[int]:
    """Class sizes for n = 1, 2, ... without end, by the order-5 relation
    a(n) = 3a(n-1) - 3a(n-2) + 2a(n-3) - 2a(n-4) + a(n-5), valid from n = 7,
    over a five-term window.

    Independent of :func:`class_counts`; the two must agree everywhere.
    """
    yield from _A_HEAD
    a, b, c, d, e = _A_HEAD[1:]  # a(n-5) .. a(n-1)
    while True:
        a, b, c, d, e = b, c, d, e, 3 * (e - d) + 2 * (c - b) + a
        yield e


def class_count_by_recurrence(n: int) -> int:
    """Total class size via the order-5 constant-coefficient recurrence:
    x^(n-2) mod x^5 - 3x^4 + 3x^3 - 2x^2 + 2x - 1 applied to a(2..6), the
    relation holding from n = 7; a(1..6) are read from the table.

    Independent of :func:`class_count`; the two must agree everywhere.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n <= len(_A_HEAD):
        return _A_HEAD[n - 1]
    return _dot(_x_pow_mod(n - 2, _A_TAIL), _A_HEAD[1:])


def zigzag(n: int) -> tuple[int, ...]:
    """Descend from n by twos, then ascend through the skipped values.

    (n, n-2, ..., 2, 1, 3, ..., n-1) for even n and
    (n, n-2, ..., 1, 2, 4, ..., n-1) for odd n.  This is the single
    max-first member whose second entry is n - 2 but which does not reduce
    to a shorter max-first member.  Needs n >= 4.
    """
    if n < 4:
        raise ValueError(f"zigzag needs n >= 4, got {n}")
    descent = list(range(n, 0, -2))
    if n % 2 == 0:
        return tuple(descent + [1] + list(range(3, n, 2)))
    return tuple(descent + list(range(2, n, 2)))


def max_first_perms(n: int) -> list[tuple[int, ...]]:
    """All max-first members of length n.

    Built recursively: prepend n to every member one size down, graft
    (n, n-2, n-1) onto every member three sizes down, and close with the
    zigzag.  The three blocks are disjoint (second and third entries
    differ) and appear in that order.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return [(1,)]
    if n == 2:
        return [(2, 1)]
    if n == 3:
        return [(3, 2, 1), (3, 1, 2)]
    out = [(n,) + w for w in max_first_perms(n - 1)]
    out += [(n, n - 2, n - 1) + w for w in max_first_perms(n - 3)]
    out.append(zigzag(n))
    return out


def to_max_first(word) -> tuple[int, ...]:
    """Send a max-second member to a max-first member two sizes down.

    Drops the first two entries (forced to be n - 1 then n).  Requires the
    input to be a class member of length >= 3 with its maximum second.
    """
    n = len(word)
    if n < 3:
        raise ValueError(f"need length >= 3, got {n}")
    if word[1] != n:
        raise ValueError(f"maximum must sit at position 2, got word {word!r}")
    if not in_class(word, 2):
        raise ValueError(f"not a class member for jump bound 2: {word!r}")
    return tuple(word[2:])


def to_max_second(word, n: int) -> tuple[int, ...]:
    """Inverse graft: prepend n - 1 and n to a max-first member of length n - 2."""
    if len(word) != n - 2 or n < 3:
        raise ValueError(f"need a word of length n - 2 = {n - 2}, got {len(word)}")
    if word[0] != n - 2:
        raise ValueError(f"first entry must be {n - 2}, got {word[0]}")
    return (n - 1, n) + tuple(word)
