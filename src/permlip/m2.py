"""Closed-form constructions and counts for the jump-bound-2 class.

For n >= 3 the class splits three ways by the position of the maximum
entry: first, second, or last.  Each family has a rigid shape, built
directly here with no search:

* max-last members are an increasing tail fed by a short descending
  prefix (one family per position of the entry 1), n - 1 of them;
* max-second members are exactly the max-first members of length n - 2
  with the two largest values grafted on the front, f(n - 2) of them;
* max-first members satisfy the size recurrence
  f(n) = f(n - 1) + f(n - 3) + 1, which at n + 1 makes the class size
  f(n) + f(n - 2) + (n - 1) one max-first size, f(n + 1) + n - 2.

A single size is a head window of a constant-coefficient recurrence read
through x^k mod its characteristic polynomial of degree d (Fiduccia, SIAM
J. Comput. 1985): O(log n) squarings of a polynomial of degree below d,
and both m = 2 routes square mod the cubic x^3 - x^2 - 1.  At every
size a squaring builds each cross term 2ab as
(a + b)^2 - a^2 - b^2, so it takes d(d + 1)/2 squares of single ints,
which CPython forms about twice as fast as products of two, instead of d
squares and d(d - 1)/2 products.  The max-first route powers only to
x^(k >> 1) and reads the last squaring off the sequence instead of
forming it, by applying those coefficients twice to the head window
extended to about 2d terms, so the n-th size costs d products of the
largest ints, not d(d + 1)/2 and a reduction.  The order-5 route powers
x^k mod the cubic, the factor of its (x - 1)^2 (x^3 - x^2 - 1) that
carries all the growth, and adds the double root at 1, whose share is
linear in n, in closed form.  No cache is kept.
``verify --suite gf`` checks both readouts at every n against the series
of ``genfunc.gf_m2()``, which shares no code with them.

``_recurrence_term`` is also the kernel of ``genfunc.nth_coeff``.  It lives
here because the closed and recurrence routes run it, or its squaring,
and must not load ``genfunc``.  For the same reason the graft maps, the only users of
``core.in_class``, import ``core`` when called.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul

__all__ = [
    "class_count",
    "class_count_by_recurrence",
    "max_first_count",
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


def _tail_over_x_minus_1(tail: tuple[int, ...]) -> tuple[int, ...]:
    """The tail of the characteristic polynomial x^d - tail[0] x^(d-1) - ...
    - tail[d-1] divided by x - 1, by synthetic division; ValueError if the
    remainder is not zero."""
    _, *quotient, remainder = accumulate(tail, initial=-1)
    if remainder:
        raise ValueError(f"x - 1 does not divide the polynomial of tail {tail}")
    return tuple(quotient)


# x^3 - x^2 - 1: a's characteristic polynomial is (x - 1)^2 times it
_A_CUBIC_TAIL = _tail_over_x_minus_1(_tail_over_x_minus_1(_A_TAIL))


def _square_by_squares(c: list[int]) -> list[int]:
    """The square of the polynomial c, each cross term 2 c[i] c[j] formed
    as (c[i] + c[j])^2 - c[i]^2 - c[j]^2: squares of single ints only, and
    none for a pair with a zero."""
    d = len(c)
    sq = [0] * (2 * d - 1)
    sq[::2] = squares = [ci * ci for ci in c]
    for i, ci in enumerate(c):
        if ci:
            for j in range(i + 1, d):
                if c[j]:
                    s = ci + c[j]
                    sq[i + j] += s * s - squares[i] - squares[j]
    return sq


def _x_power_mod(h: int, tail: tuple[int, ...]) -> list[int]:
    """The coefficients of x^h mod the monic x^d - tail[0] x^(d-1) - ... -
    tail[d-1], by square-and-multiply over the bits of h; [] for d = 0.

    Every squaring, at every size, is _square_by_squares: d(d + 1)/2
    squares of single ints and no product of two.  Against d squares and
    d(d - 1)/2 products it costs 1-4 us more on a call at n <= 1000 and
    saves up to 6% on large ones, so one path serves every size.
    """
    d = len(tail)

    def reduced(p: list[int]) -> list[int]:
        for i in range(len(p) - 1, d - 1, -1):
            if p[i]:
                for j, t in enumerate(tail, 1):
                    p[i - j] += t * p[i]
        return p[:d]

    c = [1] + [0] * (d - 1) if d else []
    for bit in bin(h)[2:]:
        c = reduced(_square_by_squares(c))
        if bit == "1":
            c = reduced([0, *c])
    return c


def _recurrence_term(k: int, tail: tuple[int, ...], head: tuple[int, ...]) -> int:
    """The term u(s + k) of a sequence with u(j) = tail[0]u(j-1) + ... +
    tail[d-1]u(j-d) for every j >= s + d, read off its head window
    u(s), ..., u(s + d - 1).

    With c = x^h mod the characteristic polynomial and h = k >> 1, every
    shift obeys u(j + h) = sum(c[i] * u(j + i)) for j >= s.  Applied
    twice, u(s + b + 2h) = sum_i c[i] sum_l c[l] u(s + b + i + l) with
    b = k & 1, over the head window extended to 2d - 1 + b terms by the
    recurrence.  So the last squaring is read off the sequence and never
    formed: d products of the largest ints in a running sum instead of
    d(d + 1)/2 and a reduction.  As in the squaring, a zero c[i] is
    skipped, which keeps small k (a sparse c) as cheap as before.  The
    readout has a short frame of its own because tracemalloc finds the
    line of each allocation by scanning the code from its start: at the
    end of the squaring loop it ran some 20% slower traced.  An empty
    tail gives c = [] and the term 0.
    """
    d = len(tail)
    c = _x_power_mod(k >> 1, tail)
    b = k & 1
    u = list(head)
    for _ in range(d - 1 + b):
        u.append(sum(map(mul, tail, u[:-d - 1:-1])))
    term = 0
    for i, ci in enumerate(c, b):
        if ci:
            term += ci * sum(map(mul, c, u[i:i + d]))
    return term


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


def max_first_count(n: int) -> int:
    """Number of max-first members f(n), read off g(n) = f(n) + 1, which
    obeys g(k) = g(k - 1) + g(k - 3): x^(n-1) mod x^3 - x^2 - 1 applied to
    g(1..3) = 2, 2, 3."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _recurrence_term(n - 1, _G_TAIL, _G_START) - 1


def max_second_count(n: int) -> int:
    """Number of max-second members: the max-first count two sizes down."""
    if n < 3:
        raise ValueError(f"max-second members need n >= 3, got {n}")
    return max_first_count(n - 2)


def class_count(n: int) -> int:
    """Total class size for jump bound 2: f(n + 1) + n - 2 for n >= 2.

    The three families give f(n) + f(n - 2) + (n - 1), and the max-first
    recurrence f(n + 1) = f(n) + f(n - 2) + 1 folds the two max-first sizes
    into one.  The lone member at n = 1 is counted apart.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return 1
    return max_first_count(n + 1) + n - 2


def class_count_by_recurrence(n: int) -> int:
    """Total class size via the order-5 constant-coefficient recurrence:
    x^(n-2) mod x^5 - 3x^4 + 3x^3 - 2x^2 + 2x - 1 applied to a(2..6), the
    relation holding from n = 7; a(1..6) are read from the table.

    That polynomial is (x - 1)^2 rho with rho = x^3 - x^2 - 1, so only r =
    x^k mod rho (k = n - 2) is powered.  The residue mod the double root
    at 1 is linear in k and closed: c = x^k mod (x - 1)^2 rho is r + rho q
    with q of degree 1, and c(1) = 1, c'(1) = k with rho(1) = -1, rho'(1) =
    1 force q = t0 + t1 (x - 1), t0 = r(1) - 1, t1 = t0 - k + r'(1).  The
    readout is then five products of a large int by a small one.

    It reads only the order-5 recurrence and a(1..6), none of
    :func:`class_count`'s data; the two share the squaring and must agree
    everywhere.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n <= len(_A_HEAD):
        return _A_HEAD[n - 1]
    k = n - 2
    r0, r1, r2 = _x_power_mod(k, _A_CUBIC_TAIL)
    t0 = r0 + r1 + r2 - 1
    t1 = t0 - k + r1 + 2 * r2
    q0 = t0 - t1  # q = q0 + t1 x; c = r + rho q, low terms first
    c = (r0 - q0, r1 - t1, r2 - q0, q0 - t1, t1)
    return sum(map(mul, c, _A_HEAD[1:]))


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
    from .core import in_class
    if sorted(word) != list(range(1, n + 1)) or not in_class(word, 2):
        raise ValueError(f"not a class member for jump bound 2: {word!r}")
    return tuple(word[2:])


def to_max_second(word, n: int) -> tuple[int, ...]:
    """Inverse graft: prepend n - 1 and n to a max-first member of length n - 2."""
    if len(word) != n - 2 or n < 3:
        raise ValueError(f"need a word of length n - 2 = {n - 2}, got {len(word)}")
    if word[0] != n - 2:
        raise ValueError(f"first entry must be {n - 2}, got {word[0]}")
    from .core import in_class
    if sorted(word) != list(range(1, n - 1)) or not in_class(word, 2):
        raise ValueError(f"not a class member for jump bound 2: {word!r}")
    return (n - 1, n) + tuple(word)
