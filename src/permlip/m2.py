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
J. Comput. 1985): O(log n) squarings of a polynomial of degree below d.
At every size a squaring builds each cross term 2ab as
(a + b)^2 - a^2 - b^2, so it takes d(d + 1)/2 squares of single ints,
which CPython forms about twice as fast as products of two, instead of d
squares and d(d - 1)/2 products.  Both m = 2 routes power only to
c = x^(k >> 1) mod the cubic x^3 - x^2 - 1 and end in three squares: the
term is the quadratic form c^T H c of a Hankel matrix of the sequence,
diagonalized once at import, so the last squaring is never formed and the
n-th size costs d squares of the largest ints and one exact division by a
small int.  The max-first route reads g = f + 1.  The order-5 route splits
the class sizes into a part that obeys the cubic, the factor of its
(x - 1)^2 (x^3 - x^2 - 1) that carries all the growth, and a line from
the double root at 1.  No cache is kept.
``verify --suite gf`` checks both readouts at every n against the series
of ``genfunc.gf_m2()``, which shares no code with them.

``_recurrence_term`` is the kernel of ``genfunc.nth_coeff`` and so of the
``gf`` route.  It lives here beside ``_x_power_mod``, the squaring that the
closed and recurrence routes run and that must not load ``genfunc``.  For
the same reason the graft maps, the only users of ``core.in_class``,
import ``core`` when called.
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


def _diagonalized(h: list[list[int]]) -> tuple:
    """(delta, e, rows) with delta x^T h x = sum(e[j] (rows[j] . x)^2) for
    every x, for the symmetric integer matrix h, by fraction-free symmetric
    elimination: p x^T h x = (h[0] . x)^2 plus the form of p h[i][j] -
    h[i][0] h[0][j] on the other coordinates, p = h[0][0].  ValueError on a
    zero pivot."""
    if not h:
        return 1, (), ()
    p, *top = h[0]
    if not p:
        raise ValueError(f"zero pivot in {h}")
    delta, e, rows = _diagonalized(
        [[p * hij - hi[0] * hj for hij, hj in zip(hi[1:], top)] for hi in h[1:]])
    return p * delta, (delta, *e), (tuple(h[0]), *((0, *row) for row in rows))


def _parity_forms(tail: tuple[int, ...], head: tuple[int, ...]) -> tuple:
    """For b = 0 and 1, the diagonalized Hankel matrix H_b of u(s + b), ...,
    u(s + b + 2d - 2), so that u(s + k) = c^T H_b c with c = x^(k >> 1) mod
    the characteristic polynomial and b = k & 1 (see _recurrence_term)."""
    d = len(tail)
    u = list(head)
    while len(u) < 2 * d:
        u.append(sum(map(mul, tail, u[:-d - 1:-1])))
    return tuple(_diagonalized([u[b + i:b + i + d] for i in range(d)]) for b in (0, 1))


def _form_term(k: int, tail: tuple[int, ...], forms: tuple) -> int:
    """u(s + k) read through the form of k's parity: d squares of the
    largest ints, products by small ints and one exact division.  A frame
    of its own keeps tracemalloc's line lookup short, as in _recurrence_term."""
    c = _x_power_mod(k >> 1, tail)
    delta, weights, rows = forms[k & 1]
    total = 0
    for e, row in zip(weights, rows):
        y = sum(map(mul, row, c))
        total += e * (y * y)
    return total // delta


def _linear_split(tail: tuple[int, ...], head: tuple[int, ...], s: int) -> tuple:
    """(alpha, beta, w's head) with u(n) = w(n) + alpha + beta n, where
    u(s), u(s + 1), ... = head obeys the recurrence of (x - 1)^2 rho and w
    the one of rho = x^d - tail[0] x^(d-1) - ... .  The residual u(n) -
    tail[0] u(n-1) - ... - tail[d-1] u(n-d) kills w and leaves rho(1)(alpha
    + beta n) + (tail[0] + 2 tail[1] + ...) beta; two of them fix beta,
    then alpha.  The divisions by rho(1) are exact for x^3 - x^2 - 1,
    where rho(1) = -1."""
    d = len(tail)
    r0, r1 = [head[j] - sum(map(mul, tail, head[j - 1::-1])) for j in (d, d + 1)]
    rho1 = 1 - sum(tail)
    beta = (r1 - r0) // rho1
    alpha = (r0 - beta * sum(map(mul, tail, range(1, d + 1)))) // rho1 - beta * (s + d)
    return alpha, beta, tuple(u - alpha - beta * n for n, u in enumerate(head[:d], s))


_G_FORMS = _parity_forms(_G_TAIL, _G_START)
# a(n) = w(n) + alpha + beta n from n = 2 on, where the order-5 recurrence starts
_A_ALPHA, _A_BETA, _W_HEAD = _linear_split(_A_CUBIC_TAIL, _A_HEAD[1:], 2)
_W_FORMS = _parity_forms(_A_CUBIC_TAIL, _W_HEAD)


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
    obeys g(k) = g(k - 1) + g(k - 3) from g(1..3) = 2, 2, 3: c = x^((n-1) >> 1)
    mod x^3 - x^2 - 1, then three squares of the form built from g(1..6)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _form_term(n - 1, _G_TAIL, _G_FORMS) - 1


def max_second_count(n: int) -> int:
    """Number of max-second members: the max-first count two sizes down."""
    if n < 3:
        raise ValueError(f"max-second members need n >= 3, got {n}")
    return max_first_count(n - 2)


def class_count(n: int) -> int:
    """Total class size for jump bound 2: f(n + 1) + n - 2 for n >= 2.

    The three families give f(n) + f(n - 2) + (n - 1), and the max-first
    recurrence f(n + 1) = f(n) + f(n - 2) + 1 folds the two max-first sizes
    into one, read by :func:`max_first_count` in three squares.  The lone
    member at n = 1 is counted apart.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return 1
    return max_first_count(n + 1) + n - 2


def class_count_by_recurrence(n: int) -> int:
    """Total class size via the order-5 constant-coefficient recurrence
    a(n) = 3a(n-1) - 3a(n-2) + 2a(n-3) - 2a(n-4) + a(n-5) from n = 7, with
    a(1..6) read from the table.

    Its polynomial is (x - 1)^2 (x^3 - x^2 - 1), so a(n) = w(n) + alpha +
    beta n for n >= 2, with w obeying the cubic.  The split is read at import
    off the recurrence and a(1..6) (alpha = -3, beta = 1), and w(n) off
    x^((n-2) >> 1) mod the cubic in three squares of a form built from w's
    head.  It reads none of :func:`class_count`'s data; the two share the
    squaring and must agree everywhere.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n <= len(_A_HEAD):
        return _A_HEAD[n - 1]
    return _form_term(n - 2, _A_CUBIC_TAIL, _W_FORMS) + _A_ALPHA + _A_BETA * n


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
