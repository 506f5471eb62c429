"""Exact integer polynomials and rational generating functions, including
recurrence guessing.

Conventions.  A polynomial is a tuple of ints indexed by degree with no
trailing zeros; the zero polynomial is the empty tuple.  Sequences are
1-indexed: ``seq[0]`` holds the term a_1.  A rational generating function
P/Q is also its constant-coefficient linear recurrence: a_n = sum_i
(-q_i) a_{n-i} from some index on, read with a_k = 0 for every k <= 0,
so a relation may validly start at an index at or below its order when the
early terms happen to extend by zeros.  ``fit_recurrence`` guesses that
function from terms a_1, a_2, ... and returns it with a_0 = 0.

Every GF here has integer coefficients, and a rational power series with
integer coefficients reduces to P/Q with Q(0) = 1 (Fatou, Acta Math. 1906),
so ``RationalGF`` refuses any other constant term.  All arithmetic except
root finding is then exact in Python ints, with no division.  Series
extraction turns each factor 1 - x of Q into a running sum of the
numerator, an ``itertools.accumulate`` pass over small ints, and
convolves with the rest, skipping zero taps, adding at -1 taps and
starting each term from its first -1 tap (2 big-integer operations a term
at m = 2); a single coefficient is read off a few of them by the Fiduccia
kernel in ``m2``, x^(n/2) mod Q (reversed) applied twice to 2 deg Q terms,
so its last squaring is never formed, and each squaring takes squares of
single ints only.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterator
from itertools import accumulate, chain, compress, islice, repeat
from math import cos, gcd, pi, sin
from operator import index, mul

__all__ = [
    "NoDominantRoot",
    "RationalGF",
    "dominant_root",
    "fit_recurrence",
    "gf_add",
    "gf_m2",
    "gf_max_first",
    "nth_coeff",
    "poly_add",
    "poly_eval",
    "poly_gcd",
    "poly_mul",
    "poly_sub",
    "series_coeffs",
    "series_stream",
]


class NoDominantRoot(ArithmeticError):
    """The characteristic polynomial has no unique positive real root of
    maximal modulus."""


# ---------------------------------------------------------------------------
# dense integer polynomials

def _trim(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_add(a, b) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def poly_sub(a, b) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n))


def poly_mul(a, b) -> tuple[int, ...]:
    a, b = _trim(a), _trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def poly_eval(a, x):
    """Horner evaluation; exact when x is an int or another exact rational."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _primitive(a) -> tuple[int, ...]:
    """``a`` divided by its content, signed so the leading coefficient is
    positive; the zero polynomial stays ()."""
    a = _trim(a)
    if not a:
        return ()
    content = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return tuple(c // content for c in a)


def _pseudo_rem(a, b) -> tuple[int, ...]:
    """Pseudo-remainder of ``a`` by nonzero ``b``: the remainder of
    lc(b)^(deg a - deg b + 1) * a, so no step divides."""
    rem, lead = list(a), b[-1]
    while len(rem) >= len(b):
        factor, shift = rem.pop(), len(rem) + 1 - len(b)
        rem = [lead * c for c in rem]
        for i, c in enumerate(b[:-1]):
            rem[shift + i] -= factor * c
    return _trim(rem)


def poly_gcd(a, b) -> tuple[int, ...]:
    """Primitive greatest common divisor with positive leading coefficient,
    by Brown's primitive remainder sequence (J. ACM 1971): Euclid on
    pseudo-remainders, each cut to its primitive part, all in integers."""
    a, b = _trim(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return _primitive(a)


def _poly_divexact(a, g) -> tuple[int, ...]:
    """a / g by integer long division, for a nonzero g that divides a with
    an integral quotient; raises ValueError otherwise."""
    if g == (1,):
        return _trim(a)
    rem = list(_trim(a))
    quot = [0] * max(0, len(rem) - len(g) + 1)
    for shift in reversed(range(len(quot))):
        q, r = divmod(rem[shift + len(g) - 1], g[-1])
        if r:
            raise ValueError("quotient is not integral")
        quot[shift] = q
        for i, c in enumerate(g):
            rem[shift + i] -= q * c
    if any(rem):
        raise ValueError("not an exact polynomial division")
    return tuple(quot)


# ---------------------------------------------------------------------------
# rational generating functions

class RationalGF(namedtuple("RationalGF", "numerator denominator")):
    """Ratio of integer polynomials, normalized on construction.

    Every entry must be an int (TypeError otherwise).  The pair is reduced
    by its polynomial gcd, taken as Q itself when P = 0, so the zero GF is
    0/1; then both polynomials are divided by the reduced constant term
    q_0.  That division must be exact, leaving Q(0) = 1: Q(0) = 0 leaves no
    series at x = 0, and otherwise the series is not integral (Fatou's
    lemma), so both raise ValueError.  A reduced P/Q with Q(0) = 1 is
    unique.  A read-only namedtuple, so it is equal to its plain pair
    (numerator, denominator).
    """

    __slots__ = ()

    def __new__(cls, numerator, denominator):
        num, den = _trim(map(index, numerator)), _trim(map(index, denominator))
        if not den or den[0] == 0:
            raise ValueError("denominator needs a nonzero constant term")
        g = poly_gcd(num, den)  # Q's primitive part when P = 0
        num, den = _poly_divexact(num, g), _poly_divexact(den, g)
        q0 = den[0]
        if any(c % q0 for c in chain(num, den)):
            reduced = abs(q0) // gcd(*num, *den)
            raise ValueError(f"reduced denominator has constant term {reduced}, not 1: "
                             "the series is not integral")
        return super().__new__(cls, tuple(c // q0 for c in num), tuple(c // q0 for c in den))

    @property
    def order(self) -> int:
        """Order of the coefficients' recurrence: the degree of Q."""
        return len(self.denominator) - 1

    @property
    def coefficients(self) -> tuple[int, ...]:
        """c_1 .. c_order with a_n = sum_i c_i a_{n-i}: c_i = -q_i."""
        return tuple(-qi for qi in self.denominator[1:])

    @property
    def valid_from(self) -> int:
        """First n >= 1 from which the recurrence holds for a_1, a_2, ...

        With a_0 read as 0 the series is P/Q - p_0, whose numerator
        P - p_0 Q has degree below valid_from.
        """
        p, q = self.numerator, self.denominator
        p0 = p[0] if p else 0
        return max(1, len(poly_sub(p, [p0 * c for c in q])))


def gf_add(a: RationalGF, b: RationalGF) -> RationalGF:
    num = poly_add(poly_mul(a.numerator, b.denominator), poly_mul(b.numerator, a.denominator))
    return RationalGF(num, poly_mul(a.denominator, b.denominator))


def gf_max_first() -> RationalGF:
    """Generating function of the max-first family sizes for jump bound 2:
    x(1 - x + x^2) / ((1 - x)(1 - x - x^3))."""
    return RationalGF(poly_mul((0, 1), (1, -1, 1)), poly_mul((1, -1), (1, -1, 0, -1)))


def gf_m2() -> RationalGF:
    """Generating function of the full class sizes for jump bound 2, as the
    paper prints it: (x - x^2 + 2x^3 - 3x^4 + x^5 - x^6) / ((1 - x)^2 (1 - x - x^3)).

    It equals (1 + x^2) * gf_max_first() + x^2 / (1 - x)^2 (the max-second
    family mirrors the max-first one two sizes down and the max-last family
    contributes n - 1); ``verify --suite gf`` checks that assembly against
    this literal.
    """
    return RationalGF((0, 1, -1, 2, -3, 1, -1),
                      poly_mul(poly_mul((1, -1), (1, -1)), (1, -1, 0, -1)))


def series_stream(gf: RationalGF) -> Iterator[int]:
    """Series coefficients a_0, a_1, ... of ``gf`` at x = 0, without end.

    Q splits as (1 - x)^k R.  k nested ``itertools.accumulate`` passes,
    running sums, turn P into the endless series S of P/(1 - x)^k: small
    ints, a polynomial in n of degree below k past the end of P.  The
    series of S/R = P/Q comes from a convolution over a window of its last
    deg R terms that skips zero taps of R, adds at taps of -1 and
    multiplies at the others; each term starts from the window entry at
    its first -1 tap, so at m = 2 a term costs 2 big-integer operations.
    Exact, in ints, with no division: R(0) = Q(0) = 1.
    """
    q, s = gf.denominator, chain(gf.numerator, repeat(0))
    while not sum(q):  # Q(1) = 0: a factor 1 - x, one running sum of the numerator
        q, s = _poly_divexact(q, (1, -1)), accumulate(s)
    return _quotient_stream(s, q)


def _quotient_stream(s, r) -> Iterator[int]:
    """Series a_0, a_1, ... of S/R for an endless numerator stream s_0,
    s_1, ... and R(0) = 1: a_n = s_n - sum_i r_i a_{n-i}."""
    tail = r[:0:-1]  # r_d .. r_1, aligned with the window
    adds = [i for i, c in enumerate(tail) if c == -1]
    dense = [c not in (-1, 0) for c in tail]
    taps = tuple(compress(tail, dense))
    window = deque([0] * len(tail), maxlen=len(tail))  # a_{n-d} .. a_{n-1}
    first = adds.pop(0) if adds else None
    for sn in s:
        acc = 0 if first is None else window[first]
        for i in adds:
            acc += window[i]
        if taps:
            acc -= sum(map(mul, taps, compress(window, dense)))
        if sn:
            acc += sn
        window.append(acc)
        yield acc


def series_coeffs(gf: RationalGF, count: int) -> list[int]:
    """First ``count`` series coefficients a_0 .. a_{count-1}, the head of
    :func:`series_stream`."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return list(islice(series_stream(gf), count))


def nth_coeff(gf: RationalGF, n: int) -> int:
    """Series coefficient a_n of ``gf`` at x = 0, without the ones before it.

    Q A = P gives sum_i q_i a_{j-i} = 0 for j >= len(P), so from s =
    max(0, len(P) - order) on the terms obey a_j = sum_i c_i a_{j-i} with
    the ``coefficients`` c_i = -q_i, and a_n is read off a_s ..
    a_{s+order-1} by ``m2._recurrence_term``: x^((n-s) >> 1) mod the
    reversed denominator by O(log n) squarings of polynomials of degree
    below deg Q (Fiduccia), applied twice to that window extended to
    2 order terms, so the last squaring is read off the series, never
    formed.  A squaring takes order(order + 1)/2 squares of single ints
    and no product of two.
    """
    from .m2 import _recurrence_term
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    s = max(0, len(gf.numerator) - gf.order)
    head = series_coeffs(gf, s + gf.order)
    if n < len(head):
        return head[n]
    return _recurrence_term(n - s, gf.coefficients, head[s:])


# ---------------------------------------------------------------------------
# recurrence guessing

def _berlekamp_massey(seq) -> tuple[int, ...]:
    """Connection polynomial C (C[0] != 0) of the shortest linear feedback
    shift register generating the integers ``seq``: every term from index
    deg C on satisfies sum_i C[i] * seq[j - i] = 0.  Berlekamp-Massey
    (Massey, IEEE Trans. Inf. Theory 1969), fraction-free: the update is
    C <- d_prev * C - d * x^gap * C_prev, then C is made primitive."""
    c, prev = (1,), (1,)
    span, gap, prev_d = 0, 1, 1
    for j in range(len(seq)):
        d = sum(c[i] * seq[j - i] for i in range(min(len(c), j + 1)))
        if d == 0:
            gap += 1
            continue
        old = c
        c = [prev_d * x for x in c] + [0] * (len(prev) + gap - len(c))
        for i, x in enumerate(prev):
            c[i + gap] -= d * x
        c = _primitive(c)
        if 2 * span <= j:
            span, prev, prev_d, gap = j + 1 - span, old, d, 1
        else:
            gap += 1
    return c


def fit_recurrence(seq, max_order: int | None = None,
                   max_offset: int | None = None) -> RationalGF | None:
    """Guess the rational generating function of lowest order whose
    coefficients a_1, a_2, ... are ``seq`` (and a_0 = 0).

    One Berlekamp-Massey pass over all terms gives the connection
    polynomial C, the denominator.  The numerator P is the series times C,
    cut below valid_from: one past the last index where the relation, read
    with a_k = 0 for k <= 0, fails.  As C(0) != 0, P/C reproduces every
    given term by construction; four rules decide the fit.  The order deg C
    is at least 1.  The indices from valid_from up to the last two terms
    still give ``order`` equations (L - 1 - valid_from >= order): the last
    two are spare, not held out, as Berlekamp-Massey read them too.  A
    given ``max_order`` caps the order and a given ``max_offset`` caps
    valid_from at 1 + max_offset.  The reduced C(0) is 1, else the fit
    predicts terms that are not integers.  Returns P/C, reduced, or None
    when nothing fits.  The terms must be ints; anything else raises
    TypeError.

    Berlekamp-Massey returns the shortest register, which is only pinned
    down by the data once it holds at least twice the register's length
    in terms.  A shorter series can be refused even when some relation of
    low order, starting late, happens to fit it.

    Fewer than four terms never fit, with no guard of their own: for L <= 3
    the rule L - 1 - valid_from >= order >= 1 forces valid_from = 1, so P,
    the series times C cut at x^L, is 0.  As C(0) != 0, every term is then
    0, for which Berlekamp-Massey returns C = 1, of order 0, refused.
    """
    if (max_order is not None and max_order < 1) or (max_offset is not None and max_offset < 0):
        raise ValueError(f"bad search bounds: max_order={max_order}, max_offset={max_offset}")
    L = len(seq)
    ints = [index(x) for x in seq]
    c = _berlekamp_massey(ints)
    order = len(c) - 1
    if order < 1 or (max_order is not None and order > max_order):
        return None
    p = _trim(poly_mul(c, (0, *ints))[:L + 1])  # (a_1 x + a_2 x^2 + ...) * C, to x^L
    valid_from = max(1, len(p))
    if (max_offset is not None and valid_from > 1 + max_offset) or L - 1 - valid_from < order:
        return None
    try:
        gf = RationalGF(p, c)
    except ValueError:  # reduced C(0) is not 1
        return None
    # true by construction: a consistency check on RationalGF normalisation and series_stream
    return gf if series_coeffs(gf, L + 1)[1:] == ints else None


# ---------------------------------------------------------------------------
# characteristic roots

_ABERTH_STOP, _ABERTH_SWEEPS = 1e-12, 500


def _roots(poly) -> list[complex]:
    """Every complex root of the integer polynomial ``poly`` (lowest
    coefficient first), repeated by its multiplicity.

    The roots of the squarefree part poly / gcd(poly, poly'), all simple,
    come together by Aberth-Ehrlich iteration (Aberth, Math. Comp. 1973)
    from a circle of Fujiwara's radius, which encloses them all, until a
    sweep moves none by more than _ABERTH_STOP * max(1, |root|); the roots
    of gcd(poly, poly'), the repeated ones, come the same way.  Raises
    ArithmeticError if _ABERTH_SWEEPS sweeps pass first, so unconverged
    roots never return.
    """
    if len(poly) < 2:
        return []
    free = _poly_divexact(poly, poly_gcd(poly, [k * c for k, c in enumerate(poly)][1:]))
    n, monic = len(free) - 1, [c / free[-1] for c in free]
    slope = [k * c for k, c in enumerate(monic)][1:]
    radius = 2 * max(abs(c) ** (1 / k) for k, c in enumerate([*monic[-2:0:-1], monic[0] / 2], 1))
    z = [radius * complex(cos(t), sin(t)) for t in (2 * pi * k / n + 0.4 for k in range(n))]
    for _ in range(_ABERTH_SWEEPS):
        done = True
        for i, zi in enumerate(z):
            value = poly_eval(monic, zi)
            pull = sum(1 / (zi - zj) for j, zj in enumerate(z) if j != i)
            z[i] = zi - value / (poly_eval(slope, zi) - value * pull)
            done = done and abs(z[i] - zi) <= _ABERTH_STOP * max(1.0, abs(z[i]))
        if done:
            return z + _roots(_poly_divexact(poly, free))
    raise ArithmeticError(f"Aberth iteration did not converge in {_ABERTH_SWEEPS} sweeps")


def dominant_root(rec) -> float:
    """Largest positive real root of x^d - c_1 x^(d-1) - ... - c_d.

    Accepts a RationalGF, whose characteristic polynomial is its reversed
    denominator, or a nonempty sequence of ints c_1 .. c_d, read as the GF
    1 / (1 - c_1 x - ... - c_d x^d); an empty one raises ValueError.  The
    root must be the unique root of maximal modulus, counted with
    multiplicity, or NoDominantRoot is raised, as it is when every root is
    0.  It is the real part of that root as :func:`_roots` returns it,
    converged by Aberth-Ehrlich iteration.
    """
    if not rec:  # a RationalGF, a pair, is never empty
        raise ValueError("empty coefficient list")
    gf = rec if isinstance(rec, RationalGF) else RationalGF((1,), (1, *(-c for c in rec)))
    roots = _roots(gf.denominator[::-1])  # lowest first
    top = max(map(abs, roots), default=0.0)
    near = [z for z in roots if abs(z) > top * (1.0 - 1e-6)]
    if len(near) != 1:
        raise NoDominantRoot(
            f"{len(near)} characteristic roots share the maximal modulus {top:.6g}"
        )
    candidate = near[0]
    if abs(candidate.imag) > 1e-6 * max(1.0, top) or candidate.real <= 0:
        raise NoDominantRoot(f"maximal-modulus root {candidate:.6g} is not positive real")
    return candidate.real
