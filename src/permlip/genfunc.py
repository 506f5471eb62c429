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
extraction turns each factor 1 - x of Q into a running sum, skips zero
taps of the rest and adds or subtracts at unit taps; a single coefficient
is x^n mod Q (reversed), by the Fiduccia kernel in ``m2``, applied to a
few of them.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterator
from itertools import chain, compress, islice, repeat
from math import cos, gcd, pi, sin
from operator import index, mul

__all__ = [
    "InsufficientData",
    "NoDominantRoot",
    "RationalGF",
    "dominant_root",
    "fit_recurrence",
    "gf_add",
    "gf_m2",
    "gf_max_first",
    "gf_mul",
    "nth_coeff",
    "poly_add",
    "poly_eval",
    "poly_gcd",
    "poly_mul",
    "poly_sub",
    "series_coeffs",
    "series_stream",
]


class InsufficientData(ValueError):
    """Too few terms to fit and still hold out a verification tail."""


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


def gf_mul(a: RationalGF, b: RationalGF) -> RationalGF:
    return RationalGF(poly_mul(a.numerator, b.numerator), poly_mul(a.denominator, b.denominator))


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

    Q splits as (1 - x)^k R.  The series of P/R comes from a convolution
    over a window of its last deg R coefficients that skips zero taps of R,
    adds or subtracts at taps of -1 or 1 and multiplies only at the others;
    k running sums turn it into the series of P/Q.  Exact, in ints, with
    no division: R(0) = Q(0) = 1.
    """
    p, q = gf.numerator, gf.denominator
    sums = []
    while not sum(q):  # Q(1) = 0: a factor 1 - x, one running sum
        q = _poly_divexact(q, (1, -1))
        sums.append(0)
    tail = q[:0:-1]  # r_d .. r_1, aligned with the window
    adds = [i for i, c in enumerate(tail) if c == -1]
    subs = [i for i, c in enumerate(tail) if c == 1]
    dense = [c not in (-1, 0, 1) for c in tail]
    taps = tuple(compress(tail, dense))
    window = deque([0] * len(tail), maxlen=len(tail))  # b_{n-d} .. b_{n-1} of P/R
    for acc in chain(p, repeat(0)):
        for i in adds:
            acc += window[i]
        for i in subs:
            acc -= window[i]
        if taps:
            acc -= sum(map(mul, taps, compress(window, dense)))
        window.append(acc)
        for i, s in enumerate(sums):
            acc = sums[i] = s + acc
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
    the ``coefficients`` c_i = -q_i, and a_n is x^(n-s) mod the reversed
    denominator (Fiduccia, by ``m2._x_pow_mod``) applied to a_s ..
    a_{s+order-1}: O(log n) products of polynomials of degree below deg Q.
    """
    from .m2 import _x_pow_mod
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    s = max(0, len(gf.numerator) - gf.order)
    head = series_coeffs(gf, s + gf.order)
    if n < len(head):
        return head[n]
    return sum(map(mul, _x_pow_mod(n - s, gf.coefficients), head[s:]))


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
    with a_k = 0 for k <= 0, fails.  The fit is accepted only when the
    indices from valid_from up to the last two terms still give ``order``
    equations: the last two are spare, a held-out tail that must agree too.
    For L terms that rule alone keeps order + valid_from at most L - 1; a
    given ``max_order`` also caps the order deg C, and a given
    ``max_offset`` caps valid_from at 1 + max_offset.  Returns P/C,
    reduced, or None when nothing fits, including a fit whose reduced
    C(0) is not 1: it predicts terms that are not integers.  The terms
    must be ints; anything else raises TypeError.

    Berlekamp-Massey returns the shortest register, which is only pinned
    down by the data once it holds at least twice the register's length
    in terms.  A shorter series can be refused even when some relation of
    low order, starting late, happens to fit it.
    """
    if (max_order is not None and max_order < 1) or (max_offset is not None and max_offset < 0):
        raise ValueError(f"bad search bounds: max_order={max_order}, max_offset={max_offset}")
    L = len(seq)
    if L < 4:
        raise InsufficientData(f"need at least 4 terms, got {L}")
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
    return gf if series_coeffs(gf, L + 1)[1:] == ints else None


# ---------------------------------------------------------------------------
# characteristic roots

_NEWTON_STOP = 1e-14
_ABERTH_STOP, _ABERTH_SWEEPS = 1e-12, 500


def _newton_root(poly, x: float) -> float:
    """A root of the polynomial ``poly`` (coefficients lowest first) by
    Newton's method from ``x``: stops when a step falls below _NEWTON_STOP
    relative to the root, after at most 60 steps, or at a zero slope."""
    slope = [k * c for k, c in enumerate(poly)][1:]
    for _ in range(60):
        d = poly_eval(slope, x)
        if d == 0:
            break
        step = poly_eval(poly, x) / d
        x -= step
        if abs(step) < _NEWTON_STOP * max(1.0, abs(x)):
            break
    return x


def _roots(poly) -> tuple[tuple[int, ...], list[complex]]:
    """The squarefree part poly / gcd(poly, poly') of the integer polynomial
    ``poly`` (lowest coefficient first), and every complex root of ``poly``,
    repeated by its multiplicity.

    The roots of the squarefree part, all simple, come together by
    Aberth-Ehrlich iteration (Aberth, Math. Comp. 1973) from a circle of
    Fujiwara's radius, which encloses them all, until a sweep moves none by
    more than _ABERTH_STOP * max(1, |root|); the roots of gcd(poly, poly'),
    the repeated ones, come the same way.  Raises ArithmeticError if
    _ABERTH_SWEEPS sweeps pass first, so unconverged roots never return.
    """
    if len(poly) < 2:
        return poly, []
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
            return free, z + _roots(_poly_divexact(poly, free))[1]
    raise ArithmeticError(f"Aberth iteration did not converge in {_ABERTH_SWEEPS} sweeps")


def dominant_root(rec) -> float:
    """Largest positive real root of x^d - c_1 x^(d-1) - ... - c_d.

    Accepts a RationalGF, whose characteristic polynomial is its reversed
    denominator, or a nonempty sequence of ints c_1 .. c_d, read as the GF
    1 / (1 - c_1 x - ... - c_d x^d); an empty one raises ValueError.  The
    root must be the unique root of maximal modulus, counted with
    multiplicity, or NoDominantRoot is raised, as it is when every root is
    0.  Found by :func:`_roots`, then polished on the squarefree part by
    :func:`_newton_root`.
    """
    if not rec:  # a RationalGF, a pair, is never empty
        raise ValueError("empty coefficient list")
    gf = rec if isinstance(rec, RationalGF) else RationalGF((1,), (1, *(-c for c in rec)))
    free, roots = _roots(gf.denominator[::-1])  # lowest first
    top = max(map(abs, roots), default=0.0)
    near = [z for z in roots if abs(z) > top * (1.0 - 1e-6)]
    if len(near) != 1:
        raise NoDominantRoot(
            f"{len(near)} characteristic roots share the maximal modulus {top:.6g}"
        )
    candidate = near[0]
    if abs(candidate.imag) > 1e-6 * max(1.0, top) or candidate.real <= 0:
        raise NoDominantRoot(f"maximal-modulus root {candidate:.6g} is not positive real")
    return _newton_root(free, candidate.real)
