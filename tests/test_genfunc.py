import functools
import math
import random
import time
from fractions import Fraction
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath.libmp import NoConvergence

from permlip import genfunc, split
from permlip.genfunc import (
    NoDominantRoot,
    RationalGF,
    _poly_divexact,
    _primitive,
    dominant_root,
    fit_recurrence,
    gf_add,
    gf_m2,
    gf_max_first,
    nth_coeff,
    poly_add,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_sub,
    series_coeffs,
    series_stream,
)
from permlip.m2 import class_count

CLASS_COEFFS = (3, -3, 2, -2, 1)
GF_M1 = RationalGF((0, 1, 1), (1, -1))  # bound 1: 1, 2, 2, 2, ...


def class_terms(n_max):
    return [class_count(n) for n in range(1, n_max + 1)]


def relation_holds_from(gf, seq, start):
    """a_n = sum_i c_i a_{n-i} at every n from start to len(seq), with the
    gf's coefficients, seq[0] = a_1 and a_k read as 0 for k <= 0."""
    def predicted(n):
        return sum(c * seq[n - i - 1] for i, c in enumerate(gf.coefficients, start=1)
                   if n - i >= 1)
    return all(predicted(n) == seq[n - 1] for n in range(start, len(seq) + 1))


def reference_series(gf, count):
    """a_0 .. a_{count-1} straight from a_n = p_n - sum_{i >= 1} q_i a_{n-i}
    (q_0 = 1) over the whole expanded denominator: the definition, sharing
    no code with series_stream."""
    p, q = gf.numerator, gf.denominator
    out = []
    for n in range(count):
        out.append((p[n] if n < len(p) else 0) - sum(
            q[i] * out[n - i] for i in range(1, min(len(q), n + 1))))
    return out


def test_poly_ring_examples():
    assert poly_mul((1, -1), (1, -1, 0, -1)) == (1, -2, 1, -1, 1)
    assert poly_mul(poly_mul((1, -1), (1, -1)), (1, -1, 0, -1)) == (1, -3, 3, -2, 2, -1)
    assert poly_add((1, 2), (0, -2, 3)) == (1, 0, 3)
    assert poly_sub((1, 2), (1, 2)) == ()
    assert poly_mul((), (5, 1)) == ()
    assert poly_eval((1, -1, 0, -1), Fraction(1, 2)) == Fraction(3, 8)


small_polys = st.lists(st.integers(-5, 5), min_size=0, max_size=5).map(tuple)


@given(small_polys, small_polys, small_polys)
def test_poly_ring_laws(a, b, c):
    assert poly_add(a, b) == poly_add(b, a)
    assert poly_mul(a, b) == poly_mul(b, a)
    assert poly_mul(a, poly_add(b, c)) == poly_add(poly_mul(a, b), poly_mul(a, c))
    x = Fraction(3, 7)
    assert poly_eval(poly_mul(a, b), x) == poly_eval(a, x) * poly_eval(b, x)


def test_poly_gcd_basics():
    # results are primitive with a positive leading coefficient
    assert poly_gcd((1, -2, 1), (1, -1)) == (-1, 1)   # gcd of (1-x)^2 and 1-x is x-1
    assert poly_gcd((0, 1), (1, -1)) == (1,)
    assert poly_gcd((2, 2), (4, 4)) == (1, 1)
    assert poly_gcd((), (1, 2)) == (1, 2)


# nonzero, without trailing zeros
nonzero_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=6).filter(
    lambda a: a[-1] != 0).map(tuple)


@settings(max_examples=200)
@given(nonzero_polys, nonzero_polys, small_polys)
@example((-2, 4), (0, 3), ())                    # content and sign of g
@example((1, -1), (1, -1), (1, 1))               # u * w + 1 = 2 - x^2
def test_poly_gcd_recovers_a_planted_factor(g, u, w):
    """u and u * w + 1 are coprime, so the gcd of g * u and g * (u * w + 1)
    is g made primitive: an answer known without running any Euclid."""
    assert poly_gcd(poly_mul(g, u), poly_mul(g, poly_add(poly_mul(u, w), (1,)))) == _primitive(g)
    assert _poly_divexact(poly_mul(g, u), g) == u


def test_primitive_and_exact_division():
    assert _primitive((4, -6, -2)) == (-2, 3, 1)
    assert _primitive((0, 0)) == _primitive(()) == ()
    assert _poly_divexact((), (1, 1)) == ()
    with pytest.raises(ValueError, match="not an exact polynomial division"):
        _poly_divexact((1, 1), (-1, 1))          # 1 + x = (x - 1) + 2
    with pytest.raises(ValueError, match="not an exact polynomial division"):
        _poly_divexact((1,), (1, 1))
    with pytest.raises(ValueError, match="quotient is not integral"):
        _poly_divexact((1,), (2,))


def test_gf_normalization():
    gf = RationalGF((0, 2, -2), (2, -4, 2))       # x(2-2x) / 2(1-x)^2 = x/(1-x)
    assert (gf.numerator, gf.denominator) == ((0, 1), (1, -1))
    gf = RationalGF((0, 1), (-1, 1))              # sign moves to the numerator
    assert (gf.numerator, gf.denominator) == ((0, -1), (1, -1))
    zero = RationalGF((), (3, 1))
    assert (zero.numerator, zero.denominator) == ((), (1,))
    with pytest.raises(ValueError):
        RationalGF((1,), (0, 1))                  # pole at the origin
    with pytest.raises(ValueError):
        RationalGF((1,), ())
    for num, den in (((), (0.5,)),               # checked under a zero numerator too
                     ((0.5,), (1,)),
                     ((1,), (1, 0.5)),
                     ((Fraction(1, 2),), (1, -1)),
                     ((), (1, Fraction(1)))):
        with pytest.raises(TypeError):
            RationalGF(num, den)


def test_gf_refuses_a_series_that_is_not_integral():
    """Reduced, an integer series has Q(0) = 1 (Fatou's lemma); any other
    constant term is refused, after the content is divided out."""
    for num, den in (((1,), (2, -1)),            # 1/2, 1/4, 1/8, ...
                     ((1, 1), (2,)),             # a constant denominator
                     ((0, 8), (2, -1)),          # 4, 2, 1, 1/2, ...
                     ((1,), (-4, 2, 6))):        # content 2 in Q alone
        with pytest.raises(ValueError, match="not integral"):
            RationalGF(num, den)
    with pytest.raises(ValueError, match="constant term 2, not 1"):
        RationalGF((2,), (-4, 2))                # named after content and sign are out
    assert RationalGF((2,), (2, -2)) == RationalGF((1,), (1, -1))
    assert RationalGF((-3,), (-3, 3, 6)) == ((1,), (1, -1, -2))


def test_fit_refuses_a_fit_that_is_not_integral():
    # a_n = a_{n-1} / 2 fits these seven terms, but predicts 1/2 next
    assert fit_recurrence([64, 32, 16, 8, 4, 2, 1]) is None
    with pytest.raises(TypeError):
        fit_recurrence([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)])
    with pytest.raises(TypeError):
        fit_recurrence([Fraction(n) for n in class_terms(20)])


def test_gf_is_a_read_only_hashable_pair():
    gf = RationalGF((0, 2, -2), (2, -4, 2))
    # a namedtuple: equal to its plain, already normalised pair
    assert gf == ((0, 1), (1, -1))
    assert hash(gf) == hash(RationalGF((0, 1), (1, -1)))
    assert {gf: 1}[RationalGF((0, -3), (-3, 3))] == 1
    for name in ("numerator", "denominator"):
        with pytest.raises(AttributeError):
            setattr(gf, name, (1,))
    with pytest.raises(AttributeError):
        gf.extra = 1


def test_named_gfs_reduced_forms():
    # gf_m2()'s form is acceptance criterion 5, and its assembly from B a `verify --suite gf` check
    B = gf_max_first()
    assert B.numerator == (0, 1, -1, 1)
    assert B.denominator == (1, -2, 1, -1, 1)
    assert poly_gcd(B.numerator, B.denominator) == (1,)


def test_series_examples():
    assert series_coeffs(RationalGF((1,), (1, -1)), 4) == [1, 1, 1, 1]
    assert series_coeffs(gf_max_first(), 8) == [0, 1, 1, 2, 4, 6, 9, 14]
    assert series_coeffs(gf_m2(), 0) == []


def test_series_coefficient_types():
    for gf in (gf_m2(), gf_max_first(), GF_M1, RationalGF((2,), (-2, 4))):
        assert {type(c) for c in series_coeffs(gf, 200)} == {int}
    # 1, 1/2, 1/4, ...: the head is an integer but the series is not
    with pytest.raises(ValueError, match="not integral"):
        RationalGF((2,), (2, -1))


def test_nth_coeff_matches_series():
    for gf in (gf_m2(), gf_max_first(), GF_M1):
        series = reference_series(gf, 301)
        assert [nth_coeff(gf, n) for n in range(301)] == series
    assert nth_coeff(gf_m2(), 1000) == reference_series(gf_m2(), 1001)[1000]
    with pytest.raises(ValueError):
        nth_coeff(gf_m2(), -1)


@settings(max_examples=60)
@given(
    st.lists(st.integers(-4, 4), min_size=0, max_size=5),
    st.sampled_from([1, -1]),
    st.lists(st.integers(-4, 4), min_size=0, max_size=4),
    st.integers(0, 80),
)
@example([], 1, [1, -1], 0)
@example([0, 0], -1, [1], 5)
@example([1], -1, [1], 0)
def test_nth_coeff_property(num, q0, den_tail, n):
    gf = RationalGF(tuple(num), (q0, *den_tail))
    value = nth_coeff(gf, n)
    assert value == reference_series(gf, n + 1)[n]
    assert type(value) is int


@settings(max_examples=100)
@given(
    st.integers(0, 3),
    st.sampled_from([1, -1]),
    st.lists(st.integers(-4, 4), max_size=5),
    st.lists(st.integers(-4, 4), max_size=6),
)
@example(3, 1, [], [1])            # (1 - x)^3 alone: nothing left to convolve
@example(1, -1, [2], [1])          # (1 - x)(2x - 1): a sign to move, Q(1) = 0
@example(2, 1, [-1, 0, -1], [])    # P = 0
@example(2, 1, [-1, 0, -1], [0, 1, -1, 2, -3, 1, -1])  # gf_m2
@example(0, 1, [-1, -1], [1, 0, 0, 2])  # p_n = 0 inside P, next to -1 taps
@example(1, 1, [1, 0, 1], [3])          # only +1 taps, all dense: no -1 tap to start a term from
@example(3, 1, [-1, 2, 0, -3], [1, 1])  # three running sums over a dense R (P keeps all three)
@example(2, 1, [], [2, -3])             # R = 1, no window: S = 2, 1, 0, -1, ... passes through 0
@example(2, 1, [-1, 0, -1], [2, -3])    # the same S through gf_m2's R
def test_series_matches_the_full_convolution(k, q0, tail, num):
    """Q = (1 - x)^k R with taps of R that are 0, 1, -1 or larger: the
    stream equals the definition, in ints."""
    den = (q0, *tail)
    for _ in range(k):
        den = poly_mul(den, (1, -1))
    gf = RationalGF(tuple(num), den)
    want = reference_series(gf, 60)
    for got in (list(islice(series_stream(gf), 60)), series_coeffs(gf, 60)):
        assert got == want
        assert all(type(v) is int for v in got)


@functools.cache
def fitted_gf(m):
    return fit_recurrence(list(islice(split.counts(m), 200)))


@pytest.mark.parametrize("m", range(3, 9))
def test_fitted_series_matches_the_full_convolution(m):
    """The fitted denominators for m >= 3 are dense, so these series run
    the multiplying taps of the kernel, and nth_coeff a full-width tail."""
    gf = fitted_gf(m)
    assert gf is not None
    assert sum(abs(c) > 1 for c in gf.denominator) > gf.order // 3
    count = 2 * gf.order + 50
    want = reference_series(gf, count)
    assert series_coeffs(gf, count) == want
    for k in (0, gf.order, gf.valid_from, count - 1):
        assert nth_coeff(gf, k) == want[k]


def test_nth_coeff_takes_logarithmic_steps_at_high_order():
    gf = fitted_gf(8)  # order 93
    start = time.perf_counter()
    value = nth_coeff(gf, 2000)
    # about 0.012 s by doubling; Bostan-Mori halving took about 5 s
    assert time.perf_counter() - start < 0.5
    assert value == series_coeffs(gf, 2001)[2000]


def test_recurrence_attributes_are_read_only_ints():
    fib = RationalGF((0, 1), (1, -1, -1))
    assert fib.order == 2
    assert fib.coefficients == (1, 1)
    assert all(type(c) is int for c in fib.coefficients)
    for name in ("order", "coefficients", "valid_from"):
        with pytest.raises(AttributeError):
            setattr(fib, name, 1)                # read-only


def test_order_coefficients_and_valid_from_examples():
    A = gf_m2()
    assert A.coefficients == CLASS_COEFFS
    assert A.order == 5
    assert A.valid_from == 7
    assert series_coeffs(A, 7)[1:] == [1, 2, 5, 8, 12, 18]

    geo = RationalGF((1,), (1, -1))
    assert geo.coefficients == (1,)
    assert geo.order == 1 and geo.valid_from == 2

    B = gf_max_first()
    assert B.coefficients == (2, -1, 1, -1)
    assert B.order == 4 and B.valid_from == 4

    poly = RationalGF((2, 2), (2,))              # constant denominator: no relation
    assert poly == ((1, 1), (1,))
    assert poly.order == 0 and poly.coefficients == ()


def test_valid_from_marks_where_the_relation_starts():
    A = gf_m2()
    assert relation_holds_from(A, class_terms(12), A.valid_from)
    # the same relation started at index 5 from the first four class counts
    Q = A.denominator
    shifted = RationalGF(poly_mul((0, 1, 2, 5, 8), Q)[:5], Q)
    assert shifted.coefficients == CLASS_COEFFS and shifted.valid_from == 5
    # at index 5 the shifted relation predicts 11, the class count is 12
    assert series_coeffs(shifted, 13)[1:5] == [1, 2, 5, 8]
    assert series_coeffs(shifted, 6)[5] == 11
    assert not relation_holds_from(shifted, class_terms(12), shifted.valid_from)


def test_series_coeffs_is_the_head_of_the_stream():
    assert list(islice(series_stream(gf_m2()), 13)) == series_coeffs(gf_m2(), 13)
    assert series_coeffs(RationalGF((1,), (1, -1)), 6)[1:] == [1, 1, 1, 1, 1]


def test_fit_recovers_class_recurrence():
    fit = fit_recurrence(class_terms(20), 6, 7)
    assert fit == gf_m2()
    assert fit_recurrence(class_terms(20)) == fit  # the spare-equation rule alone
    assert fit_recurrence(class_terms(20), 4) is None  # order 5 exceeds max_order


def test_fit_minimality_prefers_low_order():
    fit = fit_recurrence([2] * 8, 2, 2)
    assert fit == RationalGF((0, 2), (1, -1))
    assert fit.coefficients == (1,)
    assert fit.valid_from == 2
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    fit = fit_recurrence(fib, 4, 4)
    assert fit == RationalGF((0, 1), (1, -1, -1))
    assert fit.coefficients == (1, 1)
    # the padded zero below index 1 doubles as the natural 0th term here
    assert fit.valid_from == 2


def test_fit_rejects_catalan():
    cats = [math.comb(2 * k, k) // (k + 1) for k in range(16)]
    assert fit_recurrence(cats, 5, 4) is None


def test_fit_needs_enough_data():
    # the acceptance rules alone refuse every sequence of fewer than four terms
    for seq in ([], [7], [1, 2], [0, 0, 0], [1, 2, 3], [1, 2, 4]):
        assert fit_recurrence(seq) is None, seq
    with pytest.raises(ValueError):
        fit_recurrence([1, 2, 3, 4], 0, 0)


def test_fit_from_25_terms_predicts_the_next_175():
    terms = class_terms(200)
    fit = fit_recurrence(terms[:25], 6, 7)
    assert fit is not None
    assert series_coeffs(fit, 201)[1:] == terms


def test_fit_high_order_within_a_second():
    """Order 91: denominator prod_{k <= 13} (1 - x^k), a dense numerator,
    twice the order in terms and four more."""
    den = (1,)
    for k in range(1, 14):
        den = poly_mul(den, (1,) + (0,) * (k - 1) + (-1,))
    rng = random.Random(1)
    source = RationalGF((0, *(rng.randint(-3, 3) for _ in range(89)), 1), den)
    assert source.order == 91
    terms = series_coeffs(source, 187)[1:]
    start = time.perf_counter()
    fit = fit_recurrence(terms, 100, 100)
    elapsed = time.perf_counter() - start
    assert fit == source
    assert elapsed < 1.0, f"order-91 fit took {elapsed:.2f} s"


@settings(max_examples=40)
@given(
    st.sampled_from([1, -1]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
)
@example(1, [-3, 3, -2, 2, -1], [1, -1, 2, -3, 1, -1])  # gf_m2
@example(-1, [2], [8])                                    # 8, 16, 32, ...
def test_fit_round_trip(q0, den_tail, num_tail):
    """A random reduced RationalGF with a_0 = 0 comes back from twice its
    span in terms, and two more."""
    source = RationalGF((0, *num_tail), (q0, *den_tail))
    assume(source.order >= 1)
    span = max(len(source.numerator), len(source.denominator)) - 1
    terms = series_coeffs(source, 2 * span + 3)[1:]
    fit = fit_recurrence(terms, max_order=source.order, max_offset=span)
    assert fit == source
    more = len(terms) + 51
    assert series_coeffs(fit, more) == series_coeffs(source, more)


@settings(max_examples=60)
@given(
    st.sampled_from([1, -1]),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
)
@example(1, [-1, -1, 2, -2, 1], [0, 1, -1, 2, -1, 1])  # gf_m2, unreduced
@example(-1, [1], [0, 1])
def test_fit_reads_the_denominator_of_a_rational_gf(q0, den_tail, num):
    """Given twice the relation's span in terms, and two more, the fit is
    the recurrence of the reduced GF: order deg Q, coefficients -q_i."""
    gf = RationalGF(tuple(num), (q0, *den_tail))
    q = gf.denominator
    assume(gf.numerator and len(q) >= 2)
    span = max(len(gf.numerator), len(q)) - 1
    seq = series_coeffs(gf, 2 * span + 3)[1:]
    fit = fit_recurrence(seq, max_order=len(q) - 1, max_offset=span)
    assert fit is not None
    assert fit.order == len(q) - 1
    assert fit.coefficients == tuple(-qi for qi in q[1:])
    assert fit.valid_from == gf.valid_from
    # the fit reads a_0 as 0: it is gf less its constant term p_0
    assert fit == gf_add(gf, RationalGF((-gf.numerator[0],), (1,)))


def test_negative_series_terms_are_ints():
    doubles = RationalGF((0, 8), (-1, 2))        # a_1 = -8, a_n = 2 a_{n-1}
    assert doubles.coefficients == (2,) and doubles.valid_from == 2
    terms = series_coeffs(doubles, 5)[1:]
    assert terms == [-8, -16, -32, -64]
    assert all(type(t) is int for t in terms)
    assert series_coeffs(doubles, 0) == []
    with pytest.raises(ValueError):
        series_coeffs(doubles, -1)


@settings(max_examples=30)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-3, 3), min_size=0, max_size=3),
)
def test_gf_recurrence_round_trip(den_tail, num):
    den = (1, *den_tail)
    if den[-1] == 0:
        den = den[:-1] or (1,)
    gf = RationalGF(tuple(num), den)
    if len(gf.denominator) < 2:
        return
    seq = series_coeffs(gf, gf.valid_from + gf.order + 10)[1:]
    assert relation_holds_from(gf, seq, gf.valid_from)
    if gf.valid_from > 1:                        # and not from one index earlier
        assert not relation_holds_from(gf, seq, gf.valid_from - 1)


def test_dominant_root_examples():
    assert dominant_root([1]) == pytest.approx(1.0, abs=1e-12)
    assert dominant_root([1, 0, 0]) == pytest.approx(1.0, abs=1e-12)  # x^3 - x^2
    golden = (1 + math.sqrt(5)) / 2
    assert abs(dominant_root([1, 1]) - golden) < 1e-12
    # x^2 = 1: the roots +1 and -1 tie in modulus
    with pytest.raises(NoDominantRoot):
        dominant_root([0, 1])
    # x^2 - 2x + 1: double root at 1, no unique dominant root
    with pytest.raises(NoDominantRoot):
        dominant_root([2, -1])
    # (x - 1)^3, (x - 2)^4 and (x - 2)^3: a repeated root is never unique
    for coeffs in ([3, -3, 1], [8, -24, 32, -16], [6, -12, 8]):
        with pytest.raises(NoDominantRoot):
            dominant_root(coeffs)
    # x and x^2: every root is 0; no coefficient at all is a usage error
    for coeffs in ([0], [0, 0]):
        with pytest.raises(NoDominantRoot):
            dominant_root(coeffs)
    with pytest.raises(ValueError):
        dominant_root([])
    with pytest.raises(TypeError):
        dominant_root([Fraction(1)])


@pytest.mark.parametrize("gf", [
    gf_m2(), gf_max_first(),
    RationalGF((1,), (-1, 2)),                    # q_0 = -1: the sign moves to P
    RationalGF((2,), (2, -4, -6)),                # content 2 in P and Q
    *(fit_recurrence(list(islice(split.counts(m), 400))) for m in range(2, 7)),
])
def test_gf_char_poly_needs_no_fraction(gf):
    """dominant_root reads a RationalGF's characteristic polynomial off the
    reversed denominator; the bare coefficients give the same one."""
    assert gf.denominator == (1, *(-c for c in gf.coefficients))
    assert dominant_root(gf) == dominant_root(list(gf.coefficients))


def mpmath_dominant_root(den):
    """The dominant root of x^d Q(1/x) for the integer Q ``den`` (lowest
    coefficient first), from mpmath's roots at 50 digits, or None when the
    roots, counted with multiplicity, tie within 1e-6 of the top modulus or
    the top one is not positive real.  A repeated root converges only at a
    higher working precision, so a failed run is repeated with more."""
    with mp.workdps(50):
        for extra in (60, 400, 2000):
            try:
                roots = mp.polyroots(list(den), maxsteps=800, extraprec=extra)
                break
            except NoConvergence:
                continue
        else:
            raise AssertionError(f"mpmath found no roots of {den}")
        top = max(abs(r) for r in roots)
        near = [r for r in roots if abs(r) > top * (1 - mp.mpf("1e-6"))]
        if len(near) != 1 or abs(mp.im(near[0])) > 1e-6 * max(1, top) or mp.re(near[0]) <= 0:
            return None
        return float(mp.re(near[0]))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, -1]), st.lists(st.integers(-9, 9), min_size=1, max_size=20))
@example(1, [-2, 1])      # (1 - x)^2
@example(1, [-3, 3, -1])  # (1 - x)^3
@example(1, [0, 1])       # 1 + x^2, roots +i and -i
@example(1, [-4, 5, -2])  # (1 - x)^2 (1 - 2x): the double root is not the top one
@example(-1, [4, -5, 2])  # the same, signs moved to P
def test_dominant_root_matches_mpmath(lead, tail):
    gf = RationalGF((1,), (lead, *tail))
    assume(gf.order >= 1)
    want = mpmath_dominant_root(gf.denominator)
    if want is None:
        with pytest.raises(NoDominantRoot):
            dominant_root(gf)
    else:
        assert dominant_root(gf) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m", range(2, 7))
def test_dominant_root_of_fitted_gfs_matches_mpmath(m):
    gf = fit_recurrence(list(islice(split.counts(m), 400)))
    want = mpmath_dominant_root(gf.denominator)
    assert want is not None
    assert dominant_root(gf) == pytest.approx(want, rel=1e-12)
    assert abs(dominant_root(gf) - want) <= 8 * math.ulp(want)


def test_unconverged_root_search_raises(monkeypatch):
    # the squarefree part of gf_m2's characteristic polynomial takes 7 sweeps
    monkeypatch.setattr(genfunc, "_ABERTH_SWEEPS", 2)
    with pytest.raises(ArithmeticError) as caught:
        dominant_root(gf_m2())
    assert not isinstance(caught.value, NoDominantRoot)


def test_dominant_root_at_order_52_is_fast():
    gf = fit_recurrence(list(islice(split.counts(6), 400)))
    assert gf.order == 52
    start = time.perf_counter()
    dominant_root(gf)
    assert time.perf_counter() - start < 0.5

