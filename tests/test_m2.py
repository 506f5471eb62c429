import time
from itertools import islice

import pytest
from hypothesis import example, given, strategies as st

from permlip.core import in_class
from permlip.genfunc import gf_m2, gf_max_first, nth_coeff, series_coeffs, series_stream
from permlip.m2 import (
    _A_ALPHA,
    _A_BETA,
    _A_CUBIC_TAIL,
    _A_HEAD,
    _A_TAIL,
    _G_TAIL,
    _W_HEAD,
    _diagonalized,
    _form_term,
    _parity_forms,
    _recurrence_term,
    _tail_over_x_minus_1,
    class_count,
    class_count_by_recurrence,
    max_first_count,
    max_first_perms,
    max_last_count,
    max_last_perms,
    max_second_count,
    to_max_first,
    to_max_second,
    zigzag,
)


def test_descent_constructors():
    # odd prefixes (1), (3, 1), ... first, then even runs (2, 1), (4, 2, 1), ...
    assert max_last_perms(2) == [(1, 2)]
    assert max_last_perms(3) == [(1, 2, 3), (2, 1, 3)]
    assert max_last_perms(5) == [(1, 2, 3, 4, 5), (3, 1, 2, 4, 5),
                                 (2, 1, 3, 4, 5), (4, 2, 1, 3, 5)]
    assert max_last_perms(6) == [(1, 2, 3, 4, 5, 6), (3, 1, 2, 4, 5, 6), (5, 3, 1, 2, 4, 6),
                                 (2, 1, 3, 4, 5, 6), (4, 2, 1, 3, 5, 6)]
    with pytest.raises(ValueError):
        max_last_perms(1)
    with pytest.raises(ValueError):
        max_last_count(1)


@given(st.integers(2, 40))
def test_constructed_words_are_members(n):
    words = max_last_perms(n)
    assert len(set(words)) == n - 1
    for word in words:
        assert sorted(word) == list(range(1, n + 1))
        assert word[-1] == n
        assert in_class(word, 2)


def test_max_first_counts():
    assert [max_first_count(n) for n in range(1, 8)] == [1, 1, 2, 4, 6, 9, 14]
    for n in range(4, 60):
        assert max_first_count(n) == max_first_count(n - 1) + max_first_count(n - 3) + 1
    with pytest.raises(ValueError):
        max_first_count(0)


def test_max_second_count_shifts_down():
    for n in range(3, 40):
        assert max_second_count(n) == max_first_count(n - 2)
    with pytest.raises(ValueError):
        max_second_count(2)


def test_max_first_words():
    assert max_first_perms(4) == [(4, 3, 2, 1), (4, 3, 1, 2), (4, 2, 3, 1), (4, 2, 1, 3)]
    with pytest.raises(ValueError):
        max_first_perms(0)


def test_zigzag_words():
    assert zigzag(4) == (4, 2, 1, 3)
    assert zigzag(5) == (5, 3, 1, 2, 4)
    assert zigzag(6) == (6, 4, 2, 1, 3, 5)
    for n in range(4, 30):
        z = zigzag(n)
        assert in_class(z, 2)
        assert z[0] == n and z[1] == n - 2
        if n >= 5:
            assert z[2] == n - 4
    with pytest.raises(ValueError):
        zigzag(3)


def test_graft_maps_are_inverse_bijections():
    for word, small in (((2, 3, 1), (1,)), ((4, 5, 3, 1, 2), (3, 1, 2)), ((3, 4, 2, 1), (2, 1))):
        assert (to_max_first(word), to_max_second(small, len(word))) == (small, word)


def test_graft_map_rejects_bad_input():
    with pytest.raises(ValueError):
        to_max_first((3, 2, 1))  # max not second
    with pytest.raises(ValueError):
        to_max_first((1, 3, 2))  # pattern violation
    with pytest.raises(ValueError):
        to_max_first((2, 1))
    with pytest.raises(ValueError):
        to_max_second((1, 2), 3)  # wrong length
    with pytest.raises(ValueError):
        to_max_second((1, 2, 3), 5)  # wrong first entry
    # in_class takes any word for a permutation, so the maps check that first
    with pytest.raises(ValueError):
        to_max_first((3, 4, 2, 2))  # repeated entry
    with pytest.raises(ValueError):
        to_max_second((2, 2), 4)  # repeated entry
    with pytest.raises(ValueError):
        to_max_second((4, 1, 2, 3), 6)  # jump of 3


def test_class_count_routes_agree():
    assert [class_count(n) for n in range(1, 7)] == [1, 2, 5, 8, 12, 18]
    assert class_count_by_recurrence(7) == 26
    for fn in (class_count, class_count_by_recurrence):
        with pytest.raises(ValueError):
            fn(0)


def test_family_sizes_assemble_total():
    for n in range(3, 200):
        assert class_count(n) == max_first_count(n) + max_second_count(n) + max_last_count(n)


# roots near 1000 and -1000, with a zero and a negative tap: coefficients of
# some 4 460 bits, checked against a reference that stays short
BIG_ROOT_EXAMPLES = [((1000, 0, -2, 1), 1801), ((-1000, 0, 2), 1800)]


@given(st.lists(st.integers(-3, 3), min_size=0, max_size=6).map(tuple), st.integers(0, 300))
@example((), 5)
@example((2,), 0)
@example((-3,), 300)
@example((1, 0, 0), 7)
@example((1, -2, 3, 0, 0, 0), 300)
@example((1, -2, 3, 0, 0, 0), 299)
@example((3, -3, 2, -2, 1), 1)  # k >> 1 = 0: the readout runs nearly alone
@example((3, -3, 2, -2, 1), 2)  # k >> 1 = 1
@example((2,), 257)
@example(*BIG_ROOT_EXAMPLES[0])
@example(*BIG_ROOT_EXAMPLES[1])
def test_recurrence_term_reads_the_recurrence(tail, k):
    # from each unit window, the k-th term of the sequence it starts
    d = len(tail)
    assert d or _recurrence_term(k, tail, ()) == 0
    for i in range(d):
        u = [int(j == i) for j in range(d)]
        while len(u) <= k:
            u.append(sum(t * u[-j] for j, t in enumerate(tail, 1)))
        assert _recurrence_term(k, tail, tuple(u[:d])) == u[k]


def test_cubic_factor_of_the_order5_recurrence():
    # the paper's denominator (1 - x)^2 (1 - x - x^3): two exact divisions by
    # x - 1 leave the max-first recurrence's characteristic polynomial
    assert _tail_over_x_minus_1(_tail_over_x_minus_1(_A_TAIL)) == _A_CUBIC_TAIL == _G_TAIL
    with pytest.raises(ValueError):
        _tail_over_x_minus_1(_A_CUBIC_TAIL)  # x^3 - x^2 - 1 is -1 at 1


def _determinant(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _symmetric(d, entries):
    h = [[0] * d for _ in range(d)]
    it = iter(entries)
    for i in range(d):
        for j in range(i, d):
            h[i][j] = h[j][i] = next(it)
    return h


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.integers(-50, 50), min_size=d * (d + 1) // 2,
                         max_size=d * (d + 1) // 2),
    st.lists(st.integers(-10**30, 10**30), min_size=d, max_size=d))))
@example((3, [2, 2, 3, 3, 5, 7], [1, 0, 0]))  # g's H_0: pivots 2, 2 and -6
@example((2, [0, 1, 1], [1, 1]))
def test_diagonalized_form_equals_the_matrix_form(case):
    d, entries, x = case
    h = _symmetric(d, entries)
    minors = [1]  # leading principal minors; pivot j is minors[j + 1] / minors[j]
    for j in range(1, d + 1):
        minors.append(_determinant([row[:j] for row in h[:j]]))
    if 0 in minors:
        with pytest.raises(ValueError):
            _diagonalized(h)
        return
    delta, e, rows = _diagonalized(h)
    assert delta != 0 and len(e) == len(rows) == d
    quad = sum(h[i][j] * x[i] * x[j] for i in range(d) for j in range(d))
    assert delta * quad == sum(ej * sum(r * xi for r, xi in zip(row, x)) ** 2
                               for ej, row in zip(e, rows))


def test_diagonalized_raises_on_a_zero_pivot():
    with pytest.raises(ValueError):
        _diagonalized([[0, 1], [1, 0]])
    with pytest.raises(ValueError):  # second pivot 1*1 - 1*1
        _diagonalized([[1, 1, 0], [1, 1, 2], [0, 2, 3]])


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(tuple),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4), st.integers(0, 300))
@example((1, 0, 1), [2, 2, 3, 0], 299)
@example((1, 0, 1), [3, 5, 7, 0], 0)
def test_parity_forms_read_the_recurrence(tail, window, k):
    d = len(tail)
    head = tuple(window[:d])
    try:
        forms = _parity_forms(tail, head)
    except ValueError:
        return  # a Hankel matrix with a zero pivot has no form
    u = list(head)
    while len(u) <= k:
        u.append(sum(t * u[-j] for j, t in enumerate(tail, 1)))
    assert _form_term(k, tail, forms) == u[k] == _recurrence_term(k, tail, head)


def test_order5_split_is_the_paper_family_sum():
    # a(n) = w(n) - 3 + n: the paper's f(n) + f(n - 2) + (n - 1) with
    # f = g - 1 is g(n) + g(n - 2) = g(n + 1), a cubic part, plus n - 3
    assert (_A_ALPHA, _A_BETA) == (-3, 1)
    w, a = list(_W_HEAD), list(_A_HEAD[1:])  # from n = 2
    while len(w) < 300:
        w.append(w[-1] + w[-3])  # x^3 - x^2 - 1
    while len(a) < 300:
        a.append(sum(t * a[-j] for j, t in enumerate(_A_TAIL, 1)))
    assert [wn + _A_ALPHA + _A_BETA * n for n, wn in enumerate(w, 2)] == a
    f = max_first_count
    for n in range(3, 302):
        assert w[n - 2] + _A_ALPHA + _A_BETA * n == f(n) + f(n - 2) + (n - 1)


def test_order5_route_equals_the_order5_kernel():
    # the cubic part read by its form, plus the line, against x^(n-2) mod the quintic
    for n in [*range(7, 3001), 65537, 100003, 200000]:
        assert class_count_by_recurrence(n) == _recurrence_term(n - 2, _A_TAIL, _A_HEAD[1:]), n


def test_nth_term_routes_equal_one_pass_of_the_series():
    for fn, gf in ((class_count, gf_m2()), (class_count_by_recurrence, gf_m2()),
                   (max_first_count, gf_max_first())):
        for n, term in enumerate(islice(series_stream(gf), 1, 2001), start=1):
            assert fn(n) == term, (fn.__name__, n)


@pytest.fixture(scope="module")
def m2_series():
    return series_coeffs(gf_m2(), 10**4 + 1)


# 8191..8193 give both parities of k and an all-ones or single-bit k >> 1
@pytest.mark.parametrize("n", [8191, 8192, 8193, 10**4, 65537, 100003])
def test_nth_term_routes_equal_the_series(n, m2_series):
    assert class_count(n) == class_count_by_recurrence(n) == nth_coeff(gf_m2(), n)
    if n <= 10**4:  # all three share _x_power_mod's squaring; the series shares nothing
        assert class_count(n) == m2_series[n]


@pytest.mark.parametrize("fn", [class_count, class_count_by_recurrence])
def test_nth_term_routes_take_logarithmic_steps(fn):
    start = time.perf_counter()
    fn(200000)
    # about 0.004 s by doubling (3.6-4.3 ms); stepping through every term took 1-4 s
    assert time.perf_counter() - start < 0.5
