import time
from itertools import islice

import pytest
from hypothesis import example, given, strategies as st

from permlip import bruteforce
from permlip.core import in_class
from permlip.genfunc import gf_m2, nth_coeff, series_coeffs
from permlip.m2 import (
    _x_pow_mod,
    class_count,
    class_count_by_recurrence,
    class_counts,
    class_counts_by_recurrence,
    max_first_count,
    max_first_counts,
    max_first_perms,
    max_last_count,
    max_last_perms,
    max_second_count,
    to_max_first,
    to_max_second,
    zigzag,
)


def oracle_family(n, position):
    picked = []
    for w in bruteforce.members(n, 2):
        if position == "first" and w[0] == n:
            picked.append(w)
        elif position == "second" and w[1] == n:
            picked.append(w)
        elif position == "last" and w[-1] == n:
            picked.append(w)
    return picked


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


@given(st.integers(2, 40))
def test_constructed_words_are_members(n):
    words = max_last_perms(n)
    assert len(set(words)) == n - 1
    for word in words:
        assert sorted(word) == list(range(1, n + 1))
        assert word[-1] == n
        assert in_class(word, 2)


def test_max_last_family_matches_oracle():
    for n in range(2, 13):
        built = max_last_perms(n)
        assert len(built) == max_last_count(n) == n - 1
        assert sorted(built) == sorted(oracle_family(n, "last")), n
    with pytest.raises(ValueError):
        max_last_perms(1)
    with pytest.raises(ValueError):
        max_last_count(1)


def test_max_first_counts():
    assert [max_first_count(n) for n in range(1, 8)] == [1, 1, 2, 4, 6, 9, 14]
    for n in range(4, 60):
        assert max_first_count(n) == max_first_count(n - 1) + max_first_count(n - 3) + 1
    assert list(islice(max_first_counts(), 59)) == [max_first_count(n) for n in range(1, 60)]
    with pytest.raises(ValueError):
        max_first_count(0)


def test_max_second_count_shifts_down():
    for n in range(3, 40):
        assert max_second_count(n) == max_first_count(n - 2)
    with pytest.raises(ValueError):
        max_second_count(2)


def test_max_first_family_matches_oracle():
    assert max_first_perms(4) == [(4, 3, 2, 1), (4, 3, 1, 2), (4, 2, 3, 1), (4, 2, 1, 3)]
    for n in range(1, 13):
        built = max_first_perms(n)
        assert len(built) == max_first_count(n)
        assert sorted(built) == sorted(oracle_family(n, "first")), n
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


def test_zigzag_signature_unique_in_family():
    for n in range(4, 13):
        z = zigzag(n)
        twins = [w for w in oracle_family(n, "first") if (w[1], w[2]) == (z[1], z[2])]
        assert twins == [z], n


def test_blocked_head_never_occurs():
    # no member starts n, n-2, n-3 once all three values are distinct entries
    for n in range(5, 13):
        bad = [w for w in oracle_family(n, "first") if w[1] == n - 2 and w[2] == n - 3]
        assert bad == [], n


def test_graft_maps_are_inverse_bijections():
    assert to_max_first((2, 3, 1)) == (1,)
    assert to_max_first((4, 5, 3, 1, 2)) == (3, 1, 2)
    assert to_max_first((3, 4, 2, 1)) == (2, 1)
    assert to_max_second((1,), 3) == (2, 3, 1)
    for n in range(3, 13):
        family = oracle_family(n, "second")
        small = max_first_perms(n - 2)
        assert sorted(to_max_first(w) for w in family) == sorted(small)
        for w in family:
            assert to_max_second(to_max_first(w), n) == w
        for w in small:
            assert to_max_first(to_max_second(w, n)) == w


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


def test_class_count_routes_agree():
    assert [class_count(n) for n in range(1, 7)] == [1, 2, 5, 8, 12, 18]
    assert class_count_by_recurrence(7) == 26
    for n in range(1, 13):
        assert class_count(n) == bruteforce.count(n, 2)
    for n in range(1, 400):
        assert class_count(n) == class_count_by_recurrence(n)
    by_n = [class_count(n) for n in range(1, 400)]
    assert list(islice(class_counts(), 399)) == by_n
    assert list(islice(class_counts_by_recurrence(), 399)) == by_n
    for n in range(3, 200):
        assert class_count(n) == max_first_count(n) + max_first_count(n - 2) + n - 1
    for fn in (class_count, class_count_by_recurrence):
        with pytest.raises(ValueError):
            fn(0)


def test_family_sizes_assemble_total():
    for n in range(3, 13):
        census = bruteforce.max_position_census(n, 2)
        assert census == {1: max_first_count(n), 2: max_second_count(n), n: max_last_count(n)}


@given(st.lists(st.integers(-3, 3), min_size=0, max_size=6).map(tuple), st.integers(0, 300))
@example((), 5)
@example((2,), 0)
@example((-3,), 300)
@example((1, 0, 0), 7)
@example((1, -2, 3, 0, 0, 0), 300)
def test_x_pow_mod_reads_the_recurrence(tail, k):
    # c[i] is the k-th term of the sequence started from the i-th unit window
    c, d = _x_pow_mod(k, tail), len(tail)
    assert len(c) == d
    for i in range(d):
        u = [int(j == i) for j in range(d)]
        while len(u) <= k:
            u.append(sum(t * u[-j] for j, t in enumerate(tail, 1)))
        assert c[i] == u[k]


def test_nth_term_routes_equal_one_pass_of_their_streams():
    for fn, stream in ((class_count, class_counts()),
                       (class_count_by_recurrence, class_counts_by_recurrence()),
                       (max_first_count, max_first_counts())):
        for n, term in enumerate(islice(stream, 2000), start=1):
            assert fn(n) == term, (fn.__name__, n)


@pytest.mark.parametrize("n", [10**4, 65537, 100003])
def test_nth_term_routes_equal_the_series(n):
    assert class_count(n) == class_count_by_recurrence(n) == nth_coeff(gf_m2(), n)
    if n == 10**4:  # all three share the x^k mod Q kernel; the series shares nothing
        assert nth_coeff(gf_m2(), n) == series_coeffs(gf_m2(), n + 1)[n]


@pytest.mark.parametrize("fn", [class_count, class_count_by_recurrence])
def test_nth_term_routes_take_logarithmic_steps(fn):
    start = time.perf_counter()
    fn(200000)
    # about 0.05 s by doubling; stepping through every term took 1-4 s
    assert time.perf_counter() - start < 0.5
