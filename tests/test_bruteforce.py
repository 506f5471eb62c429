import math
import sys
from collections import Counter
from itertools import permutations

import pytest

from conftest import traced
from permlip.bruteforce import (
    CeilingExceeded,
    catalan,
    catalan_by_recurrence,
    count,
    max_position_census,
    members,
)
from permlip.core import in_class


def test_count_small_table_bound_2():
    assert [count(n, 2) for n in range(1, 7)] == [1, 2, 5, 8, 12, 18]


def test_count_bound_1_collapses():
    assert count(1, 1) == 1
    assert all(count(n, 1) == 2 for n in range(2, 13))


def test_count_loose_bound_hits_catalan():
    for n in range(1, 9):
        assert count(n, n - 1 if n > 1 else 1) == catalan(n)
    assert count(6, 12) == catalan(6) == 132


def test_members_lex_order_and_content():
    assert members(3, 2) == [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    assert members(1, 5) == [(1,)]
    assert members(2, 1) == [(1, 2), (2, 1)]
    for n in range(1, 8):
        got = members(n, 2)
        assert got == sorted(got)
        assert len(got) == count(n, 2)


def test_members_equal_filtered_universe():
    # against the definition applied to all of S_n
    for n in range(1, 7):
        for m in (1, 2, 3, n + 1):
            expected = [w for w in permutations(range(1, n + 1)) if in_class(w, m)]
            assert members(n, m) == expected, (n, m)
            census = Counter(w.index(n) + 1 for w in expected)
            assert max_position_census(n, m) == dict(sorted(census.items())), (n, m)


def test_count_nondecreasing_in_bound():
    for n in range(1, 11):
        row = [count(n, m) for m in range(1, 10)]
        assert row == sorted(row), (n, row)
        assert row[-1] == catalan(n)


def test_catalan_routes_agree():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(10) == 16796
    assert catalan(10) == math.comb(20, 10) // 11
    for n in (*range(0, 15), 100, 1000):
        assert catalan(n) == catalan_by_recurrence(n)
    for route in (catalan, catalan_by_recurrence):
        with pytest.raises(ValueError):
            route(-1)


def test_census_examples():
    assert max_position_census(3, 2) == {1: 2, 2: 1, 3: 2}
    assert max_position_census(1, 4) == {1: 1}
    assert max_position_census(6, 2) == {1: 9, 2: 4, 6: 5}
    assert max_position_census(2, 1) == {1: 1, 2: 1}


def test_census_holds_no_class():
    census, peak, _ = traced(max_position_census, 10, 9)
    assert sum(census.values()) == catalan(10)
    # the leak: the catalan(10) = 16796 members of length 10 held as tuples
    assert peak < catalan(10) * sys.getsizeof(tuple(range(10))) / 8, peak


def test_census_support_and_realization():
    for m in (1, 2, 3, 4):
        for n in range(1, 9):
            census = max_position_census(n, m)
            assert sum(census.values()) == count(n, m)
            allowed = set(range(1, min(m, n) + 1)) | {n}
            assert set(census) <= allowed, (n, m, census)
            if n >= 2:
                required = set(range(1, min(m, n - 1) + 1)) | {n}
                assert required <= set(census), (n, m, census)


def test_ceiling_enforcement(monkeypatch):
    with pytest.raises(CeilingExceeded):
        count(15, 2)
    with pytest.raises(CeilingExceeded):
        members(20, 3)
    monkeypatch.setenv("PERMLIP_CEILING", "15")
    assert count(15, 2) == 478
    monkeypatch.setenv("PERMLIP_CEILING", "10")
    with pytest.raises(CeilingExceeded):
        count(11, 2)
    for junk in ("junk", "0", "-3"):
        monkeypatch.setenv("PERMLIP_CEILING", junk)
        with pytest.raises(ValueError, match="PERMLIP_CEILING"):
            count(3, 2)


def test_argument_validation():
    with pytest.raises(ValueError):
        count(0, 2)
    with pytest.raises(ValueError):
        count(3, 0)
