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
    jump_position_census,
    max_position_census,
    members,
)
from permlip.core import in_class, max_adjacent_jump


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
            joint = Counter((max_adjacent_jump(w), w.index(n) + 1) for w in expected)
            assert jump_position_census(n, m) == dict(sorted(joint.items())), (n, m)


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


def test_census_totals_the_count():
    # its support and realization are `verify --suite max-position`'s checks
    for m in (1, 2, 3, 4):
        for n in range(1, 11):
            assert sum(max_position_census(n, m).values()) == count(n, m), (n, m)


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
