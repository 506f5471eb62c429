"""Transfer-matrix counter against the Catalan numbers, the exact m = 2
theory and an exhaustive filter over all permutations; the brute-force
oracle holds it in ``test_split.py::test_matches_oracle``."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from permlip import m2
from permlip.bruteforce import CeilingExceeded, catalan
from permlip.core import in_class
from permlip.transfer import count


def test_loose_bound_is_catalan():
    for n in range(1, 15):
        for m in {max(1, n - 1), n, n + 3}:
            assert count(n, m) == catalan(n), f"n={n} m={m}"


def test_bound_two_matches_closed_form():
    assert [count(n, 2) for n in range(1, 15)] == [m2.class_count(n) for n in range(1, 15)]


def test_bound_three_at_the_ceiling():
    assert count(14, 3) == 10088


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 8))
def test_matches_exhaustive_filter(n, m):
    words = permutations(range(1, n + 1))
    assert count(n, m) == sum(in_class(w, m) for w in words)
    assert count(n, m) <= count(n, m + 1)


def test_refusals(monkeypatch):
    with pytest.raises(CeilingExceeded):
        count(15, 3)
    monkeypatch.setenv("PERMLIP_CEILING", "15")
    assert count(15, 2) == 478
    monkeypatch.setenv("PERMLIP_CEILING", "10")
    with pytest.raises(CeilingExceeded):
        count(11, 3)
    for n, m in ((0, 2), (-1, 2), (3, 0), (3, -2)):
        with pytest.raises(ValueError):
            count(n, m)
