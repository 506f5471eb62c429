"""Decomposition engine (split at the maximum) against independently
derived counts: the brute-force oracle, the transfer-matrix counter, the
exact m = 2 theory and the Catalan numbers; its refusals, its speed, and
the generating functions fitted from its long runs."""

import time
from itertools import islice

import pytest

from permlip import transfer
from permlip.bruteforce import CeilingExceeded, catalan
from permlip.checks import run_suite
from permlip.genfunc import dominant_root, fit_recurrence, gf_m2, series_coeffs
from permlip.split import count, counts, head


@pytest.mark.parametrize("m", range(1, 7))
def test_matches_oracle(m):
    # `verify --suite transfer`: this engine and the transfer counter, one oracle walk per n
    assert [r for r in run_suite("transfer", 11, m) if not r[1]] == []


@pytest.mark.parametrize("m", range(1, 10))
def test_matches_transfer(m):
    assert list(islice(counts(m), 13)) == [transfer.count(n, m) for n in range(1, 14)]


@pytest.mark.parametrize("m", [*range(1, 9), 10**9])
def test_head_is_the_first_counts(m):
    for n_max in (1, 2, 7, 14):
        assert list(head(n_max, m)) == [count(n, m) for n in range(1, n_max + 1)]


def test_bound_two_matches_closed_form_for_2000_terms():
    assert list(islice(counts(2), 2000)) == series_coeffs(gf_m2(), 2001)[1:]


def test_bound_one_is_two_from_length_two():
    assert list(islice(counts(1), 50)) == [1] + [2] * 49


def test_loose_bound_is_catalan(monkeypatch):
    monkeypatch.setenv("PERMLIP_CEILING", "30")
    for n in range(1, 31):
        for m in {max(1, n - 1), n, n + 5}:
            assert count(n, m) == catalan(n), f"n={n} m={m}"


def test_counts_never_drop_as_the_bound_loosens():
    rows = [list(islice(counts(m), 60)) for m in range(1, 9)]
    for m, (lo, hi) in enumerate(zip(rows, rows[1:]), start=1):
        assert all(a <= b for a, b in zip(lo, hi)), f"m={m}"


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
        with pytest.raises(ValueError):  # on the call itself, before any term is read
            head(n, m)
    with pytest.raises(CeilingExceeded):
        head(11, 3)
    with pytest.raises(ValueError):
        next(counts(0))


def test_huge_bound_costs_nothing():
    start = time.perf_counter()
    assert count(14, 10**9) == catalan(14)
    assert time.perf_counter() - start < 1


def test_long_run_at_bound_eight_is_fast():
    # the transfer counter cannot reach n = 20 at any bound above 2
    start = time.perf_counter()
    terms = list(islice(counts(8), 400))
    assert time.perf_counter() - start < 2
    assert terms[:14] == [transfer.count(n, 8) for n in range(1, 15)]


def test_fit_on_400_terms():
    # m = 2 gives the paper's generating function, fitted from data alone
    assert fit_recurrence(list(islice(counts(2), 400)), 200, 200) == gf_m2()
    fitted = fit_recurrence(list(islice(counts(3), 400)), 200, 200)
    assert fitted.order == 13
    assert dominant_root(fitted) == pytest.approx(1.8265157722, abs=1e-9)
