"""Acceptance gate: the nine headline guarantees, each timed against its
budget and announced with a single pass/fail line.

The announcements print with capture suspended, so the nine lines appear
on the terminal whether pytest runs quiet or verbose.  Criteria 2-4 and 6
run the falsification suites that ``permlip verify`` ships, so each claim
is stated once, in ``permlip.checks``.
"""

import time
from contextlib import contextmanager

import pytest

from permlip.asymptotics import estimate
from permlip.bruteforce import catalan, count
from permlip.checks import run_suite
from permlip.genfunc import fit_recurrence, gf_m2
from permlip.m2 import class_count
from permlip.probe import build_profile


def _failures(name: str, n_max: int) -> list:
    return [r for r in run_suite(name, n_max) if not r[1]]


def _announce(label: str, verdict: str, elapsed: float, budget: float, note: str = ""):
    line = f"[acceptance] {label}: {verdict} ({elapsed:.2f}s, budget {budget:g}s)"
    if note:
        line += f" -- {note}"
    print(line, flush=True)


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def run(label: str, budget: float):
        holder = {"note": ""}
        start = time.perf_counter()
        try:
            yield holder
        except BaseException:
            with capfd.disabled():
                _announce(label, "FAIL", time.perf_counter() - start, budget,
                          holder["note"])
            raise
        elapsed = time.perf_counter() - start
        within = elapsed < budget
        with capfd.disabled():
            _announce(label, "PASS" if within else "FAIL", elapsed, budget,
                      holder["note"])
        assert within, f"{label} took {elapsed:.2f}s, over the {budget:g}s budget"

    return run


def test_small_length_counts_by_search(criterion):
    with criterion("1 small-length counts by direct search", 1.0):
        assert [count(n, 2) for n in range(1, 7)] == [1, 2, 5, 8, 12, 18]


def test_count_routes_agree_to_length_1000(criterion):
    with criterion("2 closed form, recurrence, and series agree to n=1000", 5.0):
        for n in range(7, 15):
            assert class_count(n) == count(n, 2)
        assert _failures("gf", 1000) == []


def test_maximum_position_support(criterion):
    with criterion("3 maximum-position support and realization", 60.0):
        assert _failures("max-position", 10) == []  # m = 1..4


def test_structure_of_the_three_families(criterion):
    with criterion("4 family structure and bijections through n=12", 60.0):
        for name in ("max-first", "max-second", "max-last", "split"):
            assert _failures(name, 12) == []


def test_generating_function_shape(criterion):
    with criterion("5 class generating function reduced and assembled", 1.0):
        # reduced, and its denominator: the gf suite, which criterion 2 runs
        assert gf_m2().numerator == (0, 1, -1, 2, -3, 1, -1)


def test_growth_constants_and_convergence(criterion):
    with criterion("6 growth constants to ten digits, error bands", 1.0):
        est = estimate()
        assert abs(est.rho - 0.6823278038280193) < 5e-11
        assert abs(est.amplitude - 1.5076770638769428) < 5e-11
        assert _failures("asymptotics", 100) == []  # the cubic and the error bands


def test_recurrence_discovery_and_rejection(criterion):
    with criterion("7 recurrence found from data, refused for Catalan", 5.0):
        terms = [class_count(n) for n in range(1, 21)]
        fit = fit_recurrence(terms, max_order=6, max_offset=7)
        assert fit is not None
        assert tuple(fit.coefficients) == (3, -3, 2, -2, 1)
        assert fit_recurrence([catalan(n) for n in range(1, 17)],
                              max_order=5, max_offset=5) is None


def test_degenerate_and_unconstrained_bounds(criterion):
    with criterion("8 tight bound collapses, loose bound is Catalan", 30.0):
        assert count(1, 1) == 1
        for n in range(2, 13):
            assert count(n, 1) == 2
        for n in range(1, 11):
            assert count(n, n - 1 if n > 1 else 1) == catalan(n)
            assert count(n, n + 3) == catalan(n)
        assert count(6, 12) == catalan(6) == 132


def test_counts_grow_with_the_bound(criterion):
    with criterion("9 counts rise with the bound, growth rate sandwiched", 120.0) as c:
        for n in range(1, 13):
            a2, a3 = count(n, 2), count(n, 3)
            assert a2 <= a3 <= catalan(n)
        alpha2 = estimate().alpha
        alpha3 = build_profile(3, 12).alpha_estimate
        c["note"] = f"observed rate at bound 3: {alpha3:.4f}, between {alpha2:.4f} and 4"
        assert alpha2 < 4.0  # the observation itself stays unasserted
