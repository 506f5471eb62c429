"""Growth constants against a high-precision oracle, plus convergence shape."""

import math

import mpmath as mp
import pytest

from permlip.asymptotics import (AsymptoticEstimate, ConvergenceRow, amplitude, convergence_report,
                                 estimate)
from permlip import genfunc
from permlip.genfunc import dominant_root, gf_m2


def _oracle_constants(dps=50):
    """Independent 50-digit values for the root, its reciprocal, and the
    amplitude, the latter via the residue of the class generating function
    at its pole rather than the closed form under test."""
    mp.mp.dps = dps
    rho = mp.findroot(lambda x: 1 - x - x**3, mp.mpf("0.68"))
    gf = gf_m2()
    p = lambda x: sum(c * x**i for i, c in enumerate(gf.numerator))
    dq = lambda x: sum(i * c * x ** (i - 1) for i, c in enumerate(gf.denominator) if i)
    return rho, 1 / rho, -p(rho) / (rho * dq(rho))


def test_constants_match_oracle():
    rho_hp, alpha_hp, amp_hp = _oracle_constants()
    est = estimate()
    assert abs(est.rho - float(rho_hp)) < 1e-15
    assert abs(est.alpha - float(alpha_hp)) < 1e-15
    assert abs(est.amplitude - float(amp_hp)) < 1e-14


def test_estimate_reads_alpha_from_the_hub(monkeypatch):
    calls = []
    real = genfunc._roots

    def spy(poly):
        calls.append(tuple(poly))
        return real(poly)

    monkeypatch.setattr(genfunc, "_roots", spy)
    est = estimate()
    # the first call is on x^5 - 3x^4 + 3x^3 - 2x^2 + 2x - 1 = (x - 1)^2 (x^3 - x^2 - 1),
    # gf_m2's characteristic polynomial, lowest coefficient first
    assert calls[0] == (-1, 2, -2, 3, -3, 1)
    alpha = dominant_root(gf_m2())
    assert est == (1.0 / alpha, alpha, amplitude(1.0 / alpha))


def test_estimate_cross_validates_on_construction():
    good = estimate()
    with pytest.raises(ValueError):
        AsymptoticEstimate(0.5, 2.0, good.amplitude)
    with pytest.raises(ValueError):
        AsymptoticEstimate(good.rho, 1.5, good.amplitude)
    with pytest.raises(ValueError):
        AsymptoticEstimate(0.5, 2.0, 1.0)
    # consistent values pass
    AsymptoticEstimate(good.rho, good.alpha, good.amplitude)


def test_estimate_is_a_read_only_triple():
    est = estimate()
    # a namedtuple: equal to its plain triple
    assert est == (est.rho, est.alpha, est.amplitude)
    with pytest.raises(AttributeError):
        est.rho = 0.5
    row = convergence_report(3)[-1]
    assert row == (3, 5, row.asymptotic_log, row.rel_error)
    assert type(row) is ConvergenceRow
    with pytest.raises(AttributeError):
        row.exact = 6


def test_convergence_display_matches_log():
    for row in convergence_report(40)[9:]:
        shown = float(row.asymptotic_display().replace("e", "E"))
        assert shown == pytest.approx(math.exp(row.asymptotic_log), rel=1e-8)


def test_convergence_bounds_checked():
    with pytest.raises(ValueError):
        convergence_report(0)
    with pytest.raises(ValueError):
        convergence_report(10**4 + 1)
    # top of the range stays finite thanks to log-space errors
    rows = convergence_report(10**4)
    assert rows[-1].n == 10**4
    assert math.isfinite(rows[-1].asymptotic_log)
    assert rows[-1].rel_error < 1e-9
