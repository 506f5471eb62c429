"""Growth constants against a high-precision oracle, plus convergence shape."""

import math

import mpmath as mp
import pytest

from permlip.asymptotics import (
    CSV_HEADER,
    AsymptoticEstimate,
    amplitude,
    convergence_csv,
    convergence_report,
    estimate,
    log_asymptotic_value,
)
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


def test_constants_literal_values():
    est = estimate()
    assert est.rho == 0.6823278038280193
    assert est.alpha == 1.4655712318767682
    assert est.amplitude == 1.5076770638769428


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


def test_root_identities():
    est = estimate()
    assert abs(1.0 - est.rho - est.rho**3) < 1e-15
    assert abs(est.alpha**3 - est.alpha**2 - 1.0) < 1e-12
    assert abs(est.alpha * est.rho - 1.0) < 1e-15
    assert 0.0 < est.rho < 1.0 < est.alpha < 2.0


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
    with pytest.raises(AttributeError):
        row.exact = 6


def test_amplitude_closed_form():
    rho = estimate().rho
    c = amplitude(rho)
    assert c == (2 * rho - 1) / ((1 - rho) ** 2 * (1 + 3 * rho * rho))


def test_leading_term_small_n():
    est = estimate()
    value = math.exp(log_asymptotic_value(6, est))
    assert value == pytest.approx(14.9399766, abs=1e-6)
    # still 17% off the exact 18 this early
    assert abs(value / 18 - 1) == pytest.approx(0.17, abs=0.01)
    with pytest.raises(ValueError):
        log_asymptotic_value(0, est)


def test_leading_term_overflow_boundary():
    est = estimate()
    v = math.exp(log_asymptotic_value(1800, est))
    assert math.isfinite(v) and v > 1e290
    with pytest.raises(OverflowError):
        math.exp(log_asymptotic_value(1900, est))
    # the log form keeps going
    assert log_asymptotic_value(1900, est) == pytest.approx(
        math.log(est.amplitude) + 1900 * math.log(est.alpha)
    )
    assert math.isfinite(log_asymptotic_value(10**6, est))


def test_convergence_rows():
    rows = convergence_report(100)
    assert [r.n for r in rows] == list(range(1, 101))
    assert rows[5].exact == 18
    assert rows[99].exact == 60117578549718044
    assert rows[29].rel_error == pytest.approx(1.8741e-4, rel=1e-3)
    assert rows[59].rel_error == pytest.approx(4.1414e-9, rel=1e-3)
    assert rows[99].rel_error < 1e-12


def test_convergence_error_decreases():
    rows = convergence_report(100)
    noise_floor = 1e-11
    for prev, cur in zip(rows[19:], rows[20:]):
        if prev.rel_error > noise_floor:
            assert cur.rel_error < prev.rel_error, f"error rose at n={cur.n}"


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


def test_convergence_rows_equal_the_per_row_logs():
    """The logs taken once reproduce log_asymptotic_value and the relative
    error bit for bit at every n."""
    est = estimate()
    for row in convergence_report(10**4):
        assert row.asymptotic_log == log_asymptotic_value(row.n, est)
        assert row.rel_error == abs(math.expm1(row.asymptotic_log - math.log(row.exact)))


def test_convergence_csv_layout():
    text = convergence_csv(5)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    assert text.endswith("\n")
    n, exact, asym, rel = lines[3].split(",")
    assert (n, exact) == ("3", "5")
    assert float(asym) == pytest.approx(math.exp(convergence_report(3)[2].asymptotic_log))
    float(rel)  # parses
