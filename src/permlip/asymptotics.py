"""Growth analysis for the jump-bound-2 class.

The class generating function has a simple pole inside the unit disk at
the unique positive root of 1 - x - x^3; the counts therefore grow like
amplitude * alpha^n with alpha the reciprocal root.  This module reads
alpha from the package's one root finder, ``genfunc.dominant_root`` of
``gf_m2()``, derives the constants from it to full float precision,
checks them against the literal cubic, and measures how fast the exact
counts close in on the leading term.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .genfunc import dominant_root, gf_m2, poly_eval
from .m2 import class_counts_by_recurrence

__all__ = [
    "AsymptoticEstimate",
    "ConvergenceRow",
    "amplitude",
    "convergence_csv",
    "convergence_report",
    "estimate",
    "log_asymptotic_value",
]

CSV_HEADER = "n,exact,asymptotic,rel_error"

_CUBIC = (1, -1, 0, -1)  # 1 - x - x^3, lowest coefficient first

# residual bound of the checks on rho and alpha against the literal cubic
_TOLERANCE = 1e-12


def amplitude(rho: float) -> float:
    """Leading-term amplitude (2 rho - 1) / ((1 - rho)^2 (1 + 3 rho^2))."""
    # Hand-written, not the general residue -P(rho) / (rho Q'(rho)) of gf_m2():
    # that differs in its last bits from the C that bench/refs.json pins.
    return (2.0 * rho - 1.0) / ((1.0 - rho) ** 2 * (1.0 + 3.0 * rho * rho))


class AsymptoticEstimate(namedtuple("AsymptoticEstimate", "rho alpha amplitude")):
    """The growth constants, cross-validated on construction.  A read-only
    namedtuple, so it is equal to its plain triple (rho, alpha, amplitude)."""

    __slots__ = ()

    def __new__(cls, rho: float, alpha: float, amplitude: float):
        if abs(poly_eval(_CUBIC, rho)) > _TOLERANCE:
            raise ValueError(f"rho={rho!r} is not a root of 1 - x - x^3")
        if abs(alpha * rho - 1.0) > _TOLERANCE:
            raise ValueError("alpha must be the reciprocal of rho")
        if abs(alpha**3 - alpha**2 - 1.0) > 10.0 * _TOLERANCE:
            raise ValueError("alpha must satisfy alpha^3 = alpha^2 + 1")
        return super().__new__(cls, rho, alpha, amplitude)


def estimate() -> AsymptoticEstimate:
    alpha = dominant_root(gf_m2())
    rho = 1.0 / alpha
    return AsymptoticEstimate(rho, alpha, amplitude(rho))


def log_asymptotic_value(n: int, est: AsymptoticEstimate) -> float:
    """Natural log of the leading term amplitude * alpha^n; finite for any n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.log(est.amplitude) + n * math.log(est.alpha)


class ConvergenceRow(namedtuple("ConvergenceRow", "n exact asymptotic_log rel_error")):
    """One length of the convergence table; a read-only namedtuple, so it is
    equal to its plain tuple."""

    __slots__ = ()

    def asymptotic_display(self) -> str:
        """Scientific notation derived from the log, so huge n still prints."""
        log10 = self.asymptotic_log / math.log(10.0)
        exponent = math.floor(log10)
        mantissa = 10.0 ** (log10 - exponent)
        return f"{mantissa:.9f}e{exponent:+03d}"


def convergence_report(n_max: int) -> list[ConvergenceRow]:
    """Exact count vs leading term for n = 1 .. n_max (n_max <= 10**4).

    Relative error is computed in log space, so the comparison stays
    finite even when both sides dwarf the float range.
    """
    if not 1 <= n_max <= 10**4:
        raise ValueError(f"n_max must lie in 1..10000, got {n_max}")
    est = estimate()
    rows = []
    for n, exact in zip(range(1, n_max + 1), class_counts_by_recurrence()):
        asym_log = log_asymptotic_value(n, est)
        rel = abs(math.expm1(asym_log - math.log(exact)))
        rows.append(ConvergenceRow(n, exact, asym_log, rel))
    return rows


def convergence_csv(n_max: int) -> str:
    lines = [CSV_HEADER]
    for row in convergence_report(n_max):
        lines.append(f"{row.n},{row.exact},{row.asymptotic_display()},{row.rel_error:.6e}")
    return "\n".join(lines) + "\n"
