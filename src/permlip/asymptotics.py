"""Growth analysis for the jump-bound-2 class.

The class generating function has a simple pole inside the unit disk at
the unique positive root of 1 - x - x^3; the counts therefore grow like
amplitude * alpha^n with alpha the reciprocal root.  This module reads
alpha from the package's one root finder, ``genfunc.dominant_root`` of
``gf_m2()``, derives the constants from it to full float precision,
checks them against the literal cubic, and measures how fast the series
of ``gf_m2()``, the exact counts, closes in on the leading term.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import islice, repeat
from operator import add, mul, sub

from .genfunc import dominant_root, gf_m2, poly_eval, series_stream

__all__ = [
    "AsymptoticEstimate",
    "ConvergenceRow",
    "amplitude",
    "convergence_csv",
    "convergence_report",
    "estimate",
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
    # the leading term amplitude * alpha^n as its log, so it stays finite at any n
    log_c, log_alpha = math.log(est.amplitude), math.log(est.alpha)
    ns = range(1, n_max + 1)
    exact = list(islice(series_stream(gf_m2()), 1, n_max + 1))
    asym = list(map(add, repeat(log_c), map(mul, ns, repeat(log_alpha))))
    rel = map(abs, map(math.expm1, map(sub, asym, map(math.log, exact))))
    # tuple.__new__ is what the namedtuple's _make calls: no Python frame per row
    return list(map(tuple.__new__, repeat(ConvergenceRow), zip(ns, exact, asym, rel)))


def convergence_csv(n_max: int) -> str:
    lines = [CSV_HEADER]
    for row in convergence_report(n_max):
        lines.append(f"{row.n},{row.exact},{row.asymptotic_display()},{row.rel_error:.6e}")
    return "\n".join(lines) + "\n"
