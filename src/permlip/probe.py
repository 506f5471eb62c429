"""Empirical growth profiling across jump bounds.

For jump bounds beyond 2 no exact theory ships here; instead this module
reads the exact counts of lengths 1..N in one pass of the decomposition
engine (``split.head``), tries to guess a constant-coefficient linear
recurrence from them, and extracts a growth-rate estimate.  Two working
hypotheses guide what gets measured but are never hard-asserted: each
bound may admit such a recurrence, and the growth rates may climb
strictly from 1 toward the Catalan limit 4.  The only claim checked as a
hard fact is that counts never drop when the bound loosens.
"""

from __future__ import annotations

from collections import namedtuple

from .genfunc import NoDominantRoot, dominant_root, fit_recurrence
from .split import head

__all__ = [
    "GrowthProfile",
    "MonotonicityReport",
    "build_profile",
    "monotonicity_check",
    "profile_to_dict",
]

METHOD_FITTED = "fitted-root"
METHOD_RATIO = "ratio-extrapolation"


class GrowthProfile(namedtuple("GrowthProfile", (
        "m", "n_max", "terms", "fitted", "alpha_estimate", "estimate_method"))):
    """Everything measured about one jump bound.

    ``terms`` are the counts of lengths 1..n_max.  ``fitted`` is the
    rational generating function guessed from the terms
    (``fit_recurrence``), or None when none fits; its ``order``,
    ``coefficients`` and ``valid_from`` give the recurrence.
    ``alpha_estimate`` comes from the dominant root of its denominator when
    a fit was found and has one (method "fitted-root"), else from the last
    term ratio, a low-confidence fallback (method "ratio-extrapolation").
    A read-only namedtuple, so it is equal to its plain tuple of fields.
    """

    __slots__ = ()


def build_profile(m: int, n_max: int) -> GrowthProfile:
    """Count lengths 1..n_max at bound m and guess the growth.

    The counts come from one pass of ``split.head``, which refuses an
    n_max above the brute-force ceiling (``PERMLIP_CEILING``, else 14)
    with ``CeilingExceeded``, as the search engines do.
    """
    terms = tuple(head(n_max, m))
    fitted = fit_recurrence(terms)
    alpha = None
    method = None
    if fitted is not None:
        try:
            alpha = dominant_root(fitted)
            method = METHOD_FITTED
        except NoDominantRoot:
            pass
    if alpha is None and n_max >= 2:
        alpha = terms[-1] / terms[-2]
        method = METHOD_RATIO
    return GrowthProfile(m, n_max, terms, fitted, alpha, method)


def profile_to_dict(profile: GrowthProfile) -> dict:
    """JSON-ready view; counts as decimal strings so nothing is rounded."""
    fitted = None
    if profile.fitted is not None:
        fitted = {
            "order": profile.fitted.order,
            "coefficients": list(profile.fitted.coefficients),
            "valid_from": profile.fitted.valid_from,
        }
    return {
        "m": profile.m,
        "n_max": profile.n_max,
        "terms": [str(t) for t in profile.terms],
        "fitted": fitted,
        "alpha_estimate": profile.alpha_estimate,
        "method": profile.estimate_method,
    }


class MonotonicityReport(namedtuple("MonotonicityReport", (
        "m_values", "n_max", "termwise_ok", "termwise_failures", "alphas",
        "alphas_strictly_increasing", "alphas_below_catalan_limit"))):
    """Termwise count comparison (hard fact) plus growth-rate observations
    (reported, never asserted).  ``termwise_failures`` holds (lower m,
    higher m, n, lower count, higher count) tuples.  A read-only
    namedtuple, so it is equal to its plain tuple of fields."""

    __slots__ = ()


def monotonicity_check(profiles: list[GrowthProfile]) -> MonotonicityReport:
    """Compare profiles with strictly increasing bounds and a shared n_max.

    Counts must never drop termwise as the bound loosens; any violation is
    recorded.  Growth-rate ordering and the ceiling of 4 are conjecture
    territory and only reported.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    n_max = profiles[0].n_max
    ms = [p.m for p in profiles]
    if any(p.n_max != n_max for p in profiles):
        raise ValueError("profiles must share n_max")
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError(f"bounds must be strictly increasing, got {ms}")
    failures = []
    for lo, hi in zip(profiles, profiles[1:]):
        for n in range(1, n_max + 1):
            if lo.terms[n - 1] > hi.terms[n - 1]:
                failures.append((lo.m, hi.m, n, lo.terms[n - 1], hi.terms[n - 1]))
    alphas = tuple(p.alpha_estimate for p in profiles)
    increasing = None
    below = None
    if all(a is not None for a in alphas):
        increasing = all(b > a for a, b in zip(alphas, alphas[1:]))
        below = all(a < 4.0 for a in alphas)
    return MonotonicityReport(
        tuple(ms), n_max, not failures, tuple(failures), alphas, increasing, below
    )
