"""Growth profiling across jump bounds: fits, fallbacks, and the
termwise-monotonicity fact check."""

import json

import pytest

from permlip.bruteforce import CeilingExceeded, catalan
from permlip.probe import (
    METHOD_FITTED,
    METHOD_RATIO,
    GrowthProfile,
    build_profile,
    monotonicity_check,
    profile_to_dict,
)


def test_bound_one_profile_is_exact():
    p = build_profile(1, 10)
    assert p.terms == (1,) + (2,) * 9
    assert tuple(p.fitted.coefficients) == (1,)
    assert p.fitted.valid_from == 3
    assert p.alpha_estimate == 1.0
    assert p.estimate_method == METHOD_FITTED


def test_bound_two_profile_recovers_theory():
    p = build_profile(2, 14)
    assert p.terms[:6] == (1, 2, 5, 8, 12, 18)
    assert p.fitted is not None
    assert tuple(p.fitted.coefficients) == (3, -3, 2, -2, 1)
    assert p.fitted.valid_from == 7
    assert p.estimate_method == METHOD_FITTED
    assert p.alpha_estimate == pytest.approx(1.4655712318767682, abs=1e-12)


def test_bound_two_short_run_falls_back_to_ratio():
    # ten terms are not enough to pin the order-5 recurrence
    p = build_profile(2, 10)
    assert p.fitted is None
    assert p.estimate_method == METHOD_RATIO
    assert p.alpha_estimate == pytest.approx(76 / 53)


def test_fit_without_a_dominant_root_falls_back_to_ratio(monkeypatch):
    # 1 / (1 - x^2) has roots 1 and -1 of equal modulus
    import permlip.probe as probe
    from permlip.genfunc import RationalGF
    monkeypatch.setattr(probe, "fit_recurrence", lambda terms: RationalGF((1,), (1, 0, -1)))
    p = build_profile(2, 14)
    assert p.fitted == ((1,), (1, 0, -1))
    assert p.estimate_method == METHOD_RATIO
    assert p.alpha_estimate == p.terms[-1] / p.terms[-2]


def test_bound_three_profile():
    p = build_profile(3, 12)
    assert p.terms == (1, 2, 5, 14, 28, 55, 108, 214, 412, 787, 1497, 2841)
    assert p.fitted is None
    assert p.estimate_method == METHOD_RATIO
    assert p.alpha_estimate == pytest.approx(2841 / 1497)
    # sits strictly between the bound-2 rate and the Catalan limit
    assert 1.4656 < p.alpha_estimate < 4.0


def test_loose_bound_profile_is_catalan():
    p = build_profile(5, 6)
    assert p.terms == tuple(catalan(n) for n in range(1, 7))
    assert p.fitted is None
    assert p.estimate_method == METHOD_RATIO
    assert p.alpha_estimate == pytest.approx(132 / 42)


def test_tiny_runs():
    p = build_profile(2, 3)
    assert p.fitted is None and p.estimate_method == METHOD_RATIO
    assert p.alpha_estimate == pytest.approx(2.5)
    p = build_profile(2, 1)
    assert p.alpha_estimate is None and p.estimate_method is None


def test_ceiling_propagates(monkeypatch):
    with pytest.raises(CeilingExceeded):
        build_profile(2, 15)
    monkeypatch.setenv("PERMLIP_CEILING", "15")
    p = build_profile(2, 15)
    assert p.terms[14] == 478


def test_fit_is_bounded_only_by_its_spare_equations(monkeypatch):
    # 30 terms pin the order-13 GF of bound 3, which starts at index 14
    monkeypatch.setenv("PERMLIP_CEILING", "30")
    p = build_profile(3, 30)
    assert p.fitted is not None
    assert p.fitted.order == 13 and p.fitted.valid_from == 14
    assert p.estimate_method == METHOD_FITTED
    assert p.alpha_estimate == pytest.approx(1.8265157722360474, abs=1e-12)


def test_profile_reads_the_engine_once(monkeypatch):
    import permlip.split as split
    calls = []
    real = split.counts
    monkeypatch.setattr(split, "counts", lambda m: calls.append(m) or real(m))
    assert build_profile(3, 14).terms[-1] == 10088
    assert calls == [3]


def test_profile_dict_round_trips_through_json():
    d = profile_to_dict(build_profile(2, 14))
    again = json.loads(json.dumps(d))
    assert again["m"] == 2 and again["n_max"] == 14
    assert again["terms"][:3] == ["1", "2", "5"]
    assert all(isinstance(t, str) for t in again["terms"])
    assert again["fitted"]["order"] == 5
    assert again["fitted"]["coefficients"] == [3, -3, 2, -2, 1]
    assert again["fitted"]["valid_from"] == 7
    assert again["method"] == METHOD_FITTED

    d = profile_to_dict(build_profile(3, 8))
    assert d["fitted"] is None
    assert d["method"] == METHOD_RATIO


def test_monotonicity_trio():
    rep = monotonicity_check([build_profile(m, 10) for m in (1, 2, 3)])
    assert rep.m_values == (1, 2, 3)
    assert rep.n_max == 10
    assert rep.termwise_ok is True
    assert rep.termwise_failures == ()
    assert rep.alphas_strictly_increasing is True
    assert rep.alphas_below_catalan_limit is True
    assert rep.alphas[0] == 1.0
    assert rep.alphas[1] < rep.alphas[2] < 4.0


def test_monotonicity_validation():
    with pytest.raises(ValueError):
        monotonicity_check([])
    a, b = build_profile(1, 6), build_profile(2, 7)
    with pytest.raises(ValueError):
        monotonicity_check([a, b])  # mismatched n_max
    c = build_profile(2, 6)
    with pytest.raises(ValueError):
        monotonicity_check([c, a])  # bounds not increasing
    with pytest.raises(ValueError):
        monotonicity_check([a, a])  # not strictly


def test_monotonicity_flags_violations():
    # hand-built profiles with a deliberate dip at n = 3
    lo = GrowthProfile(2, 4, (1, 2, 5, 8), None, None, None)
    hi = GrowthProfile(3, 4, (1, 2, 4, 14), None, None, None)
    rep = monotonicity_check([lo, hi])
    assert rep.termwise_ok is False
    assert rep.termwise_failures == ((2, 3, 3, 5, 4),)
    # missing alphas leave the soft observations undetermined
    assert rep.alphas_strictly_increasing is None
    assert rep.alphas_below_catalan_limit is None


def test_report_dict_round_trips_through_json():
    rep = monotonicity_check([build_profile(m, 8) for m in (1, 2)])
    again = json.loads(json.dumps(rep._asdict()))
    assert again["m_values"] == [1, 2]
    assert again["termwise_ok"] is True
    assert again["termwise_failures"] == []
    assert len(again["alphas"]) == 2


def test_report_dict_keeps_field_order():
    rep = monotonicity_check([build_profile(m, 8) for m in (1, 2)])
    assert list(rep._asdict()) == [
        "m_values", "n_max", "termwise_ok", "termwise_failures", "alphas",
        "alphas_strictly_increasing", "alphas_below_catalan_limit"]
    # a namedtuple: equal to its plain tuple of fields
    assert rep == tuple(rep._asdict().values())
    with pytest.raises(AttributeError):
        rep.termwise_ok = False
