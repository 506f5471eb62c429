"""The falsification suites themselves: all green at desk scale, and the
failure channel actually reports when fed a broken claim."""

import pytest

import permlip.checks as checks
from permlip import asymptotics, bruteforce, core, genfunc, m2, transfer
from permlip.checks import SUITES, run_suite
from permlip.cli import main
from permlip.genfunc import RationalGF


def _failures(results):
    return [r for r in results if not r[1]]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    results = run_suite(name, 10, None)
    assert results, "suite produced no checks"
    assert _failures(results) == []


@pytest.mark.parametrize("name", sorted(SUITES))
def test_smallest_n_is_where_checks_start(name):
    smallest = checks.SMALLEST_N.get(name, 1)
    assert run_suite(name, smallest)
    with pytest.raises(ValueError, match=f"N={smallest}"):
        run_suite(name, smallest - 1)
    if smallest > 1:  # one lower, the suite itself would report nothing
        assert SUITES[name](smallest - 1) == []


def test_result_shape():
    for name, ok, detail in run_suite("split", 8):
        assert isinstance(name, str) and name
        assert ok is True
        assert detail == ""


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("no-such-suite", 8)


def test_max_position_respects_requested_bound():
    only_three = run_suite("max-position", 6, 3)
    assert all("m=3" in name for name, _, _ in only_three)
    swept = run_suite("max-position", 6, None)
    assert {name.split("m=")[1] for name, _, _ in swept} == {"1", "2", "3", "4"}


@pytest.mark.parametrize("name", sorted(set(SUITES) - set(checks.BOUNDED)))
def test_m2_suites_refuse_other_bounds(name):
    for m in (1, 3, 7):
        with pytest.raises(ValueError, match="m = 2 only"):
            run_suite(name, 6, m)
    assert run_suite(name, 4, 2) == run_suite(name, 4, None)


def test_failure_channel_reports(monkeypatch):
    # sabotage the closed-form count; the suite must notice, not crash
    monkeypatch.setattr(m2, "max_last_count", lambda n: n)
    results = run_suite("max-last", 8)
    bad = _failures(results)
    assert bad, "sabotaged claim went unreported"
    assert all(detail for _, _, detail in bad)
    assert any(name.startswith("count") for name, _, _ in bad)


def test_failure_detail_is_specific(monkeypatch):
    monkeypatch.setattr(m2, "max_first_count", lambda n: 99)
    bad = _failures(run_suite("max-first", 6))
    assert any("99" in detail for _, _, detail in bad)


def test_char_root_check_compares_the_max_first_gf(monkeypatch):
    # a max-first GF whose dominant root is 2, not alpha
    monkeypatch.setattr(genfunc, "gf_max_first", lambda: RationalGF((0, 1), (1, -2)))
    bad = _failures(run_suite("asymptotics", 10))
    assert [name for name, _, _ in bad] == ["char root"]
    detail = bad[0][2]
    assert "2.0" in detail and "1.4655712318767682" in detail


def test_asymptotics_suite_reports_a_wrong_root(monkeypatch, capsys):
    # estimate() would refuse this root; the suite must report it as FAIL lines
    monkeypatch.setattr(asymptotics, "dominant_root", lambda gf: 1.47)
    assert main(["verify", "--suite", "asymptotics", "-N", "10"]) == 1
    out, err = capsys.readouterr()
    assert [line.split(" (")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL asymptotics: residual", "FAIL asymptotics: reciprocal", "FAIL asymptotics: cubic",
        "FAIL asymptotics: char root"]
    assert err.startswith("first failure: residual: rho=") and "error:" not in err


@pytest.mark.parametrize("route, name", [("class_count", "series vs closed"),
                                         ("class_count_by_recurrence", "series vs recurrence")])
def test_gf_suite_checks_each_nth_term_route(monkeypatch, route, name):
    # one term off at a single n <= N must be seen
    real = getattr(m2, route)
    monkeypatch.setattr(m2, route, lambda n: real(n) + (n == 7))
    bad = _failures(run_suite("gf", 10))
    assert [failed for failed, _, _ in bad] == [name]


def test_transfer_suite_reports_disagreement(monkeypatch):
    monkeypatch.setattr(transfer, "count", lambda n, m: 0)
    bad = _failures(run_suite("transfer", 5, 3))
    assert [name for name, _, _ in bad] == [f"count n={n} m=3" for n in range(1, 6)]
    assert all("oracle" in detail for _, _, detail in bad)


def test_split_suite_walks_the_oracle_once_per_length(monkeypatch):
    walked = []
    real = bruteforce.count
    monkeypatch.setattr(bruteforce, "count",
                        lambda n, m, *visit: walked.append(n) or real(n, m, *visit))
    monkeypatch.setattr(bruteforce, "max_position_census", lambda *args: pytest.fail("second walk"))
    assert _failures(run_suite("split", 10)) == []
    assert walked == list(range(3, 11))


def test_split_suite_reports_a_broken_separation(monkeypatch):
    # swap the blocks around the maximum: the left one no longer dominates
    real = core.split_at_max
    monkeypatch.setattr(core, "split_at_max",
                        lambda w: real(w)._replace(left=real(w).right, right=real(w).left))
    bad = _failures(run_suite("split", 6))
    assert bad == [(f"separation n={n}", False, "left does not dominate right")
                   for n in range(3, 7)]
