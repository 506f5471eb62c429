"""The falsification suites themselves: each refuses what it cannot check,
and the failure channel actually reports when fed a broken claim."""

import pytest

import permlip.checks as checks
from permlip import asymptotics, bruteforce, core, genfunc, m2, split, transfer
from permlip.checks import SUITES, run_suite
from permlip.cli import main
from permlip.genfunc import RationalGF


def _failures(results):
    return [r for r in results if not r[1]]


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


def test_max_position_sweep_is_the_single_bounds_in_turn():
    assert run_suite("max-position", 8) == [r for m in (1, 2, 3, 4)
                                            for r in run_suite("max-position", 8, m)]


def test_max_position_sweep_walks_the_oracle_once_per_length(monkeypatch):
    walked = []
    real = bruteforce.count
    monkeypatch.setattr(bruteforce, "count",
                        lambda n, m, *visit: walked.append((n, m)) or real(n, m, *visit))
    assert _failures(run_suite("max-position", 9)) == []
    assert walked == [(n, 4) for n in range(1, 10)]


@pytest.mark.parametrize("name, m", [("max-position", None), ("max-position", 4),
                                     ("max-first", None), ("max-second", None),
                                     ("max-last", None), ("split", None)])
def test_oracle_suites_refuse_before_the_first_walk(monkeypatch, name, m):
    monkeypatch.delenv("PERMLIP_CEILING", raising=False)
    monkeypatch.setattr(bruteforce, "count", lambda *args: pytest.fail("walked"))
    with pytest.raises(bruteforce.CeilingExceeded, match="n=15 exceeds brute-force ceiling 14"):
        run_suite(name, 15, m)


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


def _swap_last_two(word):
    return word[:-2] + word[:-3:-1] if len(word) > 2 else word


def _plus_word(head):
    """An oracle that also lets through the word head(n) + (the rest, descending), n >= 5."""
    return lambda real: lambda n, m: real(n, m) + [
        head(n) + tuple(k for k in range(n, 0, -1) if k not in head(n))] * (n >= 5)


# (module, attr, sabotage, suite, check): sabotage(real) replaces module.attr,
# and the suite's check of that name must then report FAIL
SABOTAGES = [
    (m2, "max_last_perms", lambda real: lambda n: real(n)[:-1], "max-last", "set equality n=2"),
    (m2, "max_first_perms", lambda real: lambda n: [w for w in real(n) if w != m2.zigzag(n)] if n > 3
     else real(n), "max-first", "set equality n=4"),
    (m2, "zigzag", lambda real: lambda n: _swap_last_two(real(n)), "max-first", "zigzag unique n=5"),
    # every word onto one family member, so the image is too small
    (m2, "to_max_first", lambda real: lambda w: m2.max_first_perms(len(w) - 2)[0], "max-second",
     "image n=5"),
    (m2, "to_max_second", lambda real: lambda w, n: real(_swap_last_two(w), n), "max-second",
     "inverse n=5"),
    # maps whose output the other map refuses: a failed round trip, not a crash
    (m2, "to_max_second", lambda real: lambda w, n: (n, n - 1) + tuple(w), "max-second",
     "inverse n=4"),
    (m2, "to_max_first", lambda real: lambda w: real(w)[::-1], "max-second", "inverse n=5"),
    (m2, "max_second_count", lambda real: lambda n: real(n) + 1, "split", "closed sizes n=3"),
    (bruteforce, "members", _plus_word(lambda n: (n, n - 2, n - 3)), "max-first",
     "blocked signature n=5"),
    (bruteforce, "members", _plus_word(lambda n: (n - 1, n - 2, n)), "split", "totals n=5"),
    # a max-second word with the wrong head, which the real to_max_first refuses
    (bruteforce, "members", _plus_word(lambda n: (n - 2, n, n - 1)), "max-second", "heads n=5"),
    # the maximum moved from the last position to one past it
    (bruteforce, "jump_position_census", lambda real: lambda n, m: {
        (j, k + (k == n)): v for (j, k), v in real(n, m).items()}, "max-position",
     "support n=1 m=2"),
    (bruteforce, "jump_position_census", lambda real: lambda n, m: {
        (j, k): v for (j, k), v in real(n, m).items() if k < n}, "max-position",
     "realized n=2 m=2"),
    (split, "head", lambda real: lambda n_max, m: [c + (n == 4) for n, c in
                                                   enumerate(real(n_max, m), 1)],
     "transfer", "count n=4 m=3"),
    (genfunc, "gf_add", lambda real: lambda a, b: a, "gf", "assembly"),
]


@pytest.mark.parametrize("module, attr, sabotage, suite, check", SABOTAGES,
                         ids=[f"{attr}-{check}" for _, attr, _, _, check in SABOTAGES])
def test_suites_report_a_broken_claim(monkeypatch, module, attr, sabotage, suite, check):
    monkeypatch.setattr(module, attr, sabotage(getattr(module, attr)))
    assert check in [name for name, _, _ in _failures(run_suite(suite, 6))]


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
