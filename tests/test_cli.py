"""Command line behavior: engine agreement, formats, exit codes."""

import gc
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import permlip
from permlip import bruteforce
from permlip.bruteforce import catalan
from permlip.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------- count

def test_engines_agree_on_small_grid(capsys):
    """Every engine that claims a route must print the same digits as the
    brute-force search."""
    for n in range(1, 13):
        for m in range(1, 5):
            rc, brute, _ = run_cli(capsys, "count", "-n", str(n), "-m", str(m),
                                   "--engine", "brute")
            assert rc == 0
            for engine in ("split", "transfer", "closed", "recurrence", "gf"):
                rc, out, err = run_cli(capsys, "count", "-n", str(n), "-m", str(m),
                                       "--engine", engine)
                if rc == 2:
                    assert "no exact route" in err
                    continue
                assert rc == 0
                assert out == brute, f"{engine} disagrees at n={n} m={m}"


def test_default_count_never_walks(capsys, monkeypatch):
    """With no --engine, count runs the decomposition engine, never the
    oracle's search, and still refuses what the search refuses."""
    def no_walk(*args):
        raise AssertionError("the default engine ran the brute-force walk")
    monkeypatch.setattr(bruteforce, "prefix_extension_ok", no_walk)
    monkeypatch.delenv("PERMLIP_CEILING", raising=False)
    assert run_cli(capsys, "count", "-n", "12", "-m", "3") == (0, "2841\n", "")
    assert run_cli(capsys, "count", "-n", "15", "-m", "2") == (
        3, "", "error: n=15 exceeds brute-force ceiling 14\n")


def test_brute_engine_looks_up_the_walk_at_call_time(capsys, monkeypatch):
    calls = []
    real = bruteforce.count
    monkeypatch.setattr(bruteforce, "count", lambda n, m: calls.append((n, m)) or real(n, m))
    assert run_cli(capsys, "count", "-n", "5", "-m", "2", "--engine", "brute") == (0, "12\n", "")
    assert calls == [(5, 2)]


def test_catalan_routes_without_brute(capsys):
    rc, out, _ = run_cli(capsys, "count", "-n", "30", "-m", "29", "--engine", "closed")
    assert rc == 0 and int(out) == catalan(30)
    rc, out, _ = run_cli(capsys, "count", "-n", "30", "-m", "40", "--engine", "recurrence")
    assert rc == 0 and int(out) == catalan(30)


def test_catalan_recurrence_route_is_linear(capsys):
    start = time.perf_counter()
    rc, out, _ = run_cli(capsys, "count", "-n", "6000", "-m", "5999", "--engine", "recurrence")
    assert time.perf_counter() - start < 10  # the convolution route took minutes here
    assert rc == 0 and int(out) == catalan(6000)


def test_bound_1_routes_at_large_n(capsys):
    for engine in ("closed", "recurrence", "gf"):
        rc, out, _ = run_cli(capsys, "count", "-n", "300000", "-m", "1", "--engine", engine)
        assert rc == 0 and out == "2\n"


def test_bound_1_recurrence_route_does_not_step_through_n(capsys):
    start = time.perf_counter()
    rc, out, _ = run_cli(capsys, "count", "-n", "100000000", "-m", "1", "--engine", "recurrence")
    assert time.perf_counter() - start < 2  # reading n terms off the series took ~50 s
    assert rc == 0 and out == "2\n"


def test_no_route_is_usage_error(capsys):
    # gf has no Catalan route: the Catalan generating function is not rational
    for argv in (["-n", "10", "-m", "3", "--engine", "closed"],
                 ["-n", "10", "-m", "3", "--engine", "gf"],
                 ["-n", "5", "-m", "10", "--engine", "gf"]):
        rc, out, err = run_cli(capsys, "count", *argv)
        assert rc == 2 and out == "" and "no exact route" in err
        # the hint names the default engine, not the exponential oracle
        assert "try --engine split" in err and "brute" not in err
        rc, out, _ = run_cli(capsys, "count", *argv[:4])  # and it answers
        assert rc == 0 and out == f"{bruteforce.count(int(argv[1]), int(argv[3]))}\n"


def test_ceiling_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PERMLIP_CEILING", "15")
    rc, out, _ = run_cli(capsys, "count", "-n", "15", "-m", "2")
    assert rc == 0 and out.strip() == "478"


def test_bad_ceiling_env_is_usage_error(capsys, monkeypatch):
    for junk in ("junk", "-3"):
        monkeypatch.setenv("PERMLIP_CEILING", junk)
        rc, out, err = run_cli(capsys, "count", "-n", "3", "-m", "2")
        assert rc == 2 and out == ""
        assert err.startswith("error: PERMLIP_CEILING") and err.count("\n") == 1


def test_bad_arguments_exit_two(capsys):
    for argv, message in (("count -n 0 -m 2", "n must be a positive integer, got 0"),
                          ("count -n 5 -m -1", "m must be"),
                          ("count -n abc -m 2", "n must be a positive integer, got abc"),
                          ("probe -m 2 2.5 -N 3", "m must be"),
                          ("seq -m 2 -N 0", "N must be"),
                          ("seq -m 2 -N 0x10", "N must be"),
                          ("count -n 5 -m 2 --engine psychic", "invalid choice"),
                          ("nonsense", "invalid choice")):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "convert" not in err, err


# ---------------------------------------------------------------- seq

def test_seq_catalan_regime(capsys):
    # ends 742900; the second stays exact past the search ceiling
    for m, n_max in ((12, 13), (30, 20)):
        rc, out, _ = run_cli(capsys, "seq", "-m", str(m), "-N", str(n_max))
        assert rc == 0
        assert out == "".join(f"{catalan(n)}\n" for n in range(1, n_max + 1))


def test_seq_streamed_output_matches_whole_formats(capsys):
    """Each format, written term by term, equals the whole-list rendering."""
    from permlip.m2 import class_count
    for m, terms in ((1, [1] + [2] * 299), (2, [class_count(n) for n in range(1, 301)]),
                     (3, [1, 2, 5, 14, 28, 55])):
        n_max = str(len(terms))
        expected = {
            "plain": "".join(f"{t}\n" for t in terms),
            "csv": "".join(f"{n},{t}\n" for n, t in enumerate(terms, start=1)),
            "bfile": "".join(f"{n} {t}\n" for n, t in enumerate(terms, start=1)),
            "json": json.dumps({"m": m, "n_max": len(terms),
                                "terms": [str(t) for t in terms]}) + "\n",
        }
        for fmt, text in expected.items():
            rc, out, _ = run_cli(capsys, "seq", "-m", str(m), "-N", n_max, "--format", fmt)
            assert rc == 0 and out == text, (m, fmt)


# ---------------------------------------------------------------- verify

def test_verify_suite_passes(capsys):
    rc, out, err = run_cli(capsys, "verify", "--suite", "gf", "-N", "12")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS gf: ") for line in lines)


def test_verify_bound_on_m2_suite_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "verify", "--suite", "split", "-N", "6", "-m", "7")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "max-position" in err and "transfer" in err
    for suite in ("max-position", "transfer"):
        rc, out, _ = run_cli(capsys, "verify", "--suite", suite, "-N", "6", "-m", "3")
        assert rc == 0 and out and "FAIL" not in out


@pytest.mark.parametrize("suite, n_max, smallest",
                         [("max-last", 1, 2), ("max-second", 2, 3), ("split", 2, 3)])
def test_verify_with_nothing_to_check_is_usage_error(capsys, suite, n_max, smallest):
    rc, out, err = run_cli(capsys, "verify", "--suite", suite, "-N", str(n_max))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"N={smallest}" in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    import permlip.checks
    monkeypatch.setattr(permlip.checks, "run_suite",
                        lambda *a: [("fake claim", False, "broke on purpose")])
    rc, out, err = run_cli(capsys, "verify", "--suite", "gf")
    assert rc == 1
    assert "FAIL gf: fake claim (broke on purpose)" in out
    assert "first failure" in err


def test_parser_suite_names_match_the_suites():
    """The parser's --suite choices and -m help are spelled out in cli, so
    building it loads no suite; they must name exactly the suites there are."""
    import permlip.checks as checks
    import permlip.cli as cli
    assert cli.SUITES == tuple(sorted(checks.SUITES))
    assert cli.BOUNDED == checks.BOUNDED


# ---------------------------------------------------------------- asym / probe

def test_probe_several_bounds(capsys):
    singles = [run_cli(capsys, "probe", "-m", str(m), "-N", "10")[1] for m in (1, 2, 3)]
    rc, out, _ = run_cli(capsys, "probe", "-m", "1", "2", "3", "-N", "10")
    assert rc == 0
    lines = out.splitlines(keepends=True)
    assert lines[:3] == singles
    report = json.loads(lines[3])
    assert len(lines) == 4
    assert report["m_values"] == [1, 2, 3] and report["n_max"] == 10
    assert report["termwise_ok"] is True and report["termwise_failures"] == []
    assert report["alphas"] == [json.loads(line)["alpha_estimate"] for line in singles]


def test_probe_bounds_must_increase(capsys):
    rc, out, err = run_cli(capsys, "probe", "-m", "3", "2", "-N", "6")
    assert rc == 2 and out == "" and "strictly increasing" in err


def test_probe_exits_one_when_counts_drop(capsys, monkeypatch):
    import permlip.probe as probe
    monkeypatch.setattr(probe, "head",
                        lambda n_max, m: [10 * n - m for n in range(1, n_max + 1)])
    rc, out, _ = run_cli(capsys, "probe", "-m", "1", "2", "-N", "4")
    assert rc == 1
    report = json.loads(out.splitlines()[-1])
    assert report["termwise_ok"] is False
    assert report["termwise_failures"][0] == [1, 2, 1, 9, 8]


# ---------------------------------------------------------------- pinned calls

PINS = json.loads((Path(__file__).parent / "cli_pins.json").read_text())


def test_pinned_calls_print_recorded_bytes(capsys, monkeypatch):
    """Exit code, stdout and stderr of probe, verify, seq and count calls
    near the ceiling and the bounds' edges, recorded once from the CLI."""
    monkeypatch.delenv("PERMLIP_CEILING", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    for pin in PINS:
        try:
            rc = main(pin["argv"].split())
        except SystemExit as exc:  # argparse refuses with exit 2
            rc = exc.code
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (pin["exit"], pin["stdout"],
                                                    pin["stderr"]), pin["argv"]


# ---------------------------------------------------------------- entry point

def child_env():
    # a child interpreter does not see pytest's pythonpath setting
    src = str(Path(permlip.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "permlip", "count", "-n", "6", "-m", "2",
         "--engine", "brute"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "18"


def test_closed_pipe_exits_141_without_a_traceback():
    # megabytes of output, far past any pipe buffer: a write after the close
    # always fails, however the two processes are scheduled
    with subprocess.Popen([sys.executable, "-m", "permlip", "seq", "-m", "2", "-N", "20000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env()) as proc:
        assert proc.stdout.readline() == b"1\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""


# An atexit handler registered before the entry runs reports the freeze count
# after it returns; under os._exit it would not run at all.
ENTRY = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("permlip", run_name="__main__")
"""


def test_module_entry_freezes_the_heap_for_exit():
    proc = subprocess.run([sys.executable, "-c", ENTRY, "count", "-n", "6", "-m", "2"],
                          capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "18\n", "frozen True\n")


def test_main_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert run_cli(capsys, "count", "-n", "6", "-m", "2") == (0, "18\n", "")
    assert gc.get_freeze_count() == before


def test_module_entry_keeps_argparse_refusal():
    pin = next(pin for pin in PINS if pin["argv"] == "seq -m 0 -N 3")
    proc = subprocess.run([sys.executable, "-m", "permlip", *pin["argv"].split()],
                          capture_output=True, text=True, env=dict(child_env(), COLUMNS="80"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (pin["exit"], pin["stdout"],
                                                           pin["stderr"])


def test_both_launchers_call_one_entry():
    # a text match: Python 3.10 has no tomllib
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    target = re.search(r'^permlip = "permlip\.cli:(\w+)"$', pyproject, re.M)
    dunder_main = Path(permlip.__file__).with_name("__main__.py").read_text()
    assert target and f"raise SystemExit({target[1]}())" in dunder_main


# Run the CLI on argv (or, with no argv, just import permlip) and print the
# modules that loaded as the last line of stderr.
LOADED = """
import sys
before = set(sys.modules)
if len(sys.argv) > 1:
    from permlip.cli import main
    code = main(sys.argv[1:])
else:
    import permlip
    code = 0
sys.stdout.flush()
print(*sorted(set(sys.modules) - before), file=sys.stderr)
raise SystemExit(code)
"""

# What each command loads, exactly: its argv (none for a bare import), its
# exit code and the package modules it loads besides permlip and cli.  A
# module-level import of code that a command does not run shows up here.
LOADS = [
    ("", 0, ""),
    ("count -n 6 -m 2", 0, "split bruteforce core"),
    ("count -n 15 -m 2", 3, "split bruteforce core"),
    ("count -n 1000 -m 2 --engine closed", 0, "m2"),
    ("count -n 12 -m 11 --engine closed", 0, "bruteforce core"),
    ("seq -m 3 -N 11", 0, "split bruteforce core"),
    ("seq -m 9 -N 9", 0, "bruteforce core"),
    ("verify --suite max-position -N 9", 0, "checks bruteforce core"),
    ("verify --suite max-first -N 9", 0, "checks m2 bruteforce core"),
    ("count -n 10 -m 3 --engine gf", 2, ""),
    ("asym", 0, "asymptotics genfunc"),
    ("asym --convergence 200", 0, "asymptotics genfunc"),
    ("probe -m 3 -N 11", 0, "genfunc probe split bruteforce core"),
    ("probe -m 2 -N 14", 0, "genfunc probe split bruteforce core"),
    ("probe -m 1 2 -N 14", 0, "genfunc probe split bruteforce core"),
    ("count -n 1000 -m 2 --engine gf", 0, "genfunc m2"),
    ("seq -m 2 -N 20", 0, "genfunc"),
    ("verify --suite gf -N 9", 0, "checks genfunc m2"),
    ("verify --suite asymptotics -N 9", 0, "asymptotics checks genfunc"),
]

# dataclasses pulls in inspect, ast, dis and tokenize; fractions pulls in
# decimal; numpy is no dependency.
NEVER = {"dataclasses", "fractions", "numpy"}


@pytest.mark.parametrize("argv, code, modules", LOADS,
                         ids=[argv or "import permlip" for argv, _, _ in LOADS])
def test_command_loads_exactly_its_modules(argv, code, modules):
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv.split()], capture_output=True,
                          text=True, env=child_env(), timeout=300)
    assert proc.returncode == code, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    base = "cli " if argv else ""
    assert {name for name in loaded if name.partition(".")[0] == "permlip"} == (
        {"permlip"} | {f"permlip.{name}" for name in (base + modules).split()})
    assert not loaded & NEVER, sorted(loaded & NEVER)
    assert ("json" in loaded) == argv.startswith(("probe", "asym"))
