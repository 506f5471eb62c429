"""Memory bounds of the exact engines, of ``seq`` and of ``verify --suite gf``.

The n-th-term routes hold the few coefficients of one polynomial power,
the term streams a sliding window of the last few terms, and neither keeps
anything between calls, so a count at any length holds O(1) big integers,
and ``seq`` writes, and ``verify --suite gf`` checks, each term as it comes.
The CLI checks run in a child interpreter that reports its own peak
resident set.
"""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import permlip
from permlip import m2
from permlip.asymptotics import estimate, log_asymptotic_value
from permlip.cli import main

RSS_LIMIT_MB = 100

# Run the CLI, then print the peak RSS (ru_maxrss: KiB on Linux, bytes on
# macOS) as the last line of stderr.
CHILD = """
import resource, sys
from permlip.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
raise SystemExit(code)
"""


def run_child(*argv, stdout=subprocess.PIPE):
    src = str(Path(permlip.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    maxrss = int(proc.stderr.strip().splitlines()[-1])
    return proc.stdout, maxrss / (2**20 if sys.platform == "darwin" else 2**10)


@pytest.mark.parametrize("engine, n", [
    ("closed", 200000),
    ("gf", 1000000),
    ("recurrence", 50000),
])
def test_count_runs_in_bounded_memory(engine, n):
    out, rss_mb = run_child("count", "-n", str(n), "-m", "2", "--engine", engine)
    assert out.strip().isdigit()
    assert rss_mb < RSS_LIMIT_MB, f"{engine} at n={n} peaked at {rss_mb:.0f} MB"


def test_seq_streams_in_bounded_memory():
    # 133 MB of digits: written as the terms come, never held whole
    _, rss_mb = run_child("seq", "-m", "2", "-N", "40000", stdout=subprocess.DEVNULL)
    assert rss_mb < RSS_LIMIT_MB, f"seq -N 40000 peaked at {rss_mb:.0f} MB"


def test_verify_gf_streams_in_bounded_memory():
    # the three term streams are compared one term at a time, never listed
    out, rss_mb = run_child("verify", "--suite", "gf", "-N", "40000")
    assert "FAIL" not in out and out.count("PASS") == 5
    assert rss_mb < RSS_LIMIT_MB, f"verify --suite gf -N 40000 peaked at {rss_mb:.0f} MB"


def test_recurrence_routes_hold_a_window():
    """The m = 1 and Catalan recurrence routes keep a few terms, not n."""
    for argv in (["-n", "300000", "-m", "1"], ["-n", "6000", "-m", "5999"]):
        tracemalloc.start()
        try:
            assert main(["count", *argv, "--engine", "recurrence"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"count {' '.join(argv)} peaked at {peak} traced bytes"


def test_routes_print_identical_digits(capsys):
    printed = {}
    for engine in ("closed", "recurrence", "gf"):
        assert main(["count", "-n", "50000", "-m", "2", "--engine", engine]) == 0
        printed[engine] = capsys.readouterr().out
    assert printed["closed"] == printed["recurrence"] == printed["gf"]
    # printed in full: as many digits as the leading term amplitude * alpha^n
    log10 = log_asymptotic_value(50000, estimate()) / math.log(10)
    assert len(printed["closed"].strip()) == math.floor(log10) + 1 == 8301


def test_engines_retain_nothing():
    """What the bench's m2.retained_mb reads: memory still allocated after a
    call returns, its result included."""
    for fn in (m2.class_count, m2.class_count_by_recurrence):
        tracemalloc.start()
        try:
            fn(20000)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1e6, f"{fn.__name__} holds {held} bytes after returning"


def test_m2_has_no_module_level_state():
    mutable = (list, dict, set, bytearray, type(threading.Lock()))
    tables = [name for name, value in vars(m2).items()
              if not name.startswith("__") and isinstance(value, mutable)]
    assert tables == []
