"""Memory bounds of the exact engines, of ``seq`` and of ``verify --suite gf``.

The n-th-term routes hold the few coefficients of one polynomial power and
keep nothing between calls, so a count at any length holds O(1) big
integers; ``seq`` writes, and ``verify --suite gf`` checks, each term of the
series of gf_m2() as it comes.  Each test runs its call in this process
under ``conftest.traced`` and bounds the traced peak by 1/8 of the leak it
guards against: the counts up to n held at once, which cost Θ(n²) bytes,
since the k-th count has about k·log2(alpha) bits.
"""

import math
import os
import sys
import threading
from contextlib import redirect_stdout
from itertools import islice

import pytest

from conftest import traced
from permlip import genfunc, m2
from permlip.asymptotics import estimate, log_asymptotic_value
from permlip.cli import build_parser, main

ALPHA = estimate().alpha
SEQ_N = 10000
# The suite peaks at some 9 KB already at N = 1, so the listed series first
# reaches 32 times its peak (a bound of 1/8 of the leak, 4 times the peak)
# near N = 3500; each readout runs ten times slower under tracemalloc, so N
# stays close to that.
VERIFY_N = 3600


def held_terms(n, growth):
    """About the bytes of the counts for lengths 1..n held at once when the
    k-th has k·log2(growth) bits: n²·log2(growth)/16, plus 36 bytes (an int
    header and a list slot) each."""
    return n * (36 + n * math.log2(growth) / 16)


def listed_series(n_max):
    """The bytes of the first n_max + 1 terms of the series of gf_m2()."""
    return sum(map(sys.getsizeof, islice(genfunc.series_stream(genfunc.gf_m2()), n_max + 1)))


def seq_m2():
    # written to devnull: capsys would hold the output
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        return traced(main, ["seq", "-m", "2", "-N", str(SEQ_N)])


def verify_gf():
    # parsed before tracing: the parser, some 40 KB, would outweigh the suite
    args = build_parser().parse_args(["verify", "--suite", "gf", "-N", str(VERIFY_N)])
    return traced(args.func, args)


@pytest.mark.parametrize("engine, n", [
    ("closed", 200000),
    ("gf", 1000000),
    ("recurrence", 50000),
])
def test_count_runs_in_bounded_memory(engine, n, capsys):
    status, peak, _ = traced(main, ["count", "-n", str(n), "-m", "2", "--engine", engine])
    assert status == 0 and capsys.readouterr().out.strip().isdigit()
    assert peak < held_terms(n, ALPHA) / 8, f"{engine} at n={n} peaked at {peak} bytes"


def test_seq_streams_in_bounded_memory():
    status, peak, _ = seq_m2()
    assert status == 0
    assert peak < listed_series(SEQ_N) / 8, f"seq -N {SEQ_N} peaked at {peak} bytes"


def test_verify_gf_streams_in_bounded_memory(capsys):
    status, peak, _ = verify_gf()
    out = capsys.readouterr().out
    assert status == 0 and "FAIL" not in out and out.count("PASS") == 5
    assert peak < listed_series(VERIFY_N) / 8, f"verify -N {VERIFY_N} peaked at {peak} bytes"


@pytest.mark.parametrize("run, n_max", [(seq_m2, SEQ_N), (verify_gf, VERIFY_N)])
def test_stream_bounds_see_a_listed_series(run, n_max, monkeypatch):
    """Each stream bound trips when the series is listed before use."""
    bound = listed_series(n_max) / 8
    stream = genfunc.series_stream
    monkeypatch.setattr(genfunc, "series_stream",
                        lambda gf: iter(list(islice(stream(gf), n_max + 1))))
    # the suite's readouts never see the series, and under tracemalloc they
    # would cost seconds; seq reads neither
    monkeypatch.setattr(m2, "class_count", lambda n: 0)
    monkeypatch.setattr(m2, "class_count_by_recurrence", lambda n: 0)
    _, peak, _ = run()
    assert peak > bound, f"a listed series peaked at {peak} bytes, under {bound:.0f}"


def test_recurrence_routes_hold_a_window():
    """The m = 1 and Catalan recurrence routes keep a few terms, not n."""
    # counts 1, 2, 2, ... at m = 1; Catalan numbers grow like 4^n
    for n, m, growth in ((300000, 1, 1), (6000, 5999, 4)):
        argv = ["count", "-n", str(n), "-m", str(m), "--engine", "recurrence"]
        status, peak, _ = traced(main, argv)
        assert status == 0
        assert peak < held_terms(n, growth) / 8, f"{' '.join(argv)} peaked at {peak} bytes"


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
    call returns, its result included; a memo table would hold every count
    up to n."""
    for fn in (m2.class_count, m2.class_count_by_recurrence):
        _, _, held = traced(fn, 20000)
        assert held < held_terms(20000, ALPHA) / 8, f"{fn.__name__} holds {held} bytes"


def test_m2_has_no_module_level_state():
    mutable = (list, dict, set, bytearray, type(threading.Lock()))
    tables = [name for name, value in vars(m2).items()
              if not name.startswith("__") and isinstance(value, mutable)]
    assert tables == []
