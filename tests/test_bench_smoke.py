"""The benchmark under bench/ names permlip functions and reference
values.  Without running it, check that every name its jobs and its
tracing pass use still resolves, that its reference terms still match
the engines, and that every command of its CLI session prints the
recorded bytes."""

import importlib.util
import json
import sys
from itertools import islice
from pathlib import Path

import pytest

from permlip import m2
from permlip.cli import main
from permlip.genfunc import gf_m2, series_stream

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"permlip_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))  # child.py imports calib as a top-level module
    try:
        child, jobs = _load("child"), _load("jobs")
    finally:
        sys.path.remove(str(BENCH))
    refs = json.loads((BENCH / "refs.json").read_text())
    return child, jobs, refs


def test_job_functions_resolve(bench):
    child, jobs, refs = bench
    listed = jobs.probe_sweep_jobs(refs) + jobs.exact_m2_jobs(refs)
    names = {job["fn"] for job in listed}
    names |= {arg["call"] for job in listed for arg in job.get("args", [])
              if isinstance(arg, dict)}
    for name in sorted(names):
        assert callable(child.resolve(name)), name


def test_traced_names_resolve(bench):
    child, _, _ = bench
    public = dict(child.public_functions())
    for name in child.MEMORY_TRACKED + child.WALKS:
        assert name in public, f"{name} is not a public permlip function"


def test_reference_terms_match_streams(bench):
    _, _, refs = bench
    for stream in (islice(series_stream(gf_m2()), 1, 41),
                   (m2.class_count_by_recurrence(n) for n in range(1, 41))):
        terms = [str(t) for t in stream]
        assert terms[:10] == refs["m2_first_ten_paper"]
        assert terms == refs["m2_terms"][:40]


def test_cli_session_matches_recorded_output(bench, capsys, monkeypatch):
    _, jobs, refs = bench
    monkeypatch.delenv("PERMLIP_CEILING", raising=False)
    for argv, _ in jobs.CLI_SESSION:
        rc = main(argv.split())
        assert (rc, capsys.readouterr().out) == (refs["cli"][argv]["exit"],
                                                 refs["cli"][argv]["stdout"]), argv
