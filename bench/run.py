#!/usr/bin/env python3
"""Benchmark of the permlip library and CLI, driven as a user drives them.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; permlip is imported from ``src/``.  Workloads
(see ``BENCHMARK.json`` for why each exists):

* ``probe-sweep``: ``probe.build_profile`` at each point of
  ``jobs.PROBE_POINTS``, one fresh interpreter per pass;
* ``exact-m2-bign``: the exact m = 2 engines, series extraction, recurrence
  fits and asymptotics, one fresh interpreter per pass, because m2's
  module-level memo tables would turn a repeat into a list lookup;
* ``cli-session``: a closed loop, one client, of 42 sequential
  ``python -m permlip`` invocations per pass.

Load comes from this process alone, running one child interpreter at a
time.  Passes repeat until ``--seconds`` have elapsed (at least one); the
seed shuffles the job order of each pass and nothing else.  Every output is
checked against ``refs.json`` (written by ``make_refs.py``, never at run
time), and each mismatch, unexpected exit code, exception or timeout counts
as a failed job.

With ``--trace 0`` the end-to-end metrics are reported:

* ``wall_s``: median time of a pass over the fixed job list;
* ``setup_s``: median over SETUP_SPAWNS spawns, spread over the run, of
  the time from spawning an interpreter until ``import permlip`` returns;
* ``peak_rss_mb``: peak RSS of the largest child (``RUSAGE_CHILDREN``);
* ``ok_ratio``: 1 - fail_ratio, i.e. jobs that passed over jobs attempted
  (reported this way so the metric is never 0; fail_ratio is printed too);
* ``job_p50_s``/``job_p75_s``: latency of one invocation: a CLI call on
  cli-session (42 per pass, so p75 has at least ten samples beyond it), one
  library call of the job list on the other workloads.  The sample count
  is printed.

The times are in reference seconds (``calib.py``): each is scaled by the
speed of a fixed calibration tick timed on the same vCPU, by a sampler
inside the child interpreter while library jobs run, or in bursts just
before and after each CLI invocation and set-up spawn, so a vCPU that slows
down does not read as a slower program.  The whole run is pinned to one
vCPU, so that bursts and children share it.  Raw seconds are printed too.

With ``--trace 1`` the run makes one untraced pass, one pass with a span
around every public function of the instrumented modules (``child.py``), and
one untimed pass counting predicate calls and tracing memory, then reports
the per-layer metrics.  Layers a workload never calls read 0.  Span times
are scaled by the traced pass's mean speed.  The spans are written raw to
``.bench_out/``.  The last stdout line is always one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import calib
import jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = str(HERE / "child.py")
PYTHON = sys.executable

SETUP_SPAWNS = 12
IMPORTTIME_RUNS = 3
RUN_LIMIT_S = 170  # every child is killed before the run exceeds this
WORKLOADS = ("probe-sweep", "exact-m2-bign", "cli-session")


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PERMLIP_CEILING"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    def __init__(self, workload, refs, deadline):
        self.workload = workload
        self.refs = refs
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failures = []
        if workload == "probe-sweep":
            self.jobs = jobs.probe_sweep_jobs(refs)
        elif workload == "exact-m2-bign":
            self.jobs = jobs.exact_m2_jobs(refs)
        else:
            self.jobs = [argv for argv, _ in jobs.CLI_SESSION]

    def timeout(self):
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError("run time limit reached")
        return left

    def fail(self, job_id, why):
        self.failures.append(f"{job_id}: {why}")

    def run_pass(self, order, mode):
        """One pass over ``order``: (wall seconds, [(job id, seconds, scale)],
        [report], scale) with one instrumentation report per child interpreter.

        Seconds are raw and exclude the calibration ticks; a scale turns them
        into reference seconds (``calib.py``).  ``counts`` passes, whose
        timings are not used, are not calibrated and have scale 1."""
        if self.workload == "cli-session":
            return self.cli_pass(order, mode)
        return self.inprocess_pass(order, mode)

    def inprocess_pass(self, order, mode):
        self.attempted += len(order)
        start = perf_counter()
        proc = subprocess.Popen([PYTHON, CHILD, "jobs", mode], cwd=ROOT, env=self.env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(json.dumps(order).encode(), timeout=self.timeout())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            for job in order:
                self.fail(job["id"], "timeout")
            return perf_counter() - start, [], [], 1.0
        wall = perf_counter() - start
        try:
            report = json.loads(out.decode().splitlines()[-1])
        except (IndexError, ValueError):
            for job in order:
                self.fail(job["id"], f"child exited {proc.returncode}: {err.decode()[-300:]}")
            return wall, [], [], 1.0
        wall -= report.pop("calib_s")
        ticks = report.pop("ticks")
        by_id = {r["id"]: r for r in report.pop("results")}
        for job in order:
            result = by_id.get(job["id"])
            if result is None:
                self.fail(job["id"], "no result")
            elif "error" in result:
                self.fail(job["id"], result["error"])
            else:
                problem = CHECKS[job["check"]](result["summary"], job["expect"])
                if problem:
                    self.fail(job["id"], problem)
        # a job too short for a tick of its own takes the pass's scale
        scale = calib.scale(ticks) if ticks else 1.0
        latencies = [(r["id"], r["seconds"], calib.scale(r["ticks"]) if r["ticks"] else scale)
                     for r in by_id.values()]
        return wall, latencies, [report] if mode != "plain" else [], scale

    def cli_pass(self, order, mode):
        latencies, reports = [], []
        calibrated = mode != "counts"
        bursts = [calib.burst()] if calibrated else []  # one before each call, one after
        start = perf_counter()
        calib_s = 0.0
        for argv in order:
            self.attempted += 1
            ref = self.refs["cli"][argv]
            if mode == "plain":
                cmd = [PYTHON, "-m", "permlip", *argv.split()]
            else:
                OUT.mkdir(exist_ok=True)
                report_path = OUT / f"cli-{os.getpid()}.json"
                cmd = [PYTHON, CHILD, "cli", mode, str(report_path), *argv.split()]
            t0 = perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                      timeout=self.timeout(), check=False)
            except subprocess.TimeoutExpired:
                self.fail(argv, "timeout")
                continue
            seconds = perf_counter() - t0
            scale = 1.0
            if calibrated:
                t0 = perf_counter()
                bursts.append(calib.burst())
                calib_s += perf_counter() - t0
                scale = calib.scale(bursts[-2] + bursts[-1])
            latencies.append((argv, seconds, scale))
            problem = None
            if proc.returncode != ref["exit"]:
                problem = (f"exit {proc.returncode}, expected {ref['exit']}: "
                           f"{proc.stderr.decode()[-300:]}")
            elif proc.stdout != ref["stdout"].encode():
                problem = "stdout differs from the reference"
            if mode != "plain":
                try:
                    reports.append(json.loads(report_path.read_text()))
                    report_path.unlink()
                except (OSError, ValueError) as exc:
                    problem = problem or f"no instrumentation report: {exc}"
            if problem:
                self.fail(argv, problem)
        wall = perf_counter() - start - calib_s
        scale = calib.scale([t for ticks in bursts for t in ticks]) if calibrated else 1.0
        return wall, latencies, reports, scale


def check_equal(got, want):
    return None if got == want else f"got {str(got)[:200]}, expected {str(want)[:200]}"


def check_close(got, want):
    if len(got) == len(want["value"]) and all(
            math.isclose(g, w, rel_tol=want["rel"]) for g, w in zip(got, want["value"])):
        return None
    return f"got {got}, expected {want['value']} within {want['rel']}"


def check_profile(got, want_terms):
    if got["terms"] != want_terms:
        return f"terms {got['terms']}, expected {want_terms}"
    if got["fitted"] is not None:
        return f"fit accepted ({got['fitted']}); these terms have none"
    if got["alpha"] is None or not 1.0 < got["alpha"] < 4.0:
        return f"growth estimate {got['alpha']} outside (1, 4)"
    return None


def check_convergence(got, want):
    if got["rows"] != want["rows"] or got["last"] != want["last"]:
        return f"{got['rows']} rows, last exact digest {got['last']}"
    if not (got["rel_error_100"] < 1e-6 and got["rel_error_last"] < 1e-10):
        return f"relative errors {got['rel_error_100']} (n=100), {got['rel_error_last']} (last)"
    return None


CHECKS = {"equal": check_equal, "close": check_close, "profile": check_profile,
          "convergence": check_convergence}


def spawn_import_seconds(env, scaled):
    """Seconds from spawning an interpreter until ``import permlip`` returns;
    the same in reference seconds, from bursts before and after, is appended
    to ``scaled``.

    CLOCK_MONOTONIC is system-wide on Linux, so the child's reading after
    the import compares with ours before the spawn."""
    before = calib.burst()
    start = time.monotonic()
    proc = subprocess.run([PYTHON, "-c", "import time, permlip; print(time.monotonic())"],
                          cwd=ROOT, env=env, capture_output=True, timeout=60, check=False)
    if proc.returncode != 0:
        raise BenchError(f"import permlip failed: {proc.stderr.decode()[-500:]}")
    seconds = float(proc.stdout) - start
    scaled.append(seconds * calib.scale(before + calib.burst()))
    return seconds


def import_seconds(env):
    """(numpy, permlip) cumulative import seconds from ``-X importtime``,
    medians in reference seconds."""
    numpy_s, permlip_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        before = calib.burst()
        proc = subprocess.run([PYTHON, "-X", "importtime", "-c", "import permlip.cli"],
                              cwd=ROOT, env=env, capture_output=True, timeout=60, check=True)
        scale = calib.scale(before + calib.burst())
        numpy_us = permlip_us = 0
        for line in proc.stderr.decode().splitlines():
            fields = line.split("|")
            if not line.startswith("import time:") or len(fields) != 3:
                continue
            cumulative, name = fields[1].strip(), fields[2]
            if not cumulative.isdigit():
                continue  # the header line
            top_level = len(name) - len(name.lstrip()) == 1
            if name.strip() == "numpy":
                numpy_us = int(cumulative)
            elif top_level and name.strip().startswith("permlip"):
                permlip_us += int(cumulative)
        numpy_s.append(numpy_us / 1e6 * scale)
        permlip_s.append(permlip_us / 1e6 * scale)
    return statistics.median(numpy_s), statistics.median(permlip_s)


def measure(runner, rng, seconds):
    """End-to-end metrics of an untraced run, in reference seconds."""
    setups, walls, per_job = [], [], defaultdict(list)
    raw_setups, raw_walls = [], []
    calib.burst()  # warm-up
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        # set-up spawns are spread over the run, so they see the same
        # machine conditions as the passes
        due = 1 + int(SETUP_SPAWNS * (perf_counter() - start) / seconds)
        while len(setups) < min(due, SETUP_SPAWNS):
            raw_setups.append(spawn_import_seconds(runner.env, setups))
        wall, latencies, _, scale = runner.run_pass(
            rng.sample(runner.jobs, len(runner.jobs)), "plain")
        raw_walls.append(wall)
        walls.append(wall * scale)
        for job_id, job_s, job_scale in latencies:
            per_job[job_id].append(job_s * job_scale)
    while len(setups) < SETUP_SPAWNS:
        raw_setups.append(spawn_import_seconds(runner.env, setups))
    invocations = [s for samples in per_job.values() for s in samples]
    if runner.workload != "cli-session":
        for job_id, samples in per_job.items():
            print(f"job {job_id}: median {statistics.median(samples):.4f} ref s")
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    ok = 1 - len(runner.failures) / runner.attempted
    print(f"passes {len(walls)}: wall_s {' '.join(f'{w:.3f}' for w in walls)} ref s; "
          f"raw {' '.join(f'{w:.3f}' for w in raw_walls)} s")
    print(f"raw medians: wall {statistics.median(raw_walls):.4f} s, "
          f"setup {statistics.median(raw_setups):.4f} s")
    print(f"setup spawns {len(setups)}; invocation samples {len(invocations)}")
    print(f"fail_ratio {len(runner.failures)}/{runner.attempted} = {1 - ok:.4f}")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "ok_ratio": ok,
        "job_p50_s": statistics.median(invocations),
        "job_p75_s": statistics.quantiles(invocations, n=4, method="inclusive")[2],
    }


def span_totals(span_lists):
    """Per span name: calls, outermost inclusive seconds, self seconds, and the
    summed outcome (leaves, words, refusals) of outermost spans."""
    calls, inclusive, self_s, outcome = Counter(), defaultdict(float), defaultdict(float), Counter()
    for rows in span_lists:
        by_id = {row[0]: row for row in rows if row[5] is not None}
        child_s = defaultdict(float)
        for row in by_id.values():
            if row[1] is not None:
                child_s[row[1]] += row[5] - row[4]
        for sid, parent, name, _job, t0, t1, result in by_id.values():
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_s[sid]
            while parent is not None and by_id[parent][2] != name:
                parent = by_id[parent][1]
            if parent is None:  # not nested in a span of the same name
                inclusive[name] += t1 - t0
                outcome[name] += result or 0
    return calls, inclusive, self_s, outcome


def trace(runner, rng, seed):
    """Per-layer metrics: untraced, spans and counts passes over one order."""
    order = rng.sample(runner.jobs, len(runner.jobs))
    plain_wall, _, _, plain_scale = runner.run_pass(order, "plain")
    spans_wall, _, span_reports, spans_scale = runner.run_pass(order, "spans")
    _, _, count_reports, _ = runner.run_pass(order, "counts")
    span_lists = [r["spans"] for r in span_reports]

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{runner.workload}-seed{seed}.json").write_text(json.dumps(span_lists))

    calls, inclusive, self_s, outcome = span_totals(span_lists)
    # span times in reference seconds, at the traced pass's mean speed
    inclusive = defaultdict(float, {k: v * spans_scale for k, v in inclusive.items()})
    self_s = defaultdict(float, {k: v * spans_scale for k, v in self_s.items()})
    predicate = {walk: [sum(r["predicate"][walk][i] for r in count_reports) for i in (0, 1)]
                 for walk in ("bruteforce.count", "bruteforce.members")}
    pred_calls = sum(p[0] for p in predicate.values())
    pred_accepts = sum(p[1] for p in predicate.values())
    leaves = outcome["bruteforce.count"]
    count_s = inclusive["bruteforce.count"]

    micro = subprocess.run([PYTHON, CHILD, "micro"], cwd=ROOT, env=runner.env,
                           capture_output=True, timeout=runner.timeout(), check=True)
    micro = json.loads(micro.stdout)
    numpy_s, permlip_s = import_seconds(runner.env)

    def ratio(a, b):
        return a / b if b else 0.0

    print(f"spans {sum(map(len, span_lists))} in {len(span_lists)} process(es); "
          f"untraced pass {plain_wall:.3f} s raw, {plain_wall * plain_scale:.3f} ref s; "
          f"traced pass {spans_wall:.3f} s raw, {spans_wall * spans_scale:.3f} ref s")
    return {
        "core.prefix_extension_ok.ns_per_call": micro["ns_per_call"] * calib.scale(micro["ticks"]),
        "bruteforce.count.s": count_s,
        "bruteforce.count.calls": calls["bruteforce.count"],
        "bruteforce.count.leaves": leaves,
        "bruteforce.count.leaves_per_s": ratio(leaves, count_s),
        "bruteforce.count.leaf_per_node": ratio(leaves, predicate["bruteforce.count"][1]),
        "bruteforce.predicate.calls": pred_calls,
        "bruteforce.predicate.accepts": pred_accepts,
        "bruteforce.predicate.accept_ratio": ratio(pred_accepts, pred_calls),
        "bruteforce.members.s": inclusive["bruteforce.members"],
        "bruteforce.members.words": outcome["bruteforce.members"],
        "m2.class_count.s": inclusive["m2.class_count"],
        "m2.class_count_by_recurrence.s": inclusive["m2.class_count_by_recurrence"],
        "m2.retained_mb": max((r["retained_bytes"] for r in count_reports), default=0) / 1e6,
        "genfunc.series_coeffs.s": inclusive["genfunc.series_coeffs"],
        "genfunc.series_coeffs.peak_mb":
            max((r["series_peak_bytes"] for r in count_reports), default=0) / 1e6,
        "genfunc.fit_recurrence.s": inclusive["genfunc.fit_recurrence"],
        "genfunc.fit_recurrence.calls": calls["genfunc.fit_recurrence"],
        "genfunc.fit_recurrence.refusals": outcome["genfunc.fit_recurrence"],
        "genfunc.dominant_root.s": inclusive["genfunc.dominant_root"],
        "asymptotics.estimate.s": inclusive["asymptotics.estimate"],
        "asymptotics.convergence_report.s": inclusive["asymptotics.convergence_report"],
        "probe.build_profile.s": inclusive["probe.build_profile"],
        "probe.build_profile.self_s": self_s["probe.build_profile"],
        "checks.run_suite.s": inclusive["checks.run_suite"],
        "checks.run_suite.self_s": self_s["checks.run_suite"],
        "cli.main.s": inclusive["cli.main"],
        "cli.main.self_s": self_s["cli.main"],
        "import.numpy_s": numpy_s,
        "import.permlip_s": permlip_s,
        "trace.overhead_ratio": ratio(spans_wall * spans_scale, plain_wall * plain_scale),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S
    # this process's calibration bursts and its children share one vCPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if not (SRC / "permlip" / "__init__.py").is_file():
            raise BenchError(f"no permlip sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        refs = json.loads((HERE / "refs.json").read_text())
        runner = Runner(args.workload, refs, deadline)
        rng = random.Random(args.seed)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            values, declared = trace(runner, rng, args.seed), spec["per_layer"]
        else:
            values, declared = measure(runner, rng, args.seconds), spec["end_to_end"]
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        print(f"benchmark error: metrics {sorted(set(units) ^ set(values))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2
    for name in units:
        print(f"{name} {values[name]:.6g} {units[name]}")
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
