"""Child-interpreter side of the permlip benchmark; ``run.py`` starts it.

    child.py jobs MODE               run the JSON job list on stdin in this
                                     interpreter, print one JSON result line
    child.py cli MODE OUT ARGV...    run permlip's CLI on ARGV as
                                     ``python -m permlip`` does, and write the
                                     instrumentation to OUT
    child.py micro                   time core.prefix_extension_ok

MODE is ``plain`` (no instrumentation), ``spans`` (a span around every
public function of the modules in INSTRUMENTED, predicate excluded) or
``counts`` (predicate calls and accepts per walk, and tracemalloc around the
exact engines; its timings are not used).  In ``plain`` and ``spans``
modes, ``jobs`` also samples the vCPU's speed with ``calib.Sampler`` while
the jobs run, times the jobs and spans on the sampler's clock, and reports
the ticks of each job and of the whole run; ``micro`` does the same.
"""

import contextlib
import hashlib
import importlib
import inspect
import json
import statistics
import sys
import timeit
import tracemalloc
from time import perf_counter

import calib

INSTRUMENTED = ("bruteforce", "m2", "genfunc", "asymptotics", "probe", "checks", "cli")
WALKS = ("bruteforce.count", "bruteforce.members")
MEMORY_TRACKED = ("m2.class_count", "m2.class_count_by_recurrence", "genfunc.series_coeffs")

# Length-8 prefix of a member at m = 3 and a value that passes, so the
# predicate scans the whole prefix.
MICRO_PREFIX = [10, 8, 9, 7, 6, 4, 5, 3]
MICRO_VALUE = 1
MICRO_M = 3


def resolve(dotted):
    module, name = dotted.rsplit(".", 1)
    return getattr(importlib.import_module(f"permlip.{module}"), name)


def rebind(replacements):
    """Point every permlip global (and dict value) holding a replaced function
    at its replacement, so names imported with ``from .x import f`` follow."""
    for modname, module in list(sys.modules.items()):
        if modname != "permlip" and not modname.startswith("permlip."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(module, attr, replacements[value])
            elif isinstance(value, dict):
                for key, item in value.items():
                    if inspect.isfunction(item) and item in replacements:
                        value[key] = replacements[item]


def public_functions():
    for short in INSTRUMENTED:
        module = importlib.import_module(f"permlip.{short}")
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield f"{short}.{name}", fn


class Spans:
    """Span per call: [id, parent id, name, job, start, end, outcome]."""

    OUTCOMES = {
        "bruteforce.count": int,
        "bruteforce.members": len,
        "genfunc.fit_recurrence": lambda rec: int(rec is None),
    }

    def __init__(self):
        self.rows = []
        self.stack = []
        self.job = None
        self.clock = perf_counter

    def install(self):
        rebind({fn: self.wrap(name, fn) for name, fn in public_functions()})

    def wrap(self, name, fn):
        rows, stack, outcome = self.rows, self.stack, self.OUTCOMES.get(name)

        def traced(*args, **kwargs):
            row = [len(rows), stack[-1] if stack else None, name, self.job,
                   self.clock(), None, None]
            rows.append(row)
            stack.append(row[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                row[5] = self.clock()
                stack.pop()
            if outcome is not None:
                row[6] = outcome(result)
            return result

        return traced

    def report(self):
        return {"spans": self.rows}


class Counts:
    """Predicate calls/accepts per walk, and tracemalloc figures for the exact
    engines: bytes still held after each m2 call returns, and the peak
    during each series extraction."""

    def __init__(self):
        self.predicate = {walk: [0, 0] for walk in WALKS}
        self.walk = None
        self.retained = 0
        self.series_peak = 0

    def install(self):
        from permlip import core
        functions = dict(public_functions())
        replacements = {core.prefix_extension_ok: self.counted(core.prefix_extension_ok)}
        for name in WALKS:
            replacements[functions[name]] = self.walking(name, functions[name])
        for name in MEMORY_TRACKED:
            replacements[functions[name]] = self.measured(name, functions[name])
        rebind(replacements)

    def counted(self, fn):
        def predicate(prefix, value, m):
            ok = fn(prefix, value, m)
            tally = self.predicate[self.walk]
            tally[0] += 1
            tally[1] += ok
            return ok
        return predicate

    def walking(self, name, fn):
        def walk(*args, **kwargs):
            if self.walk is not None:
                return fn(*args, **kwargs)
            self.walk = name
            try:
                return fn(*args, **kwargs)
            finally:
                self.walk = None
        return walk

    def measured(self, name, fn):
        def call(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if name == "genfunc.series_coeffs":
                self.series_peak = max(self.series_peak, peak)
            else:
                self.retained += current
            return result
        return call

    def report(self):
        return {"predicate": self.predicate, "retained_bytes": self.retained,
                "series_peak_bytes": self.series_peak}


RECORDERS = {"spans": Spans, "counts": Counts}
SAMPLED = ("plain", "spans")  # the modes whose timings are used


def instrumentation(mode):
    if mode == "plain":
        return None
    recorder = RECORDERS[mode]()
    recorder.install()
    return recorder


def digest(value):
    return hashlib.sha256(str(value).encode()).hexdigest()


def _recurrence(rec):
    if rec is None:
        return None
    return {"order": rec.order, "coefficients": [str(c) for c in rec.coefficients],
            "valid_from": rec.valid_from}


SUMMARIES = {
    "profile": lambda p: {"terms": [str(t) for t in p.terms], "fitted": _recurrence(p.fitted),
                          "alpha": p.alpha_estimate, "method": p.estimate_method},
    "digest": digest,
    "ints": lambda values: [str(v) for v in values],
    "series": lambda c: {"length": len(c), "head": [str(v) for v in c[:11]],
                         "last": digest(c[-1])},
    "recurrence": _recurrence,
    "float": lambda x: [x],
    "estimate": lambda e: [e.rho, e.alpha, e.amplitude],
    "convergence": lambda rows: {"rows": len(rows), "last": digest(rows[-1].exact),
                                 "rel_error_100": rows[99].rel_error,
                                 "rel_error_last": rows[-1].rel_error},
}


def argument(arg):
    if isinstance(arg, dict):
        return resolve(arg["call"])(*arg.get("args", []))
    return arg


def run_jobs(mode):
    sys.set_int_max_str_digits(0)
    jobs = json.loads(sys.stdin.read())
    import permlip  # noqa: F401  (every module loaded before instrumenting)
    recorder = instrumentation(mode)
    sampler = calib.Sampler()
    if isinstance(recorder, Spans):
        recorder.clock = sampler.clock
    results = []
    with sampler if mode in SAMPLED else contextlib.nullcontext():
        for job in jobs:
            if isinstance(recorder, Spans):
                recorder.job = job["id"]
            fn = resolve(job["fn"])
            first = len(sampler.ticks)
            start = sampler.clock()
            try:
                if "each" in job:
                    value = [fn(*map(argument, args)) for args in job["each"]]
                else:
                    value = fn(*map(argument, job["args"]))
                seconds, ticks = sampler.clock() - start, sampler.ticks[first:]
                result = {"summary": SUMMARIES[job["summary"]](value)}
            except Exception as exc:  # a failing job is reported, the rest still run
                seconds, ticks = sampler.clock() - start, sampler.ticks[first:]
                result = {"error": f"{type(exc).__name__}: {exc}"}
            result.update(id=job["id"], seconds=seconds, ticks=ticks)
            results.append(result)
            value = None
    out = {"results": results, "ticks": sampler.ticks, "calib_s": sampler.spent}
    if recorder is not None:
        out.update(recorder.report())
    print(json.dumps(out))


def run_cli(mode, out_path, argv):
    from permlip import cli
    recorder = instrumentation(mode)
    if isinstance(recorder, Spans):
        recorder.job = " ".join(argv)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(recorder.report(), fh)
    return code


def run_micro():
    from permlip.core import prefix_extension_ok
    if not prefix_extension_ok(MICRO_PREFIX, MICRO_VALUE, MICRO_M):
        raise SystemExit("micro-benchmark prefix no longer passes")
    number = 50000
    with calib.Sampler() as sampler:
        timer = timeit.Timer("f(p, v, m)", timer=sampler.clock,
                             globals={"f": prefix_extension_ok, "p": MICRO_PREFIX,
                                      "v": MICRO_VALUE, "m": MICRO_M})
        runs = timer.repeat(repeat=7, number=number)
    print(json.dumps({"ns_per_call": statistics.median(runs) / number * 1e9,
                      "ticks": sampler.ticks}))


def main(argv):
    command = argv[0]
    if command == "jobs":
        run_jobs(argv[1])
    elif command == "cli":
        return run_cli(argv[1], argv[2], argv[3:])
    elif command == "micro":
        run_micro()
    else:
        raise SystemExit(f"unknown command {command!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
