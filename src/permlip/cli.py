"""Command line front end.

Subcommands: count, seq, verify, asym, probe.  Counts are printed as
exact decimal strings everywhere, including inside JSON, so arbitrarily
large values survive any consumer.  Exit codes: 0 success, 1 a
verification suite failed or probe saw counts drop as the bound
loosened, 2 usage error (including a malformed
``PERMLIP_CEILING``), 3 brute-force ceiling exceeded, 141 stdout was closed
before all output was written (128 + SIGPIPE, what a shell reports for GNU
``seq`` in the same pipe).

A command loads only the modules it runs.  No module of the package is
imported up front: every engine, route and suite imports its module on
first call, so ``count -n 6 -m 2`` loads ``split``, ``bruteforce`` and
``core``, and ``count --engine closed`` at m = 2 loads ``m2`` alone.
``main`` catches ``bruteforce.CeilingExceeded`` only once ``bruteforce`` is
loaded, since nothing else can raise it.

``entry`` is the process entry of both launchers, ``python -m permlip`` and
the ``permlip`` console script.  It runs ``main`` and then calls
``gc.freeze()``, which moves every object still alive into the permanent
generation.  The full collections CPython runs at shutdown skip that
generation; over the some 12 000 objects a call leaves, which the exiting
process frees anyway, they would cost about 5 ms.  ``main`` itself has no
such process-level effect, for library and test callers; atexit handlers,
the final stdout flush and every exit code are as before.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from importlib import import_module

__all__ = ["main"]

ENGINES = ("split", "brute", "transfer", "closed", "recurrence", "gf")
FORMATS = ("json", "csv", "bfile", "plain")
# sorted(checks.SUITES) and checks.BOUNDED, spelled out so the parser loads no suite
SUITES = ("asymptotics", "gf", "max-first", "max-last", "max-position", "max-second",
          "split", "transfer")
BOUNDED = ("max-position", "transfer")


def _lazy(module: str, name: str):
    """``module.name`` as a callable that imports the module on first call."""
    return lambda *args: getattr(import_module(f".{module}", __package__), name)(*args)


_SEARCH = {"split": _lazy("split", "count"), "brute": _lazy("bruteforce", "count"),
           "transfer": _lazy("transfer", "count")}


def _m1(n: int) -> int:
    """The count at bound 1: one permutation of length 1, two of every longer one."""
    return 1 if n == 1 else 2


def _regime(n: int, m: int) -> str | None:
    """The regime with exact routes that length n and bound m fall in."""
    if m == 1:
        return "m=1"
    if m == 2:
        return "m=2"
    if m >= n - 1:  # no jump exceeds n - 1: every 132-avoider counts
        return "catalan"
    return None


def _gf_term(n: int, m: int) -> int:
    """The n-th coefficient of the rational GF of bound 1 or 2."""
    from . import genfunc
    # bound 1: (x + x^2)/(1 - x), derived apart from _m1
    gf = genfunc.RationalGF((0, 1, 1), (1, -1)) if m == 1 else genfunc.gf_m2()
    return genfunc.nth_coeff(gf, n)


def _gf_terms():
    """The counts for n = 1, 2, ... at m = 2, streamed from the series of gf_m2()."""
    from . import genfunc
    return itertools.islice(genfunc.series_stream(genfunc.gf_m2()), 1, None)


# Every exact route, keyed by (regime, engine).  A route maps n to the count
# at length n, except "terms", the endless stream of counts for n = 1, 2, ...
# that seq prints.  The closed, recurrence and gf routes of a regime are
# derived independently, so each cross-checks the others; at m = 1 the closed
# and recurrence routes are one closed form, _m1, and the gf literal checks it.
_ROUTES = {
    ("m=1", "closed"): _m1,
    ("m=1", "recurrence"): _m1,
    ("m=1", "gf"): lambda n: _gf_term(n, 1),
    ("m=1", "terms"): lambda: map(_m1, itertools.count(1)),
    ("m=2", "closed"): _lazy("m2", "class_count"),
    ("m=2", "recurrence"): _lazy("m2", "class_count_by_recurrence"),
    ("m=2", "gf"): lambda n: _gf_term(n, 2),
    ("m=2", "terms"): _gf_terms,
    ("catalan", "closed"): _lazy("bruteforce", "catalan"),
    ("catalan", "recurrence"): _lazy("bruteforce", "catalan_by_recurrence"),
    ("catalan", "terms"): lambda: itertools.islice(_lazy("bruteforce", "catalan_numbers")(),
                                                   1, None),
}


def _cmd_count(args) -> int:
    n, m = args.n, args.m
    if args.engine in _SEARCH:
        value = _SEARCH[args.engine](n, m)
    else:
        route = _ROUTES.get((_regime(n, m), args.engine))
        if route is None:
            print(f"error: engine {args.engine!r} has no exact route for n={n}, m={m}; "
                  "try --engine split, the default", file=sys.stderr)
            return 2
        value = route(n)
    print(value)
    return 0


def _cmd_seq(args) -> int:
    m, n_max, out = args.m, args.n_max, sys.stdout
    # streamed: a few terms in memory at once; the decomposition engine is
    # held to the search ceiling before anything is written
    route = _ROUTES.get((_regime(n_max, m), "terms"))
    terms = (itertools.islice(route(), n_max) if route is not None
             else _lazy("split", "head")(n_max, m))
    if args.format == "json":
        out.write(f'{{"m": {m}, "n_max": {n_max}, "terms": [')
        for n, t in enumerate(terms):
            out.write(f', "{t}"' if n else f'"{t}"')
        out.write("]}\n")
        return 0
    line = {"bfile": "{0} {1}\n", "csv": "{0},{1}\n", "plain": "{1}\n"}[args.format]
    for n, t in enumerate(terms, start=1):
        out.write(line.format(n, t))
    return 0


def _cmd_verify(args) -> int:
    from . import checks
    results = checks.run_suite(args.suite, args.n_max, args.m)
    failures = [r for r in results if not r[1]]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {args.suite}: {name}"
              + (f" ({detail})" if detail and not ok else ""))
    if failures:
        name, _, detail = failures[0]
        print(f"first failure: {name}: {detail}", file=sys.stderr)
        return 1
    return 0


def _cmd_asym(args) -> int:
    import json
    from . import asymptotics
    if args.convergence is not None:
        sys.stdout.write(asymptotics.convergence_csv(args.convergence))
    else:
        est = asymptotics.estimate()
        print(json.dumps({"rho": est.rho, "alpha": est.alpha, "C": est.amplitude}))
    return 0


def _cmd_probe(args) -> int:
    import json
    from . import probe
    profiles = [probe.build_profile(m, args.n_max) for m in args.m]
    report = probe.monotonicity_check(profiles)
    for prof in profiles:
        print(json.dumps(probe.profile_to_dict(prof)))
    if len(profiles) > 1:
        print(json.dumps(report._asdict()))
    return 0 if report.termwise_ok else 1


def _positive(kind: str):
    def convert(text: str) -> int:
        try:
            if (value := int(text)) >= 1:
                return value
        except ValueError:  # not an integer: refused with the same message
            pass
        raise argparse.ArgumentTypeError(f"{kind} must be a positive integer, got {text}")
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlip",
        description="132-avoiding permutations under a bounded adjacent-jump "
                    "constraint: exact counts, structure checks, growth analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact count for one length")
    p.add_argument("-n", type=_positive("n"), required=True, help="permutation length")
    p.add_argument("-m", type=_positive("m"), required=True, help="adjacent-jump bound")
    p.add_argument("--engine", choices=ENGINES, default="split",
                   help="decomposition engine (default), brute-force oracle, "
                        "transfer-matrix count, closed form, linear recurrence, or "
                        "series extraction (the last three need m in {1, 2}; closed "
                        "and recurrence also cover m >= n - 1)")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("seq", help="sequence of counts for lengths 1..N")
    p.add_argument("-m", type=_positive("m"), required=True)
    p.add_argument("-N", "--n-max", dest="n_max", type=_positive("N"), required=True)
    p.add_argument("--format", choices=FORMATS, default="plain")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("verify", help="run a falsification suite against the oracle")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("-N", "--n-max", dest="n_max", type=_positive("N"), default=10)
    p.add_argument("-m", type=_positive("m"), default=None,
                   help=f"jump bound for the {' and '.join(BOUNDED)} suites "
                        "(default: sweep 1..4); the others check m = 2 only and "
                        "refuse any other bound")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("asym", help="growth constants, or a convergence table")
    p.add_argument("--convergence", type=_positive("N"), default=None, metavar="N",
                   help="emit the n,exact,asymptotic,rel_error CSV up to N instead")
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("probe", help="growth profiles for one or more jump bounds as JSON")
    p.add_argument("-m", type=_positive("m"), nargs="+", required=True,
                   help="jump bounds, strictly increasing; several add a closing line "
                        "comparing them, and exit 1 if counts ever drop as the bound loosens")
    p.add_argument("-N", "--n-max", dest="n_max", type=_positive("N"), required=True)
    p.set_defaults(func=_cmd_probe)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # CPython 3.10.7+ refuses to print an int of more than 4300 digits by
    # default; counts print in full however long, so lift the cap for the call.
    digit_cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a late EPIPE is raised here, inside the try
        return status
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the
        # interpreter's final flush cannot raise again
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    # looked up as the exception is matched: only a loaded bruteforce can raise
    # it, and () matches nothing
    except getattr(sys.modules.get(f"{__package__}.bruteforce"), "CeilingExceeded", ()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_cap is not None:
            sys.set_int_max_str_digits(digit_cap)


def entry() -> int:
    """``main`` on the process's argv, then ``gc.freeze()`` for a cheap exit."""
    try:
        return main()
    finally:
        gc.freeze()
