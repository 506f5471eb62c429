"""Command line front end.

Subcommands: count, seq, verify, asym, probe.  Counts are printed as
exact decimal strings everywhere, including inside JSON, so arbitrarily
large values survive any consumer.  Exit codes: 0 success, 1 a
verification suite failed, 2 usage error (including a malformed
``PERMLIP_CEILING``), 3 brute-force ceiling exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from . import asymptotics, bruteforce, checks, genfunc, m2, probe, transfer

__all__ = ["main", "format_bfile", "parse_bfile"]

ENGINES = ("brute", "transfer", "closed", "recurrence", "gf")
FORMATS = ("json", "csv", "bfile", "plain")

_GF_BY_BOUND = {
    # bound 1: one permutation of length 1, two of every longer length
    1: lambda: genfunc.RationalGF((0, 1, 1), (1, -1)),
    2: genfunc.gf_m2,
}


def format_bfile(terms, start: int = 1) -> str:
    """OEIS-style b-file lines: index and value separated by one space."""
    return "\n".join(f"{n} {t}" for n, t in enumerate(terms, start=start)) + "\n"


def parse_bfile(text: str) -> list[tuple[int, int]]:
    """Inverse of format_bfile; ignores blank and comment lines."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n, value = line.split()
        out.append((int(n), int(value)))
    return out


def _closed_count(n: int, m: int) -> int | None:
    if m == 1:
        return 1 if n == 1 else 2
    if m == 2:
        return m2.class_count(n)
    if m >= n - 1:
        return bruteforce.catalan(n)
    return None


def _recurrence_count(n: int, m: int) -> int | None:
    if m == 2:
        return m2.class_count_by_recurrence(n)
    if m == 1:
        rec = genfunc.gf_to_recurrence(_GF_BY_BOUND[1]())
        return genfunc.recurrence_terms(rec, n)[n - 1]
    if m >= n - 1:
        return bruteforce.catalan_by_convolution(n)
    return None


def _gf_count(n: int, m: int) -> int | None:
    if m in _GF_BY_BOUND:
        return genfunc.nth_coeff(_GF_BY_BOUND[m](), n)
    return None


def _cmd_count(args) -> int:
    n, m = args.n, args.m
    value = {"brute": bruteforce.count,
             "transfer": transfer.count,
             "closed": _closed_count,
             "recurrence": _recurrence_count,
             "gf": _gf_count}[args.engine](n, m)
    if value is None:
        print(f"error: engine {args.engine!r} has no exact route for n={n}, m={m}; "
              "try --engine brute", file=sys.stderr)
        return 2
    print(value)
    return 0


def _sequence_terms(m: int, n_max: int) -> list[int]:
    if m == 1:
        return [1] + [2] * (n_max - 1)
    if m == 2:
        return list(islice(m2.class_counts(), n_max))
    return [transfer.count(n, m) for n in range(1, n_max + 1)]


def _cmd_seq(args) -> int:
    terms = _sequence_terms(args.m, args.n_max)
    if args.format == "bfile":
        sys.stdout.write(format_bfile(terms))
    elif args.format == "csv":
        sys.stdout.write("".join(f"{n},{t}\n" for n, t in enumerate(terms, start=1)))
    elif args.format == "json":
        print(json.dumps({"m": args.m, "n_max": args.n_max,
                          "terms": [str(t) for t in terms]}))
    else:
        sys.stdout.write("".join(f"{t}\n" for t in terms))
    return 0


def _cmd_verify(args) -> int:
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
    est = asymptotics.estimate()
    if args.convergence is not None:
        sys.stdout.write(asymptotics.convergence_csv(args.convergence, est))
    else:
        print(json.dumps({"rho": est.rho, "alpha": est.alpha, "C": est.amplitude}))
    return 0


def _cmd_probe(args) -> int:
    prof = probe.build_profile(args.m, args.n_max)
    print(json.dumps(probe.profile_to_dict(prof)))
    return 0


def _positive(kind: str):
    def convert(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{kind} must be a positive integer, got {text}")
        return value
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
    p.add_argument("--engine", choices=ENGINES, default="brute",
                   help="brute search, transfer-matrix count, closed form, linear "
                        "recurrence, or series extraction (the last three need m in "
                        "{1, 2} or m >= n - 1)")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("seq", help="sequence of counts for lengths 1..N")
    p.add_argument("-m", type=_positive("m"), required=True)
    p.add_argument("-N", "--n-max", dest="n_max", type=_positive("N"), required=True)
    p.add_argument("--format", choices=FORMATS, default="plain")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("verify", help="run a falsification suite against the oracle")
    p.add_argument("--suite", choices=sorted(checks.SUITES), required=True)
    p.add_argument("-N", "--n-max", dest="n_max", type=_positive("N"), default=10)
    p.add_argument("-m", type=_positive("m"), default=None,
                   help="jump bound for suites that take one (default: sweep 1..4)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("asym", help="growth constants, or a convergence table")
    p.add_argument("--convergence", type=_positive("N"), default=None, metavar="N",
                   help="emit the n,exact,asymptotic,rel_error CSV up to N instead")
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("probe", help="growth profile for one jump bound as JSON")
    p.add_argument("-m", type=_positive("m"), required=True)
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
        return args.func(args)
    except bruteforce.CeilingExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_cap is not None:
            sys.set_int_max_str_digits(digit_cap)


if __name__ == "__main__":
    raise SystemExit(main())
