"""Falsification suites: every structural claim the package relies on,
re-checked at runtime against the brute-force oracle.

Each suite returns (name, ok, detail) triples; a detail string is only
filled in on failure.  Suites are keyed by the names the command line
exposes; each imports only the modules it checks.  A suite that walks the
oracle refuses an N above the search ceiling before its first walk.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice

__all__ = ["SUITES", "run_suite"]

Result = tuple[str, bool, str]


def _check(name: str, cond: bool, detail: str) -> Result:
    return (name, True, "") if cond else (name, False, detail)


def suite_max_position(n_max: int, bounds: list[int]) -> list[Result]:
    """The maximum sits in the first m positions or last; all realizable
    positions are realized.  One walk of the oracle per n, at the loosest
    bound, gives the census at every bound."""
    from . import bruteforce
    loosest = max(bounds)
    bruteforce._check_args(n_max, loosest)
    censuses = [bruteforce.jump_position_census(n, loosest) for n in range(1, n_max + 1)]
    out = []
    for m in bounds:
        for n, census in enumerate(censuses, start=1):
            support = {pos for jump, pos in census if jump <= m}
            allowed = set(range(1, min(m, n) + 1)) | {n}
            out.append(_check(
                f"support n={n} m={m}", support <= allowed,
                f"positions {sorted(support - allowed)} occur but are forbidden"))
            if n >= 2:
                required = set(range(1, min(m, n - 1) + 1)) | {n}
                out.append(_check(
                    f"realized n={n} m={m}", required <= support,
                    f"positions {sorted(required - support)} never occur"))
    return out


def suite_transfer(n_max: int, bounds: list[int]) -> list[Result]:
    """The transfer-matrix counter and the decomposition engine each agree
    with the brute-force oracle."""
    from . import bruteforce, split, transfer
    out = []
    for m in bounds:
        for n, by_split in enumerate(split.head(n_max, m), start=1):
            oracle = bruteforce.count(n, m)
            wrong = [f"{name} {value}" for name, value in
                     (("transfer", transfer.count(n, m)), ("split", by_split))
                     if value != oracle]
            out.append(_check(f"count n={n} m={m}", not wrong,
                              f"{', '.join(wrong)}, oracle {oracle}"))
    return out


def suite_max_last(n_max: int) -> list[Result]:
    """Constructed max-last family matches the oracle and has the stated
    rigid shape."""
    from . import bruteforce, m2
    bruteforce._check_args(n_max, 2)
    out = []
    for n in range(2, n_max + 1):
        built = m2.max_last_perms(n)
        oracle = sorted(w for w in bruteforce.members(n, 2) if w[-1] == n)
        out.append(_check(f"set equality n={n}", sorted(built) == oracle,
                          f"built {len(built)}, oracle {len(oracle)}"))
        out.append(_check(f"count n={n}", len(built) == m2.max_last_count(n) == n - 1,
                          f"got {len(built)}"))
        for w in built:
            pos1 = w.index(1)
            head, tail = w[:pos1 + 1], w[pos1 + 1:]
            steps = [a - b for a, b in zip(head, head[1:])]
            shape = (all(s in (1, 2) for s in steps)
                     and all(s == 2 for s in steps[:-1])
                     and (not steps or steps[-1] != 1 or head[-2:] == (2, 1))
                     and (not tail or tail[0] in (2, 3))
                     and list(tail) == sorted(tail))
            out.append(_check(f"shape {w}", shape, "prefix/suffix shape violated"))
    return out


def suite_max_second(n_max: int) -> list[Result]:
    """Dropping the top two entries bijects max-second members onto the
    max-first family two sizes down."""
    from . import bruteforce, m2
    bruteforce._check_args(n_max, 2)
    out = []
    for n in range(3, n_max + 1):
        oracle = [w for w in bruteforce.members(n, 2) if w[1] == n]
        small = sorted(m2.max_first_perms(n - 2))
        out.append(_check(
            f"heads n={n}", all(w[:3] == (n - 1, n, n - 2) for w in oracle),
            "some member does not start n-1, n, n-2"))
        try:  # a word the map refuses has no image
            mapped = sorted(m2.to_max_first(w) for w in oracle)
            image, detail = mapped == small, f"image size {len(mapped)} vs {len(small)}"
        except ValueError as exc:
            image, detail = False, f"image refused: {exc}"
        out.append(_check(f"image n={n}", image, detail))
        try:  # a map that refuses the other's output has no round trip
            inverse = (all(m2.to_max_second(m2.to_max_first(w), n) == w for w in oracle)
                       and all(m2.to_max_first(m2.to_max_second(w, n)) == w for w in small))
            detail = "maps are not inverse"
        except ValueError as exc:
            inverse, detail = False, f"maps are not inverse: {exc}"
        out.append(_check(f"inverse n={n}", inverse, detail))
    return out


def suite_max_first(n_max: int) -> list[Result]:
    """Recursive construction of max-first members matches the oracle; the
    excluded second/third-entry pattern never occurs; the zigzag is pinned
    down by its first three entries."""
    from . import bruteforce, m2
    bruteforce._check_args(n_max, 2)
    out = []
    for n in range(1, n_max + 1):
        built = m2.max_first_perms(n)
        oracle = sorted(w for w in bruteforce.members(n, 2) if w[0] == n)
        out.append(_check(f"set equality n={n}", sorted(built) == oracle,
                          f"built {len(built)}, oracle {len(oracle)}"))
        out.append(_check(f"count n={n}", len(oracle) == m2.max_first_count(n),
                          f"oracle {len(oracle)}, closed {m2.max_first_count(n)}"))
        if n >= 5:
            blocked = [w for w in oracle if w[1] == n - 2 and w[2] == n - 3]
            out.append(_check(f"blocked signature n={n}", not blocked,
                              f"{blocked[:3]} start n, n-2, n-3"))
        if n >= 4:
            z = m2.zigzag(n)
            twins = [w for w in oracle if (w[1], w[2]) == (z[1], z[2])]
            out.append(_check(f"zigzag unique n={n}", twins == [z],
                              f"members sharing the zigzag head: {twins}"))
    return out


def suite_split(n_max: int) -> list[Result]:
    """Three-way split by maximum position is exhaustive and the family
    sizes assemble the total; left block dominates right block.  One walk
    of the oracle per n gives the census, the total and the separation."""
    from . import bruteforce, core, m2
    bruteforce._check_args(n_max, 2)
    out = []
    for n in range(3, n_max + 1):
        words = bruteforce.members(n, 2)
        census = Counter(w.index(n) + 1 for w in words)
        first, second, last = census[1], census[2], census[n]
        out.append(_check(f"totals n={n}", first + second + last == len(words),
                          f"{first}+{second}+{last} != {len(words)}"))
        out.append(_check(
            f"closed sizes n={n}",
            (first, second, last) == (m2.max_first_count(n), m2.max_second_count(n), n - 1),
            f"oracle {(first, second, last)}"))
        separated = True
        for w in words:
            piece = core.split_at_max(w)
            if piece.left and piece.right and min(piece.left) <= max(piece.right):
                separated = False
        out.append(_check(f"separation n={n}", separated, "left does not dominate right"))
    return out


def suite_gf(n_max: int) -> list[Result]:
    """The assembled rational function is reduced and correct, and its
    series agrees with the closed and recurrence routes at every n <= N."""
    from . import genfunc, m2
    out = []
    A = genfunc.gf_m2()
    B = genfunc.gf_max_first()
    out.append(_check("reduced", genfunc.poly_gcd(A.numerator, A.denominator) == (1,),
                      "numerator and denominator share a factor"))
    out.append(_check(
        "denominator", A.denominator == (1, -3, 3, -2, 2, -1),
        f"got {A.denominator}"))
    assembled = genfunc.gf_add(
        genfunc.RationalGF(genfunc.poly_mul((1, 0, 1), B.numerator), B.denominator),
        genfunc.RationalGF((0, 0, 1), genfunc.poly_mul((1, -1), (1, -1))))
    out.append(_check("assembly", assembled == A, "pieces do not assemble"))
    # the series against both n-th term routes at every n, one term at a time
    closed_ok = rec_ok = True
    for n, s in enumerate(islice(genfunc.series_stream(A), 1, n_max + 1), start=1):
        closed_ok = closed_ok and s == m2.class_count(n)
        rec_ok = rec_ok and s == m2.class_count_by_recurrence(n)
    out.append(_check("series vs closed", closed_ok, "series drifts from closed form"))
    out.append(_check("series vs recurrence", rec_ok, "series drifts from recurrence"))
    return out


def suite_asymptotics(n_max: int) -> list[Result]:
    """Growth constants are mutually consistent and the leading term closes
    in on the exact counts."""
    from . import asymptotics, genfunc
    out = []
    # the root estimate() reads, checked before AsymptoticEstimate would refuse it
    alpha = asymptotics.dominant_root(asymptotics.gf_m2())
    rho = 1.0 / alpha
    out.append(_check("residual", abs(1 - rho - rho**3) < 1e-12, f"rho={rho!r}"))
    # rho on its own, by bisection of the literal cubic, which falls from 1 to -1 on [0, 1]
    lo, hi = 0.0, 1.0
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if genfunc.poly_eval((1, -1, 0, -1), mid) > 0 else (lo, mid)
    out.append(_check("reciprocal", abs(alpha * lo - 1) < 1e-12,
                      f"alpha * rho = {alpha * lo!r} for the root rho={lo!r} of 1 - x - x^3"))
    out.append(_check("cubic", abs(alpha**3 - alpha**2 - 1) < 1e-10, "alpha cubic fails"))
    root = genfunc.dominant_root(genfunc.gf_max_first())  # a separate derivation
    out.append(_check("char root", abs(root - alpha) < 1e-9,
                      f"max-first char poly root {root!r} vs alpha {alpha!r}"))
    if not all(ok for _, ok, _ in out):
        return out
    rows = asymptotics.convergence_report(max(100, min(n_max, 10**4)))
    by_n = {r.n: r for r in rows}
    out.append(_check("rel error n=60", by_n[60].rel_error < 1e-3,
                      f"{by_n[60].rel_error:.3e}"))
    out.append(_check("rel error n=100", by_n[100].rel_error < 1e-6,
                      f"{by_n[100].rel_error:.3e}"))
    tail = [r.rel_error for r in rows if r.n >= 20]
    monotone = all(b < a or a < 1e-11 for a, b in zip(tail, tail[1:]))
    out.append(_check("error shrinks", monotone, "relative error is not decreasing"))
    return out


SUITES = {
    "max-position": suite_max_position,
    "max-last": suite_max_last,
    "max-second": suite_max_second,
    "max-first": suite_max_first,
    "split": suite_split,
    "gf": suite_gf,
    "asymptotics": suite_asymptotics,
    "transfer": suite_transfer,
}


# The suites that take a jump bound; every other one checks m = 2 only.
BOUNDED = ("max-position", "transfer")

# The smallest n_max at which a suite checks anything; the others start at 1.
SMALLEST_N = {"max-last": 2, "max-second": 3, "split": 3}


def run_suite(name: str, n_max: int, m: int | None = None) -> list[Result]:
    """Run one suite.  ``m`` picks the jump bound of a suite in BOUNDED,
    which is handed its list of bounds (None sweeps 1..4); the other
    suites accept only None or 2.  An ``n_max`` below the suite's
    SMALLEST_N would check nothing, so it is refused."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    smallest = SMALLEST_N.get(name, 1)
    if n_max < smallest:
        raise ValueError(f"suite {name!r} checks nothing below N={smallest}, got N={n_max}")
    if name in BOUNDED:
        return SUITES[name](n_max, [m] if m is not None else [1, 2, 3, 4])
    if m not in (None, 2):
        raise ValueError(f"suite {name!r} checks m = 2 only, got m={m}; "
                         f"only {' and '.join(BOUNDED)} take a bound")
    return SUITES[name](n_max)
