#!/usr/bin/env python3
"""Record the benchmark's reference outputs in ``refs.json``.

Run from the repository root when an intended output change lands:

    PYTHONPATH=src python3 bench/make_refs.py

``run.py`` only reads the file; it never regenerates it from the code under
test.  The numbers are derived here without permlip:

* class sizes for small n from a block decomposition (a 132-avoider is
  alpha, max, beta with alpha above beta), tracking first and last entries
  so the jump bound can be checked at the joins;
* m = 2 terms to large n from the order-5 recurrence seeded by that
  decomposition, after checking the two agree to n = 40;
* Catalan numbers from binomials, checked against the decomposition at
  m = n - 1;
* the growth constants from the cubic x^3 = x^2 + 1 in 60-digit decimals,
  the amplitude as a(n) / alpha^n at n = 400.

The CLI's stdout is recorded from the CLI, after every count, sequence and
probe term in it has been checked against the numbers above.
"""

import decimal
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PAPER_M2_FIRST_TEN = [1, 2, 5, 8, 12, 18, 26, 37, 53, 76]


def block_counts(n_max, m):
    """Class sizes for lengths 1..n_max at jump bound m."""
    # table[L][(first, last)] counts members of length L by end values
    table = [None, {(1, 1): 1}]
    for length in range(2, n_max + 1):
        out = {}
        for a in range(length):  # a = len(alpha), b = len(beta)
            b = length - 1 - a
            # alpha holds values b+1..length-1 and must end within m of the max;
            # beta holds 1..b and must start within m of it
            left = {}
            if a == 0:
                left[length] = 1
            else:
                for (f, l), c in table[a].items():
                    if length - (l + b) <= m:
                        left[f + b] = left.get(f + b, 0) + c
            right = {}
            if b == 0:
                right[length] = 1
            else:
                for (f, l), c in table[b].items():
                    if length - f <= m:
                        right[l] = right.get(l, 0) + c
            for first, cl in left.items():
                for last, cr in right.items():
                    out[first, last] = out.get((first, last), 0) + cl * cr
        table.append(out)
    return [sum(table[n].values()) for n in range(1, n_max + 1)]


def m2_terms(n_max):
    terms = block_counts(6, 2)
    c = jobs.M2_RECURRENCE
    while len(terms) < n_max:
        terms.append(sum(ci * terms[-1 - i] for i, ci in enumerate(c)))
    return terms


def digest(value):
    return hashlib.sha256(str(value).encode()).hexdigest()


def constants():
    decimal.getcontext().prec = 60
    D = decimal.Decimal
    alpha = D("1.5")
    for _ in range(200):
        alpha -= (alpha**3 - alpha**2 - 1) / (3 * alpha**2 - 2 * alpha)
    n = 400
    amplitude = D(m2_terms(n)[-1]) / alpha**n
    return {"rho": float(1 / alpha), "alpha": float(alpha), "amplitude": float(amplitude)}


def expected_values(argv, m2, catalan):
    """Independent value list for a count or seq invocation."""
    words = argv.split()
    opts = dict(zip(words[1::2], words[2::2]))
    m = int(opts["-m"])

    def value(n):
        if m == 1:
            return 1 if n == 1 else 2
        if m == 2:
            return m2[n - 1]
        if m >= n - 1:
            return catalan[n - 1]
        return block_counts(n, m)[-1]

    if words[0] == "count":
        return [value(int(opts["-n"]))]
    return [value(n) for n in range(1, int(opts["-N"]) + 1)]


def parsed_values(argv, stdout):
    if argv.startswith("count"):
        return [int(stdout)]
    if "--format json" in argv:
        return [int(t) for t in json.loads(stdout)["terms"]]
    lines = stdout.splitlines()
    if "--format csv" in argv:
        return [int(line.split(",")[1]) for line in lines]
    if "--format bfile" in argv:
        return [int(line.split()[1]) for line in lines]
    return [int(line) for line in lines]


def cross_check(argv, want_exit, code, stdout, m2, catalan, const):
    assert code == want_exit, (argv, code)
    if code != 0:
        assert stdout == "", argv
    elif argv.startswith(("count", "seq")):
        assert parsed_values(argv, stdout) == expected_values(argv, m2, catalan), argv
    elif argv.startswith("verify"):
        assert all(line.startswith("PASS ") for line in stdout.splitlines()), argv
    elif argv == "asym":
        got = json.loads(stdout)
        for key, name in (("rho", "rho"), ("alpha", "alpha"), ("C", "amplitude")):
            assert math.isclose(got[key], const[name], rel_tol=1e-12), (key, got[key])
    elif argv.startswith("asym --convergence"):
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        assert [int(r[1]) for r in rows] == m2[:len(rows)], argv
    elif argv.startswith("probe"):
        got = json.loads(stdout)
        assert [int(t) for t in got["terms"]] == block_counts(got["n_max"], got["m"]), argv
    else:
        raise AssertionError(f"no cross-check for {argv}")


def main():
    sys.set_int_max_str_digits(0)
    m2 = m2_terms(jobs.M2_N)
    assert block_counts(40, 2) == m2[:40]
    assert PAPER_M2_FIRST_TEN == m2[:10]
    catalan = [math.comb(2 * n, n) // (n + 1) for n in range(1, 31)]
    assert block_counts(12, 11) == catalan[:12]
    assert all(block_counts(n, n - 1)[-1] == catalan[n - 1] for n in range(2, 12))
    const = constants()

    env = {k: v for k, v in os.environ.items() if k != "PERMLIP_CEILING"}
    env["PYTHONPATH"] = str(ROOT / "src")
    cli = {}
    for argv, want_exit in jobs.CLI_SESSION:
        proc = subprocess.run([sys.executable, "-m", "permlip", *argv.split()], cwd=ROOT,
                              env=env, capture_output=True, check=False)
        stdout = proc.stdout.decode()
        cross_check(argv, want_exit, proc.returncode, stdout, m2, catalan, const)
        cli[argv] = {"exit": proc.returncode, "stdout": stdout}

    refs = {
        "m2_first_ten_paper": [str(t) for t in PAPER_M2_FIRST_TEN],
        "m2_terms": [str(t) for t in m2[:jobs.M2_FIT_TERMS]],
        "catalan": [str(t) for t in catalan],
        "probe_terms": {f"{m},{n}": [str(t) for t in block_counts(n, m)]
                        for m, n in jobs.PROBE_POINTS},
        "digests": {str(n): digest(m2[n - 1])
                    for n in (jobs.M2_N, jobs.SERIES_COUNT - 1, jobs.CONVERGENCE_N)},
        "constants": const,
        "cli": cli,
    }
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
