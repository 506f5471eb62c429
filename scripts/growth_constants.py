#!/usr/bin/env python3
"""Profile empirical growth across a range of jump bounds.

Prints one row per bound (counts tail, fitted recurrence if any, growth
estimate) followed by the termwise-monotonicity verdict and the soft
growth-rate observations.  Exits nonzero only if counts ever drop as the
bound loosens, which would falsify the one hard claim.
"""

import argparse
import sys

from permlip.probe import build_profile, monotonicity_check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m-max", type=int, default=4,
                        help="largest jump bound to profile (default 4)")
    parser.add_argument("-N", "--n-max", type=int, default=12,
                        help="lengths 1..N fed to the transfer-matrix counter (default 12)")
    parser.add_argument("--ceiling", type=int, default=None,
                        help="override the brute-force length ceiling")
    args = parser.parse_args(argv)

    profiles = [build_profile(m, args.n_max, args.ceiling)
                for m in range(1, args.m_max + 1)]

    for p in profiles:
        tail = ", ".join(str(t) for t in p.terms[-4:])
        if p.fitted is not None:
            coeffs = ", ".join(str(c) for c in p.fitted.coefficients)
            fit = f"order {p.fitted.order} [{coeffs}] from n={p.fitted.valid_from}"
        else:
            fit = "no recurrence found"
        alpha = "n/a" if p.alpha_estimate is None else f"{p.alpha_estimate:.6f}"
        print(f"m={p.m}  ...{tail}  {fit}  alpha~{alpha} ({p.estimate_method})")

    report = monotonicity_check(profiles)
    print()
    if report.termwise_ok:
        print(f"counts never drop as the bound loosens (checked n <= {report.n_max})")
    else:
        for lo, hi, n, a, b in report.termwise_failures:
            print(f"VIOLATION: count({n}, {lo}) = {a} > {b} = count({n}, {hi})")
    if report.alphas_strictly_increasing is not None:
        print(f"growth estimates strictly increasing: {report.alphas_strictly_increasing}"
              f"; all below 4: {report.alphas_below_catalan_limit}"
              " (observations, not guarantees)")
    return 0 if report.termwise_ok else 1


if __name__ == "__main__":
    sys.exit(main())
