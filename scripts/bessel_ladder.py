#!/usr/bin/env python3
"""Generate the Bessel polynomial family two independent ways and compare.

The ladder route uses the two-step recurrence of the quadratic-coefficient
class; the matrix route is the degree-n report of ``polyode check``.
Agreement up to scale is checked at every degree, and tabulated; a
disagreement exits with its message.
"""

import argparse
import time

from polyode.cli import MAX_DEGREE, analyze_check
from polyode.criteria import classical_polynomials, classical_tau, embed_classical
from polyode.exactalg import UPoly


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=10)
    args = parser.parse_args()
    if args.max_n < 0:
        parser.error(f"--max-n must be nonnegative, got {args.max_n}")
    if args.max_n > MAX_DEGREE:
        parser.error(f"--max-n is at most {MAX_DEGREE}, got {args.max_n}")

    start = time.perf_counter()
    ladder = classical_polynomials((1, 0, 0), (2, 2), args.max_n + 1)
    print(f"{'n':>3}  {'tau00':>6}  {'aim':>4}  polynomial (ladder form)")
    for n, y in enumerate(ladder):
        tau = classical_tau(1, 2, n)
        report = analyze_check(embed_classical((1, 0, 0), (2, 2), tau), [n], "both")[0]
        built = [UPoly(s["coefficients"]) for s in report["solutions"]]
        if len(built) != 1 or built[0] * y.leading != y * built[0].leading:
            raise SystemExit(f"ladder and matrix constructions disagree at n={n}")
        print(f"{n:>3}  {str(tau):>6}  {report['aim']['found_index']!s:>4}  {y.format()}")
    print(f"all degrees agree up to scale ({time.perf_counter() - start:.3f}s)")


if __name__ == "__main__":
    main()
