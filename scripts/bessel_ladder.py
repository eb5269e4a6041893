#!/usr/bin/env python3
"""Generate the Bessel polynomial family two independent ways and compare.

The ladder route uses the two-step recurrence of the quadratic-coefficient
class; the matrix route solves the banded criterion system at each degree.
Agreement up to scale is checked at every degree, and tabulated; a
disagreement exits with its message.
"""

import argparse
import time

from polyode.criteria import (
    build_criterion_matrix,
    classical_polynomials,
    classical_tau,
    construct_solution,
    embed_classical,
)
from polyode.aim import aim_test_polynomial, default_iteration_cap


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=10)
    args = parser.parse_args()

    start = time.perf_counter()
    ladder = classical_polynomials((1, 0, 0), (2, 2), args.max_n + 1)
    print(f"{'n':>3}  {'tau00':>6}  {'aim':>4}  polynomial (ladder form)")
    for n, y in enumerate(ladder):
        tau = classical_tau(1, 2, n)
        eq = embed_classical((1, 0, 0), (2, 2), tau)
        built = construct_solution(eq, build_criterion_matrix(eq, n))
        same = built.polynomial() * y.leading == y * built.polynomial().leading
        if not same:
            raise SystemExit(f"ladder and matrix constructions disagree at n={n}")
        index = aim_test_polynomial(eq, default_iteration_cap(n))
        print(f"{n:>3}  {str(tau):>6}  {index!s:>4}  {y.format()}")
    print(f"all degrees agree up to scale ({time.perf_counter() - start:.3f}s)")


if __name__ == "__main__":
    main()
