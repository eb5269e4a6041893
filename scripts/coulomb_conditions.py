#!/usr/bin/env python3
"""Tabulate the shifted-Coulomb polynomial-solution conditions.

First the constraint polynomials in t = alpha*beta with the angular constant
k carried symbolically, then a fully numeric example: admissible shifts and
the exact energy for a chosen (Z, d, l), from the report of
``polyode demo coulomb``.
"""

from polyode.applications import CoulombProblem, coulomb_constraint_in_k
from polyode.cli import MAX_DEGREE, RationalParser, coulomb_report, fraction
from polyode.exactalg import format_polynomial


def main() -> None:
    parser = RationalParser(description=__doc__)
    parser.add_argument("--Z", type=fraction, default="1")
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--l", type=int, default=0)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()
    if args.max_n < 0:
        parser.error(f"--max-n must be nonnegative, got {args.max_n}")
    if args.max_n > MAX_DEGREE:
        parser.error(f"--max-n is at most {MAX_DEGREE}, got {args.max_n}")
    try:
        problem = CoulombProblem(Z=args.Z, d=args.d, l=args.l)
    except ValueError as exc:
        parser.error(str(exc))

    print("symbolic constraints in t = alpha*beta (coefficients in k):")
    for n in range(1, args.max_n + 1):
        terms = ", ".join(
            f"t^{i}: {c.format(var='k')}" for i, c in enumerate(coulomb_constraint_in_k(n))
        )
        print(f"  n={n}: {terms}")

    print(f"\nnumeric case Z={args.Z} d={args.d} l={args.l} (k={problem.k}):")
    for n in range(1, args.max_n + 1):
        report = coulomb_report(problem, n)
        print(f"  n={n}: alpha={report['alpha']}, E={report['energy']}, "
              f"constraint={format_polynomial(report['constraint'], 't')}")
        print(f"        real roots ~ {[round(r, 9) for r in report['roots']['roots']]}")
        for sol in report["solutions"]:
            print(f"        beta={sol['beta']}: "
                  f"f(r) = {format_polynomial(sol['coefficients'], 'r')} "
                  f"(verified={sol['verified']})")


if __name__ == "__main__":
    main()
