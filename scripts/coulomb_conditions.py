#!/usr/bin/env python3
"""Tabulate the shifted-Coulomb polynomial-solution conditions.

First the constraint polynomials in t = alpha*beta with the angular constant
k carried symbolically, then a fully numeric example: admissible shifts and
the exact energy for a chosen (Z, d, l).
"""

import argparse

from polyode.applications import (
    CoulombProblem,
    coulomb_alpha,
    coulomb_constraint,
    coulomb_constraint_in_k,
    coulomb_energy,
    coulomb_equation,
)
from polyode.cli import fraction
from polyode.criteria import build_criterion_matrix, construct_solution
from polyode.solve import analyze_roots


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--Z", type=fraction, default="1")
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--l", type=int, default=0)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()
    try:
        problem = CoulombProblem(Z=args.Z, beta=1, d=args.d, l=args.l)
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
        alpha = coulomb_alpha(problem, n)
        constraint = coulomb_constraint(problem, n)
        report = analyze_roots(constraint)
        energy = coulomb_energy(problem, n)
        print(f"  n={n}: alpha={alpha}, E={energy}, "
              f"constraint={constraint.format(var='t')}")
        print(f"        real roots ~ {[round(r, 9) for r in report.refined]}")
        # the equation in the unknown beta, its band checked against the
        # closed forms; each positive shift beta = t / alpha fixes it
        equation = coulomb_equation(problem, n)
        for beta in (root / alpha for root in report.exact_rational_roots):
            if beta <= 0:
                continue
            fixed = equation.substitute(beta)
            sol = construct_solution(fixed, build_criterion_matrix(fixed, n))
            print(f"        beta={beta}: f(r) = {sol.polynomial().format(var='r')} "
                  f"(verified={sol.residual_is_zero})")


if __name__ == "__main__":
    main()
