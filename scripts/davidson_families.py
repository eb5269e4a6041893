#!/usr/bin/env python3
"""Eigenvalues and polynomial factors for the Davidson-potential equation
over a grid of mu values."""

import argparse
from fractions import Fraction

from polyode.aim import aim_test_polynomial, default_iteration_cap
from polyode.applications import davidson_eigenvalue, davidson_spec
from polyode.cli import fraction
from polyode.criteria import build_criterion_matrix, construct_solution


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mu", type=fraction, nargs="*",
                        default=[Fraction(0), Fraction(1, 2), Fraction(1)])
    parser.add_argument("--max-nodes", type=int, default=3)
    args = parser.parse_args()

    for mu in args.mu:
        print(f"mu = {mu}:")
        for nodes in range(args.max_nodes + 1):
            eps = davidson_eigenvalue(mu, nodes)
            eq = davidson_spec(mu, eps)
            degree = 2 * nodes
            sol = construct_solution(eq, build_criterion_matrix(eq, degree))
            index = aim_test_polynomial(eq, default_iteration_cap(degree))
            print(f"  nodes={nodes} degree={degree} eps={eps} "
                  f"aim_index={index}: {sol.polynomial().format()}")
    print("every polynomial above carries an exact residual certificate")


if __name__ == "__main__":
    main()
