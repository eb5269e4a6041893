#!/usr/bin/env python3
"""Eigenvalues and polynomial factors for the Davidson-potential equation
over a grid of mu values."""

from fractions import Fraction

from polyode.applications import davidson_eigenvalue, davidson_spec
from polyode.cli import MAX_DEGREE, RationalParser, analyze_check, fraction


def main() -> None:
    parser = RationalParser(description=__doc__)
    parser.add_argument("--mu", type=fraction, nargs="*",
                        default=[Fraction(0), Fraction(1, 2), Fraction(1)])
    parser.add_argument("--max-nodes", type=int, default=3)
    args = parser.parse_args()
    if args.max_nodes < 0:
        parser.error(f"--max-nodes must be nonnegative, got {args.max_nodes}")
    if args.max_nodes > MAX_DEGREE:
        parser.error(f"--max-nodes is at most {MAX_DEGREE}, got {args.max_nodes}")

    for mu in args.mu:
        print(f"mu = {mu}:")
        for nodes in range(args.max_nodes + 1):
            eps = davidson_eigenvalue(mu, nodes)
            degree = 2 * nodes
            report = analyze_check(davidson_spec(mu, eps), [degree], "both")[0]
            polynomials = ", ".join(s["polynomial"] for s in report["solutions"])
            print(f"  nodes={nodes} degree={degree} eps={eps} "
                  f"aim_index={report['aim']['found_index']}: {polynomials}")
    print("every polynomial above carries an exact residual certificate")


if __name__ == "__main__":
    main()
