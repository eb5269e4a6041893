"""Exact asymptotic-iteration test for polynomial solutions.

Writing the equation as y'' = lambda_0(x) y' + s_0(x) y with

    lambda_0 = -P2 / P3,        s_0 = P1 / P3,

where P3, P2, P1 are the y'', y', y coefficient polynomials (P1 enters
positively because the equation subtracts the zeroth-order term), iterate

    lambda_n = lambda_{n-1}' + s_{n-1} + lambda_0 lambda_{n-1}
    s_n      = s_{n-1}'      + s_0 lambda_{n-1}.

A polynomial solution of degree n forces delta_n = lambda_n s_{n-1} -
lambda_{n-1} s_n to vanish identically; conversely delta_n = 0 with
lambda_n lambda_{n-1} != 0 guarantees a polynomial solution of degree at
most n.

Instead of reduced rational functions, lambda_n and s_n are carried as
polynomial numerators over the implicit common denominator (D P3)^(n+1),
with D the common denominator of the equation's integer form
(``integer_form``), so that every coefficient is an integer:

    L_n = L_{n-1}' DP3 - n L_{n-1} DP3' + S_{n-1} DP3 - DP2 L_{n-1}
    S_n = S_{n-1}' DP3 - n S_{n-1} DP3' + DP1 L_{n-1}

with L_0 = -DP2 and S_0 = DP1, where DP3 = D P3 and so on.  Multiplying
P3, P2 and P1 by D leaves lambda_0 and s_0 unchanged.  This keeps every
step linear in polynomial operations and avoids gcd computation.  The
numerator of delta_n over (D P3)^(2n+1) is L_n S_{n-1} - L_{n-1} S_n,
and since P3 is not identically zero, the numerator vanishes identically
exactly when delta_n does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .criteria import EquationSpec
from .exactalg import UPoly


class NotSecondOrderError(ValueError):
    """The y'' coefficient polynomial is identically zero."""


@dataclass(frozen=True)
class AimState:
    """Iteration index n with the numerators L, S of lambda_n, s_n over
    the implicit denominator (D P3)^(n+1)."""

    n: int
    L: UPoly
    S: UPoly


def _coefficients(eq: EquationSpec) -> tuple[UPoly, UPoly, UPoly]:
    """D P3, D P2, D P1 in ascending powers of x: the integer form."""
    if not eq.is_numeric:
        raise ValueError("equation carries an unknown parameter")
    _, ((a30, a31, a32, a33, a20, a21, a22, t10, t11),) = eq.integer_form
    p3 = UPoly((a33, a32, a31, a30))
    if not p3:
        raise NotSecondOrderError("y'' coefficient is identically zero")
    return p3, UPoly((a22, a21, a20)), UPoly((t11, t10))


def aim_init(eq: EquationSpec) -> AimState:
    """State at n = 0: L_0 = -D P2, S_0 = D P1."""
    p3, p2, p1 = _coefficients(eq)
    return AimState(n=0, L=-p2, S=p1)


def aim_iterate(state: AimState, eq: EquationSpec) -> AimState:
    """Advance one iteration by the cleared-denominator recurrence, to the
    numerators over (D P3)^(n+1)."""
    p3, p2, p1 = _coefficients(eq)
    n = state.n + 1
    p3d = p3.derivative()
    L = state.L.derivative() * p3 - n * state.L * p3d + state.S * p3 - p2 * state.L
    S = state.S.derivative() * p3 - n * state.S * p3d + p1 * state.L
    # degree growth is at most linear: one factor of max(deg P3, deg P2, deg P1)
    # per iteration
    bound = (n + 1) * max(len(p3.coeffs), len(p2.coeffs), len(p1.coeffs), 1)
    if len(L.coeffs) > bound + 1 or len(S.coeffs) > bound + 1:
        raise ArithmeticError(f"AIM numerators exceed the degree bound {bound}")
    return AimState(n=n, L=L, S=S)


def aim_delta(prev: AimState, cur: AimState) -> UPoly:
    """Numerator of delta_n = lambda_n s_{n-1} - lambda_{n-1} s_n over the
    positive denominator power; identically zero iff delta_n is."""
    return cur.L * prev.S - prev.L * cur.S


def default_iteration_cap(degree: int) -> int:
    """Conservative cap: detection is guaranteed by the solution degree, the
    slack absorbs the off-by-one between iteration index and degree."""
    return 2 * degree + 4


def aim_test_polynomial(eq: EquationSpec, n_max: int) -> Optional[int]:
    """Smallest iteration index n in 1..n_max with delta_n identically zero
    and lambda_n, lambda_{n-1} both nonzero; None when no index qualifies.

    The nonvanishing guard is required for the converse direction: without
    it a vanishing delta_n does not certify a polynomial solution.
    """
    state = aim_init(eq)
    for _ in range(n_max):
        nxt = aim_iterate(state, eq)
        if nxt.L and state.L and not aim_delta(state, nxt):
            return nxt.n
        state = nxt
    return None
