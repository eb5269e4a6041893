from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyode.aim import (
    AimState,
    NotSecondOrderError,
    aim_delta,
    aim_init,
    aim_iterate,
    aim_test_polynomial,
    default_iteration_cap,
)
from polyode.criteria import EquationSpec, classical_tau, embed_classical
from polyode.exactalg import UPoly, poly_gcd

from bandforms import coefficient_polynomials


def davidson_eq(mu, eps):
    mu = Fraction(mu)
    return EquationSpec(
        a3=(0, 0, 1, 0),
        a2=(-2, 0, 2 * (mu + 1)),
        tau=(2 * mu + 3 - Fraction(eps), 0),
    )


def bessel_eq(tau00):
    return embed_classical((1, 0, 0), (2, 2), tau00)


# ---------------------------------------------------------------------------
# initialization

def test_init_davidson():
    mu, eps = Fraction(1), Fraction(4)
    state = aim_init(davidson_eq(mu, eps))
    assert state.n == 0
    assert state.L == UPoly([-2 * (mu + 1), 0, 2])
    assert state.S == UPoly([0, 2 * mu + 3 - eps])


def test_init_bessel():
    state = aim_init(bessel_eq(6))
    assert state.L == UPoly([-2, -2])
    assert state.S == UPoly([6])


def test_init_not_second_order():
    eq = EquationSpec(a3=(0, 0, 0, 0), a2=(0, 1, 0), tau=(0, 1))
    with pytest.raises(NotSecondOrderError):
        aim_init(eq)


# ---------------------------------------------------------------------------
# iteration

def test_iterate_y_equals_ypp():
    # y'' = y, written as y'' - (1) y = 0: P3 = 1, P2 = 0, P1 = 1,
    # so L_0 = 0, S_0 = 1 and one step gives L_1 = 1, S_1 = 0
    eq = EquationSpec(a3=(0, 0, 0, 1), a2=(0, 0, 0), tau=(0, 1))
    s0 = aim_init(eq)
    assert (s0.L, s0.S) == (UPoly(), UPoly([1]))
    s1 = aim_iterate(s0, eq)
    assert (s1.L, s1.S) == (UPoly([1]), UPoly())


def test_delta_zero_guard_degenerate():
    # y'' = 0: every L, S is zero, delta vanishes but the guard rejects it
    eq = EquationSpec(a3=(0, 0, 0, 1), a2=(0, 0, 0), tau=(0, 0))
    s0 = aim_init(eq)
    s1 = aim_iterate(s0, eq)
    assert aim_delta(s0, s1) == UPoly()
    assert not s0.L and not s1.L
    assert aim_test_polynomial(eq, 6) is None


def test_delta_davidson_matching_eigenvalue():
    mu = Fraction(0)
    eq = davidson_eq(mu, 2 * mu + 7)  # eigenvalue for degree-2 solutions
    found = aim_test_polynomial(eq, default_iteration_cap(2))
    assert found == 2


def test_delta_davidson_generic_eps_nonzero():
    eq = davidson_eq(0, 0)
    s_prev = aim_init(eq)
    s_cur = aim_iterate(s_prev, eq)
    deltas = []
    for _ in range(5):
        deltas.append(aim_delta(s_prev, s_cur))
        s_prev, s_cur = s_cur, aim_iterate(s_cur, eq)
    assert all(d != 0 for d in deltas)


# ---------------------------------------------------------------------------
# polynomial detection

def test_bessel_tau6_detected_at_2():
    assert aim_test_polynomial(bessel_eq(6), 8) == 2


def test_bessel_tau5_not_found():
    assert aim_test_polynomial(bessel_eq(5), 8) is None


def test_davidson_eigenvalues_detected():
    for mu in (0, Fraction(1, 2), 1):
        for n_nodes in range(4):
            degree = 2 * n_nodes
            eps = 2 * Fraction(mu) + 3 + 4 * n_nodes
            found = aim_test_polynomial(
                davidson_eq(mu, eps), default_iteration_cap(degree)
            )
            assert found is not None and found <= max(degree, 1)


def test_default_iteration_cap():
    assert default_iteration_cap(3) == 10


def test_iterate_rejects_numerators_beyond_degree_bound():
    # a state that no iteration from aim_init can reach: L of degree 10
    # while the bound after one step of the Bessel equation is 6
    state = AimState(n=0, L=UPoly([0] * 10 + [1]), S=UPoly([1]))
    with pytest.raises(ArithmeticError, match="degree bound"):
        aim_iterate(state, bessel_eq(6))


# ---------------------------------------------------------------------------
# denominator exactness: the cleared recurrence equals direct
# rational-function iteration on small cases

class RationalFunction:
    """Minimal exact rational-function arithmetic for the oracle."""

    def __init__(self, num: UPoly, den: UPoly):
        if not den:
            raise ZeroDivisionError
        g = poly_gcd(num, den)
        if g and not g.is_constant:
            num, den = num / g, den / g
        self.num, self.den = num, den

    def __add__(self, other):
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def derivative(self):
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def equals(self, num: UPoly, den: UPoly) -> bool:
        return self.num * den == num * self.den


def test_cleared_recurrence_matches_rational_functions():
    cases = [
        davidson_eq(0, 7),
        bessel_eq(6),
        EquationSpec(a3=(0, 1, -1, 0), a2=(1, 2, 0), tau=(-1, 1)),
        davidson_eq(Fraction(1, 2), Fraction(7, 3)),  # D = 3
    ]
    for eq in cases:
        p3, p2, p1 = coefficient_polynomials(eq)
        # the numerators are over (D P3)^(n+1), D the least common
        # denominator of the nine coefficients
        scale = lcm(*(c.denominator for p in (p3, p2, p1) for c in p.coeffs))
        lam = RationalFunction(-p2, p3)
        s = RationalFunction(p1, p3)
        lam0, s0 = lam, s
        state = aim_init(eq)
        for _ in range(3):
            state = aim_iterate(state, eq)
            lam, s = (
                lam.derivative() + s + lam0 * lam,
                s.derivative() + s0 * lam,
            )
            den = (scale * p3) ** (state.n + 1)
            assert lam.equals(state.L, den)
            assert s.equals(state.S, den)


# ---------------------------------------------------------------------------
# scaling invariance of delta

def test_delta_proportional_under_equation_scaling():
    eq = davidson_eq(Fraction(1, 2), 3)
    scaled = EquationSpec(
        a3=tuple(3 * s for s in eq.a3),
        a2=tuple(3 * s for s in eq.a2),
        tau=tuple(3 * s for s in eq.tau),
    )
    s_prev, t_prev = aim_init(eq), aim_init(scaled)
    s_cur, t_cur = aim_iterate(s_prev, eq), aim_iterate(t_prev, scaled)
    for _ in range(4):
        d1 = aim_delta(s_prev, s_cur)
        d2 = aim_delta(t_prev, t_cur)
        # proportional: cross-multiplication by leading coefficients agrees
        assert d1 * d2.leading == d2 * d1.leading
        s_prev, s_cur = s_cur, aim_iterate(s_cur, eq)
        t_prev, t_cur = t_cur, aim_iterate(t_cur, scaled)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=9, max_size=9), st.integers(0, 4), st.booleans(),
       rationals.filter(bool))
def test_index_is_unchanged_when_the_equation_is_scaled(coefficients, n, planted, factor):
    """AIM reads the integer form, D times the nine coefficients; scaling
    the equation by any nonzero rational changes D and those ints, but
    neither lambda_0 = -P2/P3 nor s_0 = P1/P3, so not the first qualifying
    index either.  A planted equation is of the quadratic-coefficient class
    (a30 = a20 = t10 = 0) with its level-0 degree condition set at n, so
    that an index is found in most draws."""
    a30, a31, a32, a33, a20, a21, a22, t10, t11 = coefficients
    if planted:
        a30 = a20 = t10 = 0
        t11 = n * (n - 1) * a31 + n * a21
    assume(any((a30, a31, a32, a33)))  # AIM needs a y'' term
    eq = EquationSpec(a3=(a30, a31, a32, a33), a2=(a20, a21, a22), tau=(t10, t11))
    scaled = EquationSpec(a3=tuple(factor * c for c in eq.a3),
                          a2=tuple(factor * c for c in eq.a2),
                          tau=tuple(factor * c for c in eq.tau))
    for spec in (eq, scaled):
        _, ((*_, b20, b21, b22, b10, b11),) = spec.integer_form
        state = aim_init(spec)
        assert (state.L, state.S) == (-UPoly((b22, b21, b20)), UPoly((b11, b10)))
    assert aim_test_polynomial(scaled, 6) == aim_test_polynomial(eq, 6)
