import ast
import itertools
import json
import pathlib
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyode import criteria
from polyode.criteria import (
    AmbiguousNullspaceError,
    DegenerateDenominatorError,
    EquationSpec,
    NoNullspaceError,
    as_scalar,
    band_nullspace,
    build_criterion_matrix,
    classical_polynomials,
    classical_recurrence_step,
    classical_seed,
    classical_tau,
    construct_solution,
    degree_condition,
    degree_condition_effective,
    delta_determinant,
    embed_classical,
    rational_nullspace,
    residual_vanishes,
    verify_solution,
)
from polyode.exactalg import (
    MAX_DIGITS, UPoly, banded_minors, bareiss_determinant,
    parse_rational)

from bandforms import (
    bands_of, dense, entries, integer_rows, primitive_vector, residual, row_entries)

T = UPoly([0, 1])  # the unknown parameter

BESSEL_A2 = (1, 0, 0)   # x^2 y''
BESSEL_A1 = (2, 2)      # (2x + 2) y'


def bessel_eq(tau00):
    return embed_classical(BESSEL_A2, BESSEL_A1, tau00)


def krylov_eq(alpha, beta, gamma):
    # x^3 y'' + alpha (x^2 - 1) y' + (beta x + gamma) y = 0
    return EquationSpec(
        a3=(1, 0, 0, 0),
        a2=(alpha, 0, -Fraction(alpha)),
        tau=(-Fraction(beta) if not isinstance(beta, UPoly) else -beta,
             -Fraction(gamma) if not isinstance(gamma, UPoly) else -gamma),
    )


def chhajlany_eq(p, delta, alpha):
    # y'' + (p - 2 x^2) y' + (delta x + alpha) y = 0
    return EquationSpec(
        a3=(0, 0, 0, 1),
        a2=(-2, 0, p),
        tau=(-Fraction(delta) if not isinstance(delta, UPoly) else -delta,
             -Fraction(alpha) if not isinstance(alpha, UPoly) else -alpha),
    )


def davidson_eq(mu, eps):
    # x y'' - (2x^2 - 2(mu+1)) y' - (2 mu + 3 - eps) x y = 0
    mu = Fraction(mu)
    return EquationSpec(
        a3=(0, 0, 1, 0),
        a2=(-2, 0, 2 * (mu + 1)),
        tau=(2 * mu + 3 - Fraction(eps), 0),
    )


# ---------------------------------------------------------------------------
# EquationSpec basics

def test_spec_validation():
    with pytest.raises(ValueError):
        EquationSpec(a3=(0, 0, 0, 0), a2=(0, 0, 0), tau=(1, 0))
    with pytest.raises(ValueError, match=r"degree <= 1 in t, got t\^2$"):
        EquationSpec(a3=(0, 0, 0, 1), a2=(0, 0, 0), tau=(UPoly([0, 0, 1]), 0))


def test_coefficient_polynomials():
    eq = davidson_eq(0, 3)
    assert eq.is_numeric
    # D and the nine coefficients times D, a30 .. t11
    assert davidson_eq(0, Fraction(7, 2)).integer_form == (2, ((0, 0, 2, 0, -4, 0, 4, -1, 0),))


def test_substitute_unknown():
    eq = krylov_eq(1, -1, T)
    assert not eq.is_numeric
    fixed = eq.substitute(1)
    assert fixed.is_numeric
    assert fixed.tau[1] == UPoly([-1])


def test_json_round_trip():
    eq = krylov_eq(3, -8, T)
    data = eq.to_json_dict()
    assert data["unknown"] == "t"
    again = EquationSpec.from_json_dict(data)
    assert again.a3 == eq.a3 and again.a2 == eq.a2 and again.tau == eq.tau

    numeric = bessel_eq(6)
    data = numeric.to_json_dict()
    assert "unknown" not in data
    assert EquationSpec.from_json_dict(data).is_numeric


def test_json_requires_declared_unknown():
    bad = {"a3": ["0", "1", "0", "0"], "a2": ["0", "2", "2"],
           "tau": ["0", {"t": ["0", "1"]}]}
    with pytest.raises(ValueError, match="unknown"):
        EquationSpec.from_json_dict(bad)
    with pytest.raises(ValueError, match=r'^tau\[1\]: .*needs a declared "unknown"'):
        EquationSpec.from_json_dict({**bad, "tau": ["0", ["0", "1"]]})


# ---------------------------------------------------------------------------
# degree condition

def test_degree_condition_krylov():
    # spec mapping a30=1, a20=alpha, t10=-beta gives beta = -n^2 - (alpha-1) n
    alpha = Fraction(3)
    for n in range(6):
        eq = krylov_eq(alpha, T, 0)  # beta is the unknown: t10 = -t
        cond = degree_condition(eq, n)
        # -t - n(n-1) - n*alpha = 0  at  t = -n^2 - (alpha-1) n
        expected_root = -(n * n) - (alpha - 1) * n
        assert cond == UPoly([-(n * (n - 1)) - n * alpha, -1])
        assert cond(expected_root) == 0


def test_degree_condition_chhajlany():
    # a30=0, a20=-2, t10=-delta gives delta = 2n
    for n in range(6):
        eq = chhajlany_eq(1, T, 0)
        cond = degree_condition(eq, n)
        assert cond == UPoly([2 * n, -1])
        assert cond(2 * n) == 0


def test_degree_condition_n0():
    eq = krylov_eq(2, 5, 7)
    assert degree_condition(eq, 0) == eq.tau[0]


def test_degree_condition_effective_falls_back():
    eq = bessel_eq(5)
    level, cond = degree_condition_effective(eq, 2)
    assert level == 0
    assert cond == UPoly([5 - 6])  # tau00 - n(n+1) with n=2
    level, cond = degree_condition_effective(bessel_eq(6), 2)
    assert cond == 0
    level, _ = degree_condition_effective(krylov_eq(1, 1, 1), 3)
    assert level == 1
    # x y'' - 2y' = 0 (solutions 1 and x^3): level -1, -n((n-1) - 2)
    eq = EquationSpec(a3=(0, 0, 1, 0), a2=(0, 0, -2), tau=(0, 0))
    for n in range(7):
        assert degree_condition_effective(eq, n) == (-1, UPoly([-n * (n - 3)]))
    # y'' = 0 (solutions 1 and x): level -2, -n(n-1)
    eq = EquationSpec(a3=(0, 0, 0, 1), a2=(0, 0, 0), tau=(0, 0))
    for n in range(7):
        assert degree_condition_effective(eq, n) == (-2, UPoly([-n * (n - 1)]))


# ---------------------------------------------------------------------------
# the leading-coefficient condition t = n(n-1) a + n a' on either level

def test_necessary_condition_bessel():
    # level 0 (a30 = a20 = t10 = 0): t11 = n(n-1) a31 + n a21 = n(n+1)
    for n in range(8):
        assert degree_condition_effective(bessel_eq(n * (n + 1)), n) == (0, 0)


def test_necessary_condition_counterexample():
    # t = 5 misses n(n-1) + 2n = 6 at n = 2, on level 1 and on level 0
    level_one = EquationSpec(a3=(1, 0, 0, 0), a2=(2, 0, 0), tau=(5, 0))
    assert degree_condition_effective(level_one, 2) == (1, UPoly([-1]))
    assert degree_condition_effective(bessel_eq(5), 2) == (0, UPoly([-1]))


def test_necessary_condition_n0():
    # at n = 0 the leading coefficients drop out: the condition is t10 = 0
    assert degree_condition(EquationSpec(a3=(4, 0, 0, 0), a2=(7, 0, 0), tau=(0, 1)), 0) == 0


unlike_denominators = st.fractions(min_value=-40, max_value=40, max_denominator=60)


#: the slots of the a3, a2 and tau coefficients of each level of the
#: degree condition, None where the level has none
CONDITION_SLOTS = {1: (0, 4, 7), 0: (1, 5, 8), -1: (2, 6, None), -2: (3, None, None)}


@st.composite
def condition_cases(draw):
    """(nine (c0, c1) pairs of Fractions, n): each coefficient c0 + c1 t,
    with c1 = 0 throughout for a numeric equation.  The slots of the first
    0 to 3 levels are zero pairs, so every level can be the effective one,
    and some equations meet the condition at n on their first level that
    keeps a slot (at levels 1, 0 and -1)."""
    n = draw(st.integers(0, 30))
    parametric = draw(st.booleans())
    nine = [(draw(unlike_denominators),
             draw(unlike_denominators) if parametric else Fraction(0)) for _ in range(9)]
    for level in list(CONDITION_SLOTS)[:draw(st.integers(0, 3))]:
        for i in CONDITION_SLOTS[level]:
            if i is not None:
                nine[i] = (Fraction(0), Fraction(0))
    first = next((slots for slots in CONDITION_SLOTS.values()
                  if any(c for i in slots if i is not None for c in nine[i])), None)
    if first and draw(st.booleans()):
        a3, a2, t = first
        if t is not None:
            nine[t] = tuple(n * (n - 1) * x + n * y for x, y in zip(nine[a3], nine[a2]))
        elif a2 is not None and n:
            nine[a2] = tuple(-(n - 1) * x for x in nine[a3])
    return nine, n


@settings(max_examples=300, deadline=None)
@given(condition_cases())
def test_degree_condition_is_the_rational_formula(case):
    nine, n = case
    assume(any(c for pair in nine[:7] for c in pair))  # a y'' or y' term
    eq = EquationSpec(a3=tuple(nine[:4]), a2=tuple(nine[4:7]), tau=tuple(nine[7:]))

    def condition(a3, a2, t):
        def value(slot, p):
            return nine[slot][p] if slot is not None else 0
        return UPoly([value(t, p) - n * (n - 1) * value(a3, p) - n * value(a2, p)
                      for p in (0, 1)])

    level = next(level for level, slots in CONDITION_SLOTS.items()
                 if any(c for i in slots if i is not None for c in nine[i]))
    assert degree_condition(eq, n) == condition(*CONDITION_SLOTS[1])
    assert degree_condition_effective(eq, n) == (level, condition(*CONDITION_SLOTS[level]))


# ---------------------------------------------------------------------------
# criterion matrix

def test_matrix_chhajlany_rows():
    # y'' + (p - 2x^2) y' + (delta x + alpha) y with symbolic alpha
    p = Fraction(5)
    n = 4
    eq = chhajlany_eq(p, 2 * n, T)  # tau = (-2n, -t)
    m = build_criterion_matrix(eq, n)
    delta = Fraction(2 * n)
    minus_alpha = UPoly([0, -1])
    for k in range(n + 1):
        for j in range(n + 1):
            if j == k - 1:
                assert m.entry(k, j) == UPoly([-delta + 2 * (k - 1)])
            elif j == k:
                assert m.entry(k, j) == minus_alpha
            elif j == k + 1:
                assert m.entry(k, j) == UPoly([-(k + 1) * p])
            elif j == k + 2:
                assert m.entry(k, j) == UPoly([-((k + 2) * (k + 1))])
            else:
                assert m.entry(k, j) == UPoly()


def test_matrix_krylov_n1():
    eq = krylov_eq(2, -2, T)  # beta = -alpha at n=1
    m = build_criterion_matrix(eq, 1)
    assert entries(m) == [
        [UPoly([0, -1]), UPoly([2])],
        [UPoly([2]), UPoly([0, -1])],
    ]
    # the band itself is in Z[t] (here D = 1), each entry e0 + e1 t the
    # pair (e0, e1); rows 0 and 1 of the recurrence as built, so A_0 and
    # C_1, outside the square, keep their values
    assert m.scale == 1
    assert m.n == 1
    assert m.bands == (
        ((2, 0), (0, -1), (2, 0), (0, 0)),
        ((2, 0), (0, -1), (4, 0), (0, 0)),
    )


def test_matrix_n0():
    eq = krylov_eq(1, 4, 9)
    m = build_criterion_matrix(eq, 0)
    assert dense(m.bands) == [[-9]]
    assert m.bands == ((-5, -9, 1, 0),)  # A_0 and C_0 lie outside the square
    assert m.n == 0
    assert isinstance(m.entry(0, 0), Fraction)  # numeric equation
    with pytest.raises(IndexError):
        m.entry(0, 1)


SCALED_EQUATIONS = [
    davidson_eq(Fraction(1, 3), Fraction(2, 3) + 3 + 8),  # D = 3
    krylov_eq(Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)),  # D = 12
    chhajlany_eq(Fraction(-3, 5), 6, Fraction(1, 7)),  # D = 35
    bessel_eq(Fraction(6)),  # D = 1
]


@pytest.mark.parametrize("eq", SCALED_EQUATIONS)
def test_numeric_band_is_the_integer_band_of_the_scaled_equation(eq):
    scale = lcm(*(s.constant_value().denominator for s in (*eq.a3, *eq.a2, *eq.tau)))
    matrix = build_criterion_matrix(eq, 6)
    assert matrix.scale == scale
    assert all(type(v) is int for band in matrix.bands for v in band)
    assert dense(matrix.bands) == [[scale * v for v in row] for row in entries(matrix)]
    for k in range(7):
        for j, value in enumerate(row_entries(eq, k), start=k - 1):
            if 0 <= j <= 6:
                assert value == matrix.entry(k, j)
    assert matrix.leading(3).scale == scale
    assert matrix.leading(3).bands == build_criterion_matrix(eq, 3).bands


@pytest.mark.parametrize("eq", SCALED_EQUATIONS)
def test_leading_minors_are_the_unscaled_minors(eq):
    matrix = build_criterion_matrix(eq, 6)
    rows = entries(matrix)
    expected = [bareiss_determinant([row[:m] for row in rows[:m]]) for m in range(1, 8)]
    assert matrix.leading_minors(range(1, 8)) == expected
    assert matrix.leading(4).leading_minors(range(1, 6)) == expected[:5]
    # any orders, in the order asked
    assert matrix.leading_minors([7, 1, 4]) == [expected[6], expected[0], expected[3]]
    for n in range(7):
        assert delta_determinant(eq, n) == UPoly.constant(expected[n])


def test_truncation_closure_symbolically():
    eq = krylov_eq(3, T, 1)
    for n in range(7):
        sub, _, _, _ = row_entries(eq, n + 1)
        assert sub == degree_condition(eq, n)


@settings(max_examples=80, deadline=None)
@given(condition_cases())
def test_band_entries_are_the_residual_coefficients_of_the_powers(case):
    # one row formula gives the band and every level of the degree
    # condition: entry (k, j) is minus the x^k coefficient of the residual
    # of x^j, and the effective condition at n is minus the top coefficient
    # of the residual of x^n that does not vanish for every equation of
    # its shape
    pairs, n = case
    nine = [c0 for c0, _ in pairs]
    assume(any(nine[:7]))
    eq = EquationSpec(a3=tuple(nine[:4]), a2=tuple(nine[4:7]), tau=tuple(nine[7:]))
    matrix = build_criterion_matrix(eq, n)

    def coefficients(j):
        power = residual(eq, [0] * j + [1]).coeffs
        return list(power) + [0] * (n + 2 - len(power))

    for j in range(n + 1):
        column = coefficients(j)
        assert [matrix.entry(k, j) for k in range(n + 1)] == [-c for c in column[:n + 1]]
    level, cond = degree_condition_effective(eq, n)
    top = coefficients(n)
    assert cond == UPoly([-top[n + level]]) if n + level >= 0 else cond == 0
    assert not any(top[max(n + level + 1, 0):])


def test_library_has_no_assert_statements():
    package = pathlib.Path(criteria.__file__).parent
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


# ---------------------------------------------------------------------------
# determinant

def test_delta_determinant_krylov_n1():
    alpha = Fraction(2)
    eq = krylov_eq(alpha, -alpha, T)
    assert delta_determinant(eq, 1) == UPoly([-alpha * alpha, 0, 1])


def test_delta_determinant_krylov_n2():
    alpha = Fraction(3)
    beta = -2 * (alpha + 1)
    eq = krylov_eq(alpha, beta, T)
    det = delta_determinant(eq, 2)
    # -t (t^2 - 2 alpha (2 alpha + 3))
    assert det == UPoly([0, 2 * alpha * (2 * alpha + 3), 0, -1])


def test_delta_determinant_davidson_odd_degree():
    for mu in (0, Fraction(1, 2), 1, 2):
        eq = davidson_eq(mu, 2 * Fraction(mu) + 5)  # degree condition at N=1
        det = delta_determinant(eq, 1)
        assert det == UPoly([-4 * (Fraction(mu) + 1)])
        if mu != -1:
            assert det != 0


def test_determinant_band_recurrence_agreement():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(0, 4)
        eq = EquationSpec(
            a3=tuple(rng.randint(-3, 3) for _ in range(4)),
            a2=tuple(rng.randint(-3, 3) for _ in range(3)),
            tau=(UPoly([rng.randint(-3, 3), 1]), rng.randint(-3, 3)),
        )
        if not any(eq.a3) and not any(eq.a2):
            continue
        m = build_criterion_matrix(eq, n)
        assert delta_determinant(eq, n) == bareiss_determinant(entries(m))


# ---------------------------------------------------------------------------
# nullspace and solution construction

def test_nullspace_simple():
    rows = [[Fraction(1), Fraction(-1)], [Fraction(2), Fraction(-2)]]
    basis = rational_nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] != 0


def test_nullspace_trivial():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert rational_nullspace(rows) == []


def test_primitive_vector():
    assert primitive_vector([Fraction(4), Fraction(6)]) == (2, 3)
    assert primitive_vector([Fraction(1, 2), Fraction(-3, 4)]) == (-2, 3)
    assert primitive_vector([Fraction(0), Fraction(-5)]) == (0, 1)


def test_construct_davidson_degree2():
    eq = davidson_eq(0, 7)
    sol = construct_solution(eq, build_criterion_matrix(eq, 2))
    assert sol.coefficients == (-3, 0, 2)
    assert sol.reported_degree == 2
    assert verify_solution(eq, sol.coefficients)


def test_construct_bessel_degree1():
    eq = bessel_eq(classical_tau(1, 2, 1))
    sol = construct_solution(eq, build_criterion_matrix(eq, 1))
    # 2x + 2 up to scale
    assert sol.coefficients == (1, 1)


def test_construct_constant_solution():
    eq = EquationSpec(a3=(0, 0, 1, 0), a2=(1, 0, 0), tau=(0, 0))
    sol = construct_solution(eq, build_criterion_matrix(eq, 0))
    assert sol.coefficients == (1,)
    assert sol.reported_degree == 0


def test_construct_nonsingular_raises():
    eq = bessel_eq(5)
    with pytest.raises(NoNullspaceError):
        construct_solution(eq, build_criterion_matrix(eq, 2))


def test_construct_ambiguous_nullspace():
    # y'' = 0 admits both 1 and x at degree 1
    eq = EquationSpec(a3=(0, 0, 0, 1), a2=(0, 0, 0), tau=(0, 0))
    with pytest.raises(AmbiguousNullspaceError) as excinfo:
        construct_solution(eq, build_criterion_matrix(eq, 1))
    sols = excinfo.value.solutions
    assert len(sols) == 2
    assert all(verify_solution(eq, s.coefficients) for s in sols)


def test_reported_degree_below_requested():
    # Bessel tau00 = 2 targets degree 1; at requested n = 2 the nullspace
    # vector still has c_2 = 0 and the true degree is reported
    eq = bessel_eq(2)
    sol = construct_solution(eq, build_criterion_matrix(eq, 2))
    assert sol.reported_degree == 1
    assert sol.coefficients == (1, 1, 0)


# ---------------------------------------------------------------------------
# residual verification

def test_verify_davidson_half():
    mu = Fraction(1, 2)
    eq = davidson_eq(mu, 2 * mu + 7)
    assert verify_solution(eq, [-3 - 2 * mu, 0, 2])


def test_verify_rejects_constant():
    eq = bessel_eq(6)
    assert not verify_solution(eq, [Fraction(1)])


def test_verify_bessel_y2():
    eq = bessel_eq(6)
    assert verify_solution(eq, [Fraction(4), Fraction(12), Fraction(12)])


# ---------------------------------------------------------------------------
# classical ladder

def test_classical_tau_values():
    assert classical_tau(1, 2, 3) == 12  # n(n+1) at n=3
    assert classical_tau(0, 5, 4) == 20
    assert classical_tau(1, 0, 3) == 6


def test_classical_seed():
    y0, y1 = classical_seed(BESSEL_A1)
    assert y0 == UPoly.one()
    assert y1 == UPoly([2, 2])


def test_bessel_recurrence_matches_displayed_form():
    # general ladder coefficients collapse to y_{n+2} = 2(2n+3) x y_{n+1} + 4 y_n
    ys = classical_polynomials(BESSEL_A2, BESSEL_A1, 8)
    x = UPoly.x()
    for n in range(6):
        assert ys[n + 2] == 2 * (2 * n + 3) * x * ys[n + 1] + 4 * ys[n]


def test_bessel_y2_value():
    ys = classical_polynomials(BESSEL_A2, BESSEL_A1, 3)
    assert ys[2] == UPoly([4, 12, 12])


def test_classical_polynomials_rejects_a_negative_count():
    assert classical_polynomials(BESSEL_A2, BESSEL_A1, 0) == []
    with pytest.raises(ValueError, match="nonnegative"):
        classical_polynomials(BESSEL_A2, BESSEL_A1, -1)


def test_classical_degenerate_denominator():
    with pytest.raises(DegenerateDenominatorError):
        classical_recurrence_step((1, 0, 0), (0, 1), UPoly.one(), UPoly([1, 0]), 0)


def test_ladder_polynomials_solve_their_equations():
    ys = classical_polynomials(BESSEL_A2, BESSEL_A1, 8)
    for n, y in enumerate(ys):
        eq = bessel_eq(classical_tau(1, 2, n))
        assert verify_solution(eq, list(y.coeffs))


def test_hermite_ladder():
    # y'' - 2 x y' + 2 n y = 0: tau00 = -2n, ladder gives scalar multiples of
    # the Hermite polynomials
    ys = classical_polynomials((0, 0, 1), (-2, 0), 5)
    assert ys[2] == UPoly([-2, 0, 4])
    assert ys[3] == UPoly([0, 12, 0, -8])
    for n, y in enumerate(ys):
        eq = embed_classical((0, 0, 1), (-2, 0), classical_tau(0, -2, n))
        assert verify_solution(eq, list(y.coeffs))


# ---------------------------------------------------------------------------
# ladder vs matrix construction

def test_bessel_ladder_matches_construction():
    ys = classical_polynomials(BESSEL_A2, BESSEL_A1, 11)
    for n, y in enumerate(ys):
        eq = bessel_eq(classical_tau(1, 2, n))
        sol = construct_solution(eq, build_criterion_matrix(eq, n))
        assert sol.polynomial() * y.leading == y * sol.polynomial().leading


# ---------------------------------------------------------------------------
# independent pointwise oracle for the residual checker

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
coeff_lists = st.lists(small_fractions, min_size=1, max_size=5)


@settings(max_examples=60)
@given(
    st.tuples(
        st.tuples(*(small_fractions for _ in range(4))),
        st.tuples(*(small_fractions for _ in range(3))),
        st.tuples(*(small_fractions for _ in range(2))),
        coeff_lists,
    )
)
def test_verify_solution_matches_pointwise_samples(data):
    a3, a2, tau, coeffs = data
    if not any(a3) and not any(a2):
        return
    eq = EquationSpec(a3=a3, a2=a2, tau=tau)
    y = UPoly(coeffs)

    def residual_at(x):
        # evaluate each piece independently of the UPoly product code path
        y0 = sum(c * x**k for k, c in enumerate(y.coeffs))
        y1 = sum(k * c * x ** (k - 1) for k, c in enumerate(y.coeffs) if k >= 1)
        y2 = sum(
            k * (k - 1) * c * x ** (k - 2)
            for k, c in enumerate(y.coeffs)
            if k >= 2
        )
        p3 = sum(c * x ** (3 - i) for i, c in enumerate(Fraction(v) for v in a3))
        p2 = sum(c * x ** (2 - i) for i, c in enumerate(Fraction(v) for v in a2))
        p1 = Fraction(tau[0]) * x + Fraction(tau[1])
        return p3 * y2 + p2 * y1 - p1 * y0

    # the residual has degree <= deg(y) + 1 < 7, so 8 samples decide it
    samples = [Fraction(k) for k in range(-3, 5)]
    pointwise_zero = all(residual_at(x) == 0 for x in samples)
    assert verify_solution(eq, list(y.coeffs)) == pointwise_zero


wide_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*(wide_fractions for _ in range(9))),
       st.lists(wide_fractions, max_size=8), st.booleans())
def test_integer_residual_agrees_with_the_rational_residual(values, coeffs, solve):
    a3, a2, tau = values[:4], values[4:7], values[7:]
    if not any(a3) and not any(a2):
        return
    eq = EquationSpec(a3=a3, a2=a2, tau=tau)
    if solve:
        # a nullspace vector where the degree condition holds, so that
        # true verdicts occur as well as false ones
        n = len(coeffs)
        eq = EquationSpec(a3=a3, a2=a2, tau=(n * (n - 1) * a3[0] + n * a2[0], tau[1]))
        basis = rational_nullspace(entries(build_criterion_matrix(eq, n)))
        if len(basis) == 1:
            coeffs = basis[0]
    assert verify_solution(eq, coeffs) == (not residual(eq, coeffs))
    assert verify_solution(eq, [int(c) if c.denominator == 1 else c for c in coeffs]) \
        == (not residual(eq, coeffs))


# ---------------------------------------------------------------------------
# matrix band structure on random symbolic equations

@settings(max_examples=40)
@given(
    st.integers(0, 5),
    st.tuples(*(small_fractions for _ in range(9))),
    st.integers(0, 8),
)
def test_matrix_band_and_closure_properties(n, values, t_slot):
    fields = list(values)
    scalars = [Fraction(v) for v in fields]
    linear = [UPoly([c]) for c in scalars]
    linear[t_slot] = UPoly([scalars[t_slot], 1])  # one unknown somewhere
    a3, a2, tau = tuple(linear[:4]), tuple(linear[4:7]), tuple(linear[7:9])
    if not any(a3) and not any(a2):
        return
    eq = EquationSpec(a3=a3, a2=a2, tau=tau)
    m = build_criterion_matrix(eq, n)
    for k in range(n + 1):
        for j in range(n + 1):
            if j < k - 1 or j > k + 2:
                assert m.entry(k, j) == UPoly()
    sub, _, _, _ = row_entries(eq, n + 1)
    assert sub == degree_condition(eq, n)


X, T_SYM = sympy.symbols("x t")


def sympy_of(entry):
    """A UPoly in t (or a Fraction) as a sympy expression in T_SYM."""
    coeffs = entry.coeffs if isinstance(entry, UPoly) else (entry,)
    return sum(sympy.Rational(c.numerator, c.denominator) * T_SYM ** i
               for i, c in enumerate(coeffs))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 5),
    st.tuples(*(small_fractions for _ in range(9))),
    st.integers(0, 8),
)
def test_criterion_band_and_determinant_match_sympy(n, values, t_slot):
    """An oracle that does not use the A..D formulas: entry (k, j) is minus
    the x^k coefficient of the equation applied to y = x^j, built in sympy,
    and the determinant is sympy's, as a polynomial in t.  The same holds
    for the band entries outside the square, at columns -1, n+1 and n+2."""
    scalars = [Fraction(v) for v in values]
    linear = [UPoly([c]) for c in scalars]
    linear[t_slot] = UPoly([scalars[t_slot], 1])
    a3, a2, tau = tuple(linear[:4]), tuple(linear[4:7]), tuple(linear[7:9])
    if not any(a3) and not any(a2):
        return
    eq = EquationSpec(a3=a3, a2=a2, tau=tau)
    sym = [sympy_of(c) for c in scalars]
    sym[t_slot] += T_SYM
    a30, a31, a32, a33, a20, a21, a22, t10, t11 = sym
    size = n + 1
    oracle = {}
    for j in range(-1, size + 2):
        y = X ** j
        residual = sympy.expand(
            (a30 * X**3 + a31 * X**2 + a32 * X + a33) * sympy.diff(y, X, 2)
            + (a20 * X**2 + a21 * X + a22) * sympy.diff(y, X)
            - (t10 * X + t11) * y
        )
        for k in range(size):
            oracle[k, j] = -residual.coeff(X, k)
    expected = sympy.Matrix(size, size, lambda k, j: oracle[k, j])
    m = build_criterion_matrix(eq, n)
    for k in range(size):
        for j in range(size):
            assert sympy.expand(sympy_of(m.entry(k, j)) - expected[k, j]) == 0, (k, j)
        # the band holds the recurrence rows as built, outside the square too
        for j, pair in enumerate(m.bands[k], start=k - 1):
            value = UPoly(Fraction(c, m.scale) for c in pair)
            assert sympy.expand(sympy_of(value) - oracle[k, j]) == 0, (k, j)
    det = delta_determinant(eq, n)
    assert sympy.expand(sympy_of(det) - expected.det(method="berkowitz")) == 0


def sympy_poly(coeffs):
    """An ascending list of rationals as a sympy polynomial in X."""
    return sum(sympy.Rational(c.numerator, c.denominator) * X**i
               for i, c in enumerate(coeffs))


def rational_coeffs(expr):
    """The ascending Fractions of a sympy polynomial in X."""
    return [Fraction(int(c.p), int(c.q))
            for c in reversed(sympy.Poly(expr, X).all_coeffs())]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_residual_vanishes_matches_sympy(data):
    """P3, P2 and P1 of degree up to 6 and lists of any length, drawn at
    random, or planted around y as A y', B y - A y'' and B y', which makes
    P3 y'' + P2 y' = P1 y; y is then perturbed or not.  sympy's expanded
    residual decides."""
    def lists(top):
        return data.draw(st.lists(small_fractions, max_size=top + 1))

    if data.draw(st.booleans(), label="plant"):
        y, a, b = lists(3), sympy_poly(lists(3)), sympy_poly(lists(3))
        dy = sympy.diff(sympy_poly(y), X)
        p3, p2, p1 = (rational_coeffs(sympy.expand(e)) for e in (
            a * dy, b * sympy_poly(y) - a * sympy.diff(dy, X), b * dy))
    else:
        p3, p2, p1, y = lists(6), lists(6), lists(6), lists(6)
    if data.draw(st.booleans(), label="perturb"):
        slot = data.draw(st.integers(0, len(y)), label="slot")
        y = y + [Fraction(0)]
        y[slot] += data.draw(small_fractions.filter(bool), label="bump")
    ys = sympy_poly(y)
    residual = sympy.expand(sympy_poly(p3) * sympy.diff(ys, X, 2)
                            + sympy_poly(p2) * sympy.diff(ys, X) - sympy_poly(p1) * ys)
    assert residual_vanishes(p3, p2, p1, y) == (residual == 0)


# ---------------------------------------------------------------------------
# symbolic determinant commutes with parameter substitution

@settings(max_examples=40)
@given(
    st.integers(0, 4),
    st.tuples(*(small_fractions for _ in range(9))),
    st.integers(0, 8),
    small_fractions,
)
def test_delta_determinant_commutes_with_substitution(n, values, t_slot, point):
    scalars = [Fraction(v) for v in values]
    linear = [UPoly([c]) for c in scalars]
    linear[t_slot] = UPoly([scalars[t_slot], 1])
    a3, a2, tau = tuple(linear[:4]), tuple(linear[4:7]), tuple(linear[7:9])
    if not any(a3) and not any(a2):
        return
    eq = EquationSpec(a3=a3, a2=a2, tau=tau)
    try:
        fixed = eq.substitute(point)
    except ValueError:
        return  # this parameter value degenerates the equation entirely
    symbolic = delta_determinant(eq, n)
    numeric = delta_determinant(fixed, n)
    assert symbolic(point) == numeric.constant_value()


@settings(max_examples=40)
@given(
    st.tuples(*(small_fractions for _ in range(9))),
    st.integers(0, 8),
)
def test_equation_json_round_trip_property(values, t_slot):
    scalars = [Fraction(v) for v in values]
    linear = [UPoly([c]) for c in scalars]
    linear[t_slot] = UPoly([scalars[t_slot], Fraction(1, 3)])
    a3, a2, tau = tuple(linear[:4]), tuple(linear[4:7]), tuple(linear[7:9])
    if not any(a3) and not any(a2):
        return
    eq = EquationSpec(a3=a3, a2=a2, tau=tau)
    again = EquationSpec.from_json_dict(json.loads(json.dumps(eq.to_json_dict())))
    assert (again.a3, again.a2, again.tau) == (eq.a3, eq.a2, eq.tau)


# ---------------------------------------------------------------------------
# determinant-nullspace oracle equivalence on random instances

def test_oracle_equivalence_random_instances():
    rng = random.Random(2024)
    seen = 0
    while seen < 220:
        n = rng.randint(0, 6)
        a30, a20 = rng.randint(-3, 3), rng.randint(-3, 3)
        eq_fields = dict(
            a3=(a30, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)),
            a2=(a20, rng.randint(-3, 3), rng.randint(-3, 3)),
            tau=(n * (n - 1) * a30 + n * a20, rng.randint(-4, 4)),
        )
        if not any(eq_fields["a3"]) and not any(eq_fields["a2"]):
            continue
        eq = EquationSpec(**eq_fields)
        det = delta_determinant(eq, n)
        matrix = build_criterion_matrix(eq, n)
        rows = entries(matrix)
        nullity = len(rational_nullspace(rows))
        assert (det == 0) == (nullity >= 1), (eq, n)
        seen += 1


# ---------------------------------------------------------------------------
# band-elimination nullspace against the dense oracles

band_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
rarely = st.sampled_from([False, False, False, True])


@st.composite
def band_matrices(draw, max_size=9):
    """Square rational matrices with the criterion band: row k is zero
    outside columns k-1..k+2.  Whole rows, the diagonal or the subdiagonal
    (the upper-triangular shape of ``embed_classical``) can be zeroed
    outright, so vanishing pivots and nullity >= 2 are common."""
    size = draw(st.integers(1, max_size))
    zero_rows = draw(st.sets(st.integers(0, size - 1), max_size=2))
    zero_diagonal = draw(rarely)
    zero_subdiagonal = draw(rarely)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for k in range(size):
        if k in zero_rows:
            continue
        for j in range(max(k - 1, 0), min(k + 3, size)):
            if not (j == k and zero_diagonal or j == k - 1 and zero_subdiagonal):
                rows[k][j] = draw(band_entries)
    return rows


def gauss_jordan_form(basis):
    """The integer basis of ``band_nullspace`` as rationals, each vector
    divided by its entry at its free column, its last nonzero entry: the
    form in which ``rational_nullspace`` returns the same basis.  Every
    vector must be a primitive int vector with that entry positive."""
    out = []
    for vec in basis:
        assert all(type(v) is int for v in vec)
        free = max(i for i, v in enumerate(vec) if v)
        assert vec[free] > 0 and gcd(*vec) == 1
        out.append([Fraction(v, vec[free]) for v in vec])
    return out


def test_band_nullspace_upper_triangular_and_zero_diagonal():
    # Bessel at the wrong degree: upper triangular, one zero on the diagonal
    bands = build_criterion_matrix(bessel_eq(2), 3).bands
    assert gauss_jordan_form(band_nullspace(bands)) == rational_nullspace(dense(bands))
    # Davidson at degree 2: zero diagonal, the pivots sit off it
    bands = build_criterion_matrix(davidson_eq(0, 7), 2).bands
    rows = dense(bands)
    assert rows[0][0] == rows[1][1] == rows[2][2] == 0
    assert band_nullspace(bands) == [[-3, 0, 2]]
    assert gauss_jordan_form(band_nullspace(bands)) == rational_nullspace(rows)


@settings(max_examples=300, deadline=None)
@given(band_matrices())
def test_band_nullspace_equals_gauss_jordan(rows):
    basis = band_nullspace(bands_of(integer_rows(rows)))
    assert gauss_jordan_form(basis) == rational_nullspace(rows)


row_scales = st.fractions(min_value=-50, max_value=50, max_denominator=60).filter(bool)


@settings(max_examples=100, deadline=None)
@given(band_matrices(), st.data())
def test_band_nullspace_of_rational_rows_with_nullity_two(rows, data):
    # two zero rows force nullity >= 2; scaling each other row by its own
    # rational gives rows of unlike denominators, so the integer rows the
    # elimination takes differ widely in size from row to row
    size = len(rows)
    if size < 2:
        return
    zeroed = data.draw(st.sets(st.integers(0, size - 1), min_size=2, max_size=2))
    for k in range(size):
        scale = 0 if k in zeroed else data.draw(row_scales)
        rows[k] = [v * scale for v in rows[k]]
    basis = band_nullspace(bands_of(integer_rows(rows)))
    assert len(basis) >= 2
    assert gauss_jordan_form(basis) == rational_nullspace(rows)


@settings(max_examples=80, deadline=None)
@given(band_matrices())
def test_band_nullspace_spans_the_sympy_nullspace(rows):
    basis = band_nullspace(bands_of(integer_rows(rows)))
    matrix = sympy.Matrix(rows)
    reference = matrix.nullspace()
    assert len(basis) == len(reference)
    if not basis:
        return
    ours = sympy.Matrix([list(v) for v in basis]).T
    assert matrix * ours == sympy.zeros(len(rows), len(basis))
    assert ours.rank() == len(basis)
    assert ours.row_join(sympy.Matrix.hstack(*reference)).rank() == len(basis)


@st.composite
def lowest_diagonal_bands(draw, max_size=9):
    """Square rational band matrices whose lowest diagonal with an entry
    (k - j = 1 for A_k down to -2 for D_k) is drawn: every entry below it
    is zero, and its own entries are nonzero except at up to two planted
    columns, the zero pivots that a second candidate degree makes.  The
    entries above it are zero half the time, so nullity >= 1 is common."""
    size = draw(st.integers(1, max_size))
    low = draw(st.sampled_from([1, 0, -1, -2]))
    zero_pivots = draw(st.sets(st.integers(0, size - 1), max_size=2))
    rows = [[Fraction(0)] * size for _ in range(size)]
    for k in range(size):
        for j in range(max(k - 1, 0), min(k + 3, size)):
            if k - j == low and j not in zero_pivots:
                rows[k][j] = draw(band_entries.filter(bool))
            elif k - j < low:
                rows[k][j] = draw(st.one_of(st.just(Fraction(0)), band_entries))
    return rows


@settings(max_examples=300, deadline=None)
@given(lowest_diagonal_bands())
def test_band_nullspace_on_each_lowest_diagonal(rows):
    basis = band_nullspace(bands_of(integer_rows(rows)))
    assert gauss_jordan_form(basis) == rational_nullspace(rows)


@st.composite
def laddered_equations(draw):
    """(equation, n, level): a numeric cubic whose first level with a
    nonzero coefficient is ``level``, its other coefficients small and
    mostly zero, and whose condition on that level vanishes at n and at a
    second candidate degree: any m <= n at levels 1 and 0, where it is
    -a (j - m)(j - n) at degree j, and 0 at level -1.  At level -2 it is
    -a j (j - 1), which vanishes only at 0 and 1."""
    level = draw(st.sampled_from([1, 0, -1, -2]))
    small = st.sampled_from([0, 0, 0, 1, -1, 2, -3, Fraction(1, 2)])
    nine = [draw(small) for _ in range(9)]
    for above in [key for key in CONDITION_SLOTS if key > level]:
        for i in CONDITION_SLOTS[above]:
            if i is not None:
                nine[i] = 0
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, n))
    a = draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)]))
    a3, a2, t = CONDITION_SLOTS[level]
    nine[a3] = a
    if t is not None:
        nine[a2], nine[t] = a * (1 - m - n), -a * m * n
    elif a2 is not None:
        nine[a2] = a * (1 - n)
    eq = EquationSpec(a3=tuple(nine[:4]), a2=tuple(nine[4:7]), tau=tuple(nine[7:]))
    return eq, n, level


@settings(max_examples=300, deadline=None)
@given(laddered_equations())
def test_band_nullspace_of_equations_with_a_second_candidate(case):
    eq, n, level = case
    assert degree_condition_effective(eq, n) == (
        level, 0 if level > -2 else UPoly([-n * (n - 1) * eq.a3[3].constant_value()]))
    matrix = build_criterion_matrix(eq, n)
    assert gauss_jordan_form(band_nullspace(matrix.bands)) == rational_nullspace(entries(matrix))


@settings(max_examples=150, deadline=None)
@given(band_matrices())
def test_band_determinant_vanishes_exactly_with_the_nullspace(rows):
    bands = bands_of(rows)
    assert dense(bands) == rows
    nullspace = band_nullspace(bands_of(integer_rows(rows)))
    assert (banded_minors(bands)[-1] == 0) == bool(nullspace)


def without_subdiagonal(rows):
    return [[Fraction(0) if j == k - 1 else v for j, v in enumerate(row)]
            for k, row in enumerate(rows)]


def leading_minors(rows):
    return [bareiss_determinant([row[:m] for row in rows[:m]])
            for m in range(1, len(rows) + 1)]


@settings(max_examples=200, deadline=None)
@given(band_matrices())
def test_running_minors_are_the_leading_principal_minors(rows):
    assert banded_minors(bands_of(rows)) == leading_minors(rows)
    # an all-zero subdiagonal takes the recurrence's one-term branch on every row
    upper = without_subdiagonal(rows)
    assert banded_minors(bands_of(upper)) == leading_minors(upper)


def test_running_minors_of_parametric_and_upper_triangular_bands():
    # Bessel with tau00 = t is upper triangular with entries in Q[t]; the
    # Krylov band has a nonzero subdiagonal
    for eq in (bessel_eq(T), krylov_eq(1, T, 2)):
        matrix = build_criterion_matrix(eq, 7)
        assert matrix.leading_minors(range(1, 9)) == leading_minors(entries(matrix))


# ---------------------------------------------------------------------------
# the band entries outside the square are never read

def with_outside(bands, values):
    """The band with A_0, C_n, D_n and D_(n-1), the entries that fall
    outside the square, overwritten by ``values`` (D_(n-1) only for n >= 1)."""
    rows = [list(band) for band in bands]
    n = len(rows) - 1
    for (k, i), value in zip([(0, 0), (n, 2), (n, 3), (n - 1, 3)], values):
        if k >= 0:
            rows[k][i] = value
    return [tuple(row) for row in rows]


outside_ints = st.lists(st.integers(-10**30, 10**30), min_size=4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(band_matrices(), outside_ints)
def test_int_band_kernels_read_no_entry_outside_the_square(rows, values):
    bands = bands_of(integer_rows(rows))  # zero outside the square
    moved = with_outside(bands, values)
    assert banded_minors(moved) == banded_minors(bands)
    assert band_nullspace(moved) == band_nullspace(bands)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.tuples(*(small_fractions for _ in range(9))),
       st.tuples(*(small_fractions for _ in range(9))),
       st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30)),
                min_size=4, max_size=4))
def test_parametric_band_kernels_read_no_entry_outside_the_square(
        n, constants, slopes, values):
    # the packed pair band and the band of UPolys in t, both squared off
    # with zeros and then given arbitrary values there; the shift of the
    # packed minors may grow with the values, the minors it packs may not
    scalars = [UPoly([c, s]) for c, s in zip(constants, slopes)]
    if not any(scalars[:7]) or not any(slopes):
        return
    eq = EquationSpec(a3=tuple(scalars[:4]), a2=tuple(scalars[4:7]), tau=tuple(scalars[7:]))
    pairs = with_outside(build_criterion_matrix(eq, n).bands, [(0, 0)] * 4)
    rows = with_outside([row_entries(eq, k) for k in range(n + 1)], [UPoly()] * 4)

    def unpacked(bands):
        minors, shift = criteria._packed_minors(bands)
        return [criteria._unpack(minor, shift) for minor in minors]

    assert unpacked(with_outside(pairs, values)) == unpacked(pairs)
    polys = [UPoly(value) for value in values]
    assert banded_minors(with_outside(rows, polys)) == banded_minors(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.tuples(*(small_fractions for _ in range(9))),
       st.tuples(*(small_fractions for _ in range(9))), st.integers(0, 8),
       st.integers(2, 6))
def test_integer_band_minors_match_the_rational_band(n, constants, slopes, slot,
                                                     denominator):
    # a parametric cubic c0 + c1 t with rational coefficients; slot's slope
    # 1/denominator makes D > 1 and the equation parametric.  The oracle is
    # the band over Q[t] that the unscaled recurrence gives, with UPoly
    # entries: its running minors and its dense Bareiss determinant.  The
    # scaled band's entries, outside the square too, are its entries times D.
    slopes = [Fraction(1, denominator) if i == slot else c for i, c in enumerate(slopes)]
    scalars = [UPoly([c, s]) for c, s in zip(constants, slopes)]
    if not any(scalars[:7]):
        return
    eq = EquationSpec(a3=tuple(scalars[:4]), a2=tuple(scalars[4:7]),
                      tau=tuple(scalars[7:]))
    matrix = build_criterion_matrix(eq, n)
    assert matrix.scale == lcm(*(c.denominator for c in (*constants, *slopes)))
    assert matrix.scale > 1
    rational_band = [row_entries(eq, k) for k in range(n + 1)]
    assert [[UPoly(pair) for pair in band] for band in matrix.bands] == [
        [matrix.scale * entry for entry in band] for band in rational_band]
    expected = banded_minors(rational_band)
    assert matrix.leading_minors(range(1, n + 2)) == expected
    assert expected[-1] == bareiss_determinant(dense(rational_band))
    assert delta_determinant(eq, n) == expected[-1]
    assert entries(matrix) == dense(rational_band)


# ---------------------------------------------------------------------------
# Z[t] minors packed into ints (Kronecker substitution)

forty_digits = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))
wide_coefficients = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                              forty_digits)


@st.composite
def packed_cases(draw):
    """(n, constants c0, slopes c1, shape) of a one-unknown equation whose
    nine coefficients are c0 + c1 t, with numerators and denominators up to
    40 digits.  "upper" zeroes the subdiagonal and B_r at a random row r,
    so the determinant vanishes identically; "zero row" also zeroes C_r and
    every D, so row r of the band is (0, 0) throughout."""
    n = draw(st.integers(0, 6))
    constants = draw(st.lists(wide_coefficients, min_size=9, max_size=9))
    slopes = draw(st.lists(wide_coefficients, min_size=9, max_size=9))
    shape = draw(st.sampled_from(["generic", "upper", "zero row"]))
    # the unknown enters through a coefficient that the shapes leave free
    slot = draw(st.sampled_from([1, 2, 5] if shape != "generic" else range(9)))
    if not slopes[slot]:
        slopes[slot] = draw(forty_digits.filter(bool))
    if shape != "generic":
        r = draw(st.integers(0, n))
        for part in (constants, slopes):
            part[0] = part[4] = part[7] = Fraction(0)  # a30, a20, t10: A_k = 0
            part[8] = r * ((r - 1) * part[1] + part[5])  # B_r = 0
            if shape == "zero row":
                part[6] = -r * part[2]  # C_r = 0
                part[3] = Fraction(0)  # D_k = 0
    return n, constants, slopes, shape


def sympy_minors(matrix):
    """The leading minors of a parametric ``CriterionMatrix``, by sympy from
    the entries that ``entry`` reads, as expanded expressions in T_SYM."""
    rows = sympy.Matrix([[sympy_of(v) for v in row] for row in entries(matrix)])
    return [sympy.expand(rows[:m, :m].det(method="berkowitz"))
            for m in range(1, matrix.n + 2)]


@settings(max_examples=60, deadline=None)
@given(packed_cases())
def test_packed_minors_match_sympy(case):
    n, constants, slopes, shape = case
    scalars = [UPoly([c, s]) for c, s in zip(constants, slopes)]
    if not any(scalars[:7]):
        return
    eq = EquationSpec(a3=tuple(scalars[:4]), a2=tuple(scalars[4:7]), tau=tuple(scalars[7:]))
    assert not eq.is_numeric
    matrix = build_criterion_matrix(eq, n)
    expected = sympy_minors(matrix)
    got = matrix.leading_minors(range(1, n + 2))
    assert [sympy.expand(sympy_of(m) - e) for m, e in zip(got, expected)] == [0] * (n + 1)
    det = delta_determinant(eq, n)
    assert det == got[-1]
    if shape != "generic":
        assert not det
    if shape == "zero row":
        assert ((0, 0),) * 4 in matrix.bands


def test_packed_minors_with_a_negative_leading_term():
    # every slope is negative, and so is the top coefficient of every
    # odd-order minor: its packed int is negative
    eq = EquationSpec(a3=(UPoly([1, -3]), 2, 0, 5), a2=(UPoly([-2, -7]), 1, 4),
                      tau=(UPoly([0, -5]), UPoly([3, -1])))
    matrix = build_criterion_matrix(eq, 5)
    minors = matrix.leading_minors(range(1, 7))
    assert all(minor.leading < 0 for minor in minors[::2])
    expected = sympy_minors(matrix)
    assert [sympy.expand(sympy_of(m) - e) for m, e in zip(minors, expected)] == [0] * 6


@pytest.mark.parametrize("shift", [3, 4, 8, 63, 64, 65, 200])
def test_unpack_reads_the_extreme_digits_back(shift):
    # every coefficient of a packed minor lies below 2^(B-2) in absolute
    # value; the balanced digits read back the extremes +-(2^(B-2) - 1) in
    # every order, with zeros between them and a negative top digit
    top = (1 << (shift - 2)) - 1
    for coefficients in itertools.product((-top, 0, top), repeat=4):
        coefficients = list(coefficients)
        while coefficients and not coefficients[-1]:
            coefficients.pop()
        value = sum(c << (shift * i) for i, c in enumerate(coefficients))
        assert criteria._unpack(value, shift) == coefficients


def test_packing_bound_covers_every_minor():
    # the shift B of a band leaves every coefficient of every minor below
    # 2^(B-2)
    eq = EquationSpec(a3=(0, 1, 0, 0), a2=(0, 3, 0), tau=(0, UPoly([7, -9])))
    matrix = build_criterion_matrix(eq, 8)
    minors, shift = criteria._packed_minors(matrix.bands)
    for minor in minors:
        assert all(abs(c) < 1 << (shift - 2) for c in criteria._unpack(minor, shift))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8), st.tuples(*(st.integers(-3, 3) for _ in range(9))),
       st.integers(0, 9))
def test_leading_block_is_the_lower_degree_matrix(top, values, slot):
    # slot 0..8 carries the unknown parameter and 9 leaves the equation
    # numeric, so both entry rings are covered
    values = [UPoly([v, 1]) if i == slot else v for i, v in enumerate(values)]
    if not any(values[:7]):
        return
    eq = EquationSpec(a3=tuple(values[:4]), a2=tuple(values[4:7]), tau=tuple(values[7:]))
    matrix = build_criterion_matrix(eq, top)
    for n in range(top + 1):
        assert matrix.leading(n) == build_criterion_matrix(eq, n)
        assert matrix.leading(n).n == n
    with pytest.raises(ValueError):
        matrix.leading(top + 1)


@pytest.mark.parametrize("build", [
    as_scalar,
    lambda text: UPoly(map(parse_rational, [text])),
    lambda text: UPoly([1, text]),
    lambda text: EquationSpec(a3=(0, 0, 0, 1), a2=((0, text), 0, 0), tau=(0, 0)),
], ids=["as_scalar", "from_strings", "UPoly", "EquationSpec"])
def test_library_string_input_keeps_the_digit_limit(build):
    # the bound of CLI input: the value is never built
    with pytest.raises(ValueError, match=f"exceeds {MAX_DIGITS} digits"):
        build("1e5000")
    build(f"1e{MAX_DIGITS - 1}")


def assert_construct_matches_oracle(eq, n):
    matrix = build_criterion_matrix(eq, n)
    rows = entries(matrix)
    expected = [primitive_vector(v) for v in rational_nullspace(rows)]
    if not expected:
        with pytest.raises(NoNullspaceError):
            construct_solution(eq, matrix)
    elif len(expected) == 1:
        assert construct_solution(eq, matrix).coefficients == expected[0]
    else:
        with pytest.raises(AmbiguousNullspaceError) as excinfo:
            construct_solution(eq, matrix)
        solutions = excinfo.value.solutions
        assert [s.coefficients for s in solutions] == expected
        assert all(verify_solution(eq, s.coefficients) for s in solutions)
    return len(expected)


small_ints = st.sampled_from([0, 0, 0, 1, -1, 2, -3])


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10), st.tuples(*(small_ints for _ in range(7))), small_ints)
def test_construct_solution_matches_the_oracle(n, values, t11):
    # the degree condition is imposed, so every nullspace vector is a solution
    a30, a31, a32, a33, a20, a21, a22 = values
    if not any(values):
        return
    eq = EquationSpec(a3=(a30, a31, a32, a33), a2=(a20, a21, a22),
                      tau=(n * (n - 1) * a30 + n * a20, t11))
    assert_construct_matches_oracle(eq, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.data())
def test_ambiguous_nullspace_carries_the_verified_basis(n, data):
    """Two families of nullity two: the Euler equation
    s (x^2 y'' + (1 - k1 - k2) x y' + k1 k2 y) = 0, whose matrix is diagonal
    with zeros at k1 and k2, and c y'' = 0, whose diagonal is zero and whose
    last two rows vanish."""
    s = data.draw(st.sampled_from([1, -2, Fraction(1, 3)]))
    if data.draw(st.booleans()):
        k1, k2 = sorted(data.draw(st.sets(st.integers(0, n), min_size=2, max_size=2)))
        eq = EquationSpec(a3=(0, s, 0, 0), a2=(0, s * (1 - k1 - k2), 0),
                          tau=(0, -s * k1 * k2))
    else:
        eq = EquationSpec(a3=(0, 0, 0, s), a2=(0, 0, 0), tau=(0, 0))
    assert assert_construct_matches_oracle(eq, n) == 2
