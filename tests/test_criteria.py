import ast
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyode import criteria
from polyode.criteria import (
    AmbiguousNullspaceError,
    DegenerateDenominatorError,
    EquationSpec,
    NoNullspaceError,
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
    necessary_condition_general,
    primitive_vector,
    rational_nullspace,
    row_entries,
    verify_solution,
)
from polyode.exactalg import UPoly, bareiss_determinant

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
    with pytest.raises(ValueError):
        EquationSpec(a3=(0, 0, 0, 1), a2=(0, 0, 0), tau=(UPoly([0, 0, 1]), 0))


def test_coefficient_polynomials():
    eq = davidson_eq(0, 3)
    assert eq.p3() == UPoly([0, 1])
    assert eq.p2() == UPoly([2, 0, -2])
    assert eq.p1() == UPoly([0, 0])
    assert eq.is_numeric


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


# ---------------------------------------------------------------------------
# necessary condition for the general hierarchy

def test_necessary_condition_bessel():
    for n in range(8):
        assert necessary_condition_general(1, 2, n * (n + 1), n, k=0)


def test_necessary_condition_counterexample():
    assert not necessary_condition_general(1, 2, 5, 2, k=0)


def test_necessary_condition_n0():
    assert necessary_condition_general(4, 7, 0, 0, k=3)


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
    assert m.rows == (
        (UPoly([0, -1]), UPoly([2])),
        (UPoly([2]), UPoly([0, -1])),
    )


def test_matrix_n0():
    eq = krylov_eq(1, 4, 9)
    m = build_criterion_matrix(eq, 0)
    assert m.rows == ((UPoly([-9]),),)


def test_truncation_closure_symbolically():
    eq = krylov_eq(3, T, 1)
    for n in range(7):
        sub, _, _, _ = row_entries(eq, n + 1)
        assert sub == degree_condition(eq, n)


def test_broken_closure_raises_even_without_asserts(monkeypatch):
    # the check must not be an assert, which python -O removes
    monkeypatch.setattr(criteria, "degree_condition", lambda eq, n: UPoly([1]))
    with pytest.raises(ArithmeticError, match="closure"):
        build_criterion_matrix(krylov_eq(1, 4, 9), 2)


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
        assert delta_determinant(eq, n) == bareiss_determinant(m.as_lists())


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
    sol = construct_solution(eq, 2)
    assert sol.coefficients == (-3, 0, 2)
    assert sol.reported_degree == 2
    assert sol.residual_is_zero


def test_construct_bessel_degree1():
    eq = bessel_eq(classical_tau(1, 2, 1))
    sol = construct_solution(eq, 1)
    # 2x + 2 up to scale
    assert sol.coefficients == (1, 1)


def test_construct_constant_solution():
    eq = EquationSpec(a3=(0, 0, 1, 0), a2=(1, 0, 0), tau=(0, 0))
    sol = construct_solution(eq, 0)
    assert sol.coefficients == (1,)
    assert sol.reported_degree == 0


def test_construct_nonsingular_raises():
    eq = bessel_eq(5)
    with pytest.raises(NoNullspaceError):
        construct_solution(eq, 2)


def test_construct_ambiguous_nullspace():
    # y'' = 0 admits both 1 and x at degree 1
    eq = EquationSpec(a3=(0, 0, 0, 1), a2=(0, 0, 0), tau=(0, 0))
    with pytest.raises(AmbiguousNullspaceError) as excinfo:
        construct_solution(eq, 1)
    sols = excinfo.value.solutions
    assert len(sols) == 2
    assert all(s.residual_is_zero for s in sols)


def test_reported_degree_below_requested():
    # Bessel tau00 = 2 targets degree 1; at requested n = 2 the nullspace
    # vector still has c_2 = 0 and the true degree is reported
    eq = bessel_eq(2)
    sol = construct_solution(eq, 2)
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
        sol = construct_solution(eq, n)
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
        rows = [[e.constant_value() for e in row] for row in matrix.rows]
        nullity = len(rational_nullspace(rows))
        assert (det == 0) == (nullity >= 1), (eq, n)
        seen += 1
