import dataclasses
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from polyode import applications, criteria
from polyode.applications import (
    BadDegreeError,
    CoulombProblem,
    DegenerateParametersError,
    chhajlany_analyze,
    chhajlany_spec,
    coulomb_alpha,
    coulomb_constraint,
    coulomb_constraint_in_k,
    coulomb_energy,
    coulomb_equation,
    davidson_eigenvalue,
    davidson_spec,
    hyper_build,
    hyper_verify,
    krylov_robnik_analyze,
    krylov_robnik_spec,
)
from polyode.criteria import (
    EquationSpec,
    build_criterion_matrix,
    construct_solution,
    degree_condition,
    delta_determinant,
    verify_solution,
)
from polyode.exactalg import UPoly

from bandforms import coulomb_problem, hyper_l2_equation, tridiagonal_continuant

T = UPoly([0, 1])


def kp(*ascending):
    return UPoly(ascending)


# ---------------------------------------------------------------------------
# Davidson

DAVIDSON_LISTED = {
    0: lambda mu: UPoly([1]),
    1: lambda mu: UPoly([-3 - 2 * mu, 0, 2]),
    2: lambda mu: UPoly([(3 + 2 * mu) * (5 + 2 * mu), 0, -4 * (5 + 2 * mu), 0, 4]),
    3: lambda mu: UPoly(
        [
            -(3 + 2 * mu) * (5 + 2 * mu) * (7 + 2 * mu),
            0,
            6 * (7 + 2 * mu) * (5 + 2 * mu),
            0,
            -12 * (7 + 2 * mu),
            0,
            8,
        ]
    ),
}


def test_davidson_spec_mapping():
    mu, eps = Fraction(2), Fraction(5)
    eq = davidson_spec(mu, eps)
    assert eq.a3 == (UPoly(), UPoly(), UPoly([1]), UPoly())
    assert eq.a2 == (UPoly([-2]), UPoly(), UPoly([2 * (mu + 1)]))
    assert eq.tau == (UPoly([2 * mu + 3 - eps]), UPoly())


def test_davidson_degree_condition():
    mu = Fraction(1, 2)
    for n in range(4):
        N = 2 * n
        eq = davidson_spec(mu, T)  # eps unknown
        cond = degree_condition(eq, N)
        assert cond == UPoly([2 * mu + 3 + 2 * N, -1])
        assert cond(davidson_eigenvalue(mu, n)) == 0


def test_davidson_eigenvalue_values():
    assert davidson_eigenvalue(0, 0) == 3
    assert davidson_eigenvalue(T, 1) == 2 * T + UPoly([7])
    assert davidson_eigenvalue(Fraction(1, 2), 2) == 12


def test_davidson_listed_polynomials():
    for mu in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        for n in range(4):
            eq = davidson_spec(mu, davidson_eigenvalue(mu, n))
            sol = construct_solution(eq, build_criterion_matrix(eq, 2 * n))
            got = sol.polynomial()
            listed = DAVIDSON_LISTED[n](mu)
            assert got * listed.leading == listed * got.leading
            assert verify_solution(eq, sol.coefficients)


def test_davidson_odd_degrees_balk():
    for mu in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
        for N in (1, 3, 5):
            eps = 2 * mu + 3 + 2 * N
            eq = davidson_spec(mu, eps)
            assert degree_condition(eq, N) == 0
            assert delta_determinant(eq, N) != 0


# ---------------------------------------------------------------------------
# shifted Coulomb

def test_coulomb_problem_k():
    assert CoulombProblem(1, 3, 0).k == 0
    assert CoulombProblem(1, 3, 1).k == 1
    assert CoulombProblem(2, 2, 0).k == Fraction(-1, 2)
    with pytest.raises(ValueError):
        CoulombProblem(1, 1, 0)
    with pytest.raises(ValueError):
        CoulombProblem(1, 3, -1)
    # Z <= 0 makes alpha = Z/(n+k+1) nonpositive, so e^(-alpha r) does not decay
    for Z in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="charge Z must be positive"):
            CoulombProblem(Z, 3, 0)
    # the shift is the unknown of coulomb_equation, not a field
    assert [f.name for f in dataclasses.fields(CoulombProblem)] == ["Z", "d", "l"]


def test_coulomb_energy():
    assert coulomb_energy(CoulombProblem(1, 3, 0), 0) == Fraction(-1, 2)
    assert coulomb_energy(CoulombProblem(1, 3, 1), 0) == Fraction(-1, 8)
    assert coulomb_energy(CoulombProblem(1, 3, 0), 1) == Fraction(-1, 8)
    # k = -1/2 here, so n + k + 1 = 1/2 and E = -(1/2) * 4 / (1/4)
    assert coulomb_energy(CoulombProblem(2, 2, 0), 0) == -8


@pytest.mark.parametrize("build", [coulomb_alpha, coulomb_energy, coulomb_equation])
def test_coulomb_builders_reject_a_negative_degree(build):
    # k = 0 here, so n = -1 would make n + k + 1 vanish
    with pytest.raises(ValueError, match="nonnegative"):
        build(CoulombProblem(1, 3, 0), -1)


def _entries_off_closed_forms(p, n, eq):
    """(row, column) of each entry of eq's degree-n band that differs from
    the Coulomb closed forms; row j is tridiagonal, identically in beta:
        diagonal       2 alpha beta (k+j+1) - j (j+2k+1)
        subdiagonal    2 alpha (j-n-1)
        superdiagonal  -(j+1) beta (j+2k+2)"""
    k, alpha = p.k, coulomb_alpha(p, n)
    matrix = build_criterion_matrix(eq, n)
    off = []
    for j in range(n + 1):
        closed = {j: UPoly([-j * (j + 2 * k + 1), 2 * alpha * (k + j + 1)]),
                  j - 1: UPoly([2 * alpha * (j - n - 1)]),
                  j + 1: UPoly([0, -(j + 1) * (j + 2 * k + 2)])}
        off += [(j, col) for col in range(n + 1)
                if matrix.entry(j, col) != closed.get(col, UPoly())]
    return off


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
       st.integers(2, 6), st.integers(0, 3), st.integers(1, 12))
def test_coulomb_band_entries_match_their_closed_forms(Z, d, l, n):
    p = CoulombProblem(Z, d, l)
    assert _entries_off_closed_forms(p, n, coulomb_equation(p, n)) == []


def test_coulomb_equation_rejects_entries_off_their_closed_forms():
    # the closed-form check flags a change of any one of the nine
    # coefficients of coulomb_equation, in its constant or its beta part
    p, n = CoulombProblem(1, 3, 0), 3
    eq = coulomb_equation(p, n)
    for name, size in (("a3", 4), ("a2", 3), ("tau", 2)):
        for i in range(size):
            for bump in (UPoly([1]), UPoly([0, 1])):
                coeffs = list(getattr(eq, name))
                coeffs[i] = coeffs[i] + bump
                tampered = dataclasses.replace(eq, **{name: tuple(coeffs)})
                assert _entries_off_closed_forms(p, n, tampered), (name, i, bump)


def test_coulomb_equation_checks_its_band_on_every_call():
    # the closed-form band check runs here, on the equation of each call,
    # n = 0 included, which the hypothesis draw above skips
    for (d, l, n) in ((3, 0, 0), (3, 0, 1), (3, 1, 2), (2, 0, 3), (5, 2, 2)):
        p = CoulombProblem(1, d, l)
        eq = coulomb_equation(p, n)
        assert _entries_off_closed_forms(p, n, eq) == []
        assert eq.substitute(2).is_numeric


@pytest.mark.parametrize("Z, beta, d, l, n", [
    (1, 2, 3, 0, 1), (3, Fraction(1, 3), 2, 1, 4), (Fraction(5, 2), 7, 5, 2, 3)])
def test_coulomb_equation_in_beta_fixes_to_the_equation_at_each_shift(Z, beta, d, l, n):
    p = CoulombProblem(Z, d, l)
    k, alpha = p.k, coulomb_alpha(p, n)
    eq = coulomb_equation(p, n)
    assert eq.unknown == "beta" and not eq.is_numeric
    # r(r+beta) f'' + (-2 alpha r^2 + 2(k+1-alpha beta) r + 2 beta(k+1)) f'
    #   + ((2Z - 2 alpha(k+1)) r - 2 alpha beta (k+1)) f = 0 at this beta
    fixed = eq.substitute(beta)
    assert fixed.a3 == tuple(map(UPoly.constant, (0, 1, beta, 0)))
    assert fixed.a2 == tuple(map(UPoly.constant, (
        -2 * alpha, 2 * (k + 1 - alpha * beta), 2 * beta * (k + 1))))
    assert fixed.tau == tuple(map(UPoly.constant, (
        2 * alpha * (k + 1) - 2 * Z, 2 * alpha * beta * (k + 1))))


def test_coulomb_generic_entries_match_closed_forms_symbolically():
    # carry k as the unknown; Z is eliminated through alpha = Z/(n+k+1)
    alpha, beta = Fraction(1, 2), Fraction(2)
    from polyode.criteria import EquationSpec, build_criterion_matrix

    for n in range(1, 5):
        z = alpha * (T + UPoly([n + 1]))  # alpha (n + k + 1), linear in k
        spec = EquationSpec(
            a3=(0, 1, beta, 0),
            a2=(
                -2 * alpha,
                2 * (T + UPoly([1]) - UPoly([alpha * beta])),
                2 * beta * (T + UPoly([1])),
            ),
            tau=(
                2 * alpha * (T + UPoly([1])) - 2 * z,
                2 * alpha * beta * (T + UPoly([1])),
            ),
        )
        matrix = build_criterion_matrix(spec, n)
        t = alpha * beta
        for j in range(n + 1):
            # diagonal: 2 alpha beta (k+j+1) - j(j+2k+1), linear in k
            assert matrix.entry(j, j) == UPoly(
                [2 * t * (j + 1) - j * (j + 1), 2 * t - 2 * j]
            )
            if j >= 1:
                assert matrix.entry(j, j - 1) == UPoly([2 * alpha * (j - n - 1)])
            if j + 1 <= n:
                assert matrix.entry(j, j + 1) == UPoly(
                    [-(j + 1) * beta * (j + 2), -(j + 1) * beta * 2]
                )


COULOMB_CONSTRAINTS = {
    1: [kp(-1), kp(1)],
    2: [kp(3, 2), kp(-6, -3), kp(2, 1)],
    3: [
        -3 * kp(2, 1) * kp(3, 2),
        kp(54, 50, 11),
        -6 * kp(3, 1) * kp(2, 1),
        kp(3, 1) * kp(2, 1),
    ],
    4: [
        6 * kp(2, 1) * kp(3, 2) * kp(5, 2),
        -kp(720, 925, 381, 50),
        kp(720, 823, 300, 35),
        -10 * kp(2, 1) * kp(3, 1) * kp(4, 1),
        kp(2, 1) * kp(3, 1) * kp(4, 1),
    ],
}


def test_coulomb_constraints_symbolic_k():
    # each listed constraint is already primitive, so the result must equal
    # it term by term: one UPoly in k per power of t
    for n, expected in COULOMB_CONSTRAINTS.items():
        assert coulomb_constraint_in_k(n) == tuple(expected), f"n={n}"


def continuant_constraint(k, n):
    """The Coulomb constraint for a rational k from the closed-form
    tridiagonal entries of the unscaled equation, in t = alpha beta:
    diagonal -(j(j+1) + 2jk) + (2(j+1) + 2k) t, and off-diagonal products
    -2(j-n)(j+1)(j+2+2k) t, whose continuant is reduced as the library
    reduces its band determinant."""
    diagonal = [UPoly([-j * (j + 1) - 2 * j * k, 2 * (j + 1) + 2 * k]) for j in range(n + 1)]
    products = [UPoly([0, -2 * (j - n) * (j + 1) * (j + 2 + 2 * k)]) for j in range(n)]
    return applications._reduce_constraint(tridiagonal_continuant(diagonal, products))


K_SYM, T_SYM = sympy.symbols("k t")


def sympy_continuant_constraint(n):
    """The same continuant with k symbolic, computed and made primitive by
    sympy over Z[k][t]: its content in Z[k] (the gcd in k and the integer
    content) and the factor t^j are stripped, and the top coefficient in k
    of the top power of t made positive.  Returned as one UPoly in k per
    power of t."""
    diagonal = [-(j * (j + 1) + 2 * j * K_SYM) + (2 * (j + 1) + 2 * K_SYM) * T_SYM
                for j in range(n + 1)]
    products = [-2 * (j - n) * (j + 1) * (j + 2 + 2 * K_SYM) * T_SYM for j in range(n)]
    det = sympy.Poly(tridiagonal_continuant(diagonal, products), T_SYM,
                     domain=sympy.ZZ[K_SYM])
    _, primitive = det.primitive()
    coeffs = [sympy.Poly(c.as_expr(), K_SYM) for c in reversed(primitive.all_coeffs())]
    while coeffs[0].is_zero:
        coeffs.pop(0)
    sign = -1 if coeffs[-1].LC() < 0 else 1
    return tuple(UPoly(sign * int(c) for c in reversed(p.all_coeffs())) for p in coeffs)


@pytest.mark.parametrize("k", [Fraction(-1, 2), 0, Fraction(1, 2), 1, Fraction(3, 2), 5])
def test_coulomb_constraint_matches_the_continuant_oracle(k):
    for n in range(1, 21):
        assert coulomb_constraint(coulomb_problem(k), n) == continuant_constraint(Fraction(k), n), n


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=12),
       st.integers(-1, 10), st.integers(1, 12))
def test_coulomb_constraint_for_a_rational_charge_matches_the_continuant_oracle(Z, twice_k, n):
    # alpha = Z/(n+k+1) puts a denominator into the band, and the
    # constraint in t = alpha beta must not depend on Z
    k = Fraction(twice_k, 2)
    assert coulomb_constraint(coulomb_problem(k, Z), n) == continuant_constraint(k, n)


def test_coulomb_symbolic_constraint_matches_the_continuant_oracle():
    for n in range(1, 9):
        assert coulomb_constraint_in_k(n) == sympy_continuant_constraint(n), n


def test_coulomb_constraint_numeric_k():
    p = CoulombProblem(1, 3, 0)  # k = 0
    assert coulomb_constraint(p, 1) == UPoly([-1, 1])
    assert coulomb_constraint(p, 2) == UPoly([3, -6, 2])


def test_coulomb_constraint_consistent_with_generic_determinant():
    # the generic path determinant vanishes exactly on constraint roots
    p = CoulombProblem(1, 3, 0)  # k=0, n=1: root alpha*beta = 1
    n = 1
    alpha = coulomb_alpha(p, n)
    assert alpha == Fraction(1, 2)
    eq = coulomb_equation(p, n).substitute(2)  # beta = 2
    assert degree_condition(eq, n) == 0
    assert delta_determinant(eq, n) == 0
    sol = construct_solution(eq, build_criterion_matrix(eq, n))
    assert verify_solution(eq, sol.coefficients)

    eq_off = coulomb_equation(p, n).substitute(3)  # alpha*beta = 3/2, not a root
    assert delta_determinant(eq_off, n) != 0


def test_coulomb_irrational_roots_certified_by_sign_change():
    # k=0, n=2: roots (3 +- sqrt(3))/2 are irrational; certify each isolating
    # interval by an exact sign change of the constraint at its endpoints
    from polyode.solve import isolate_real_roots

    constraint = coulomb_constraint(CoulombProblem(1, 3, 0), 2)
    report = isolate_real_roots(constraint)
    assert len(report.intervals) == 2
    for lo, hi in report.intervals:
        assert constraint(lo) * constraint(hi) < 0


def test_coulomb_end_to_end_n2():
    # k = 1/2 (d=4, l=0): constraint (k+2) t^2 - 3(k+2) t + (2k+3) has
    # rational root? discriminant 9(k+2)^2 - 4(k+2)(2k+3); at k=1/2:
    # (5/2)(t^2 - 3t) + 4 -> roots (3 +- 1/5 sqrt(45-32))/2, irrational.
    # Verify instead by exact evaluation at both roots of the quadratic in
    # an extension-free way: plug the constraint into the determinant path
    # on a fine rational grid and compare signs.
    p = CoulombProblem(1, 4, 0)
    n = 2
    c = coulomb_constraint(p, n)
    assert c.degree == 2
    alpha = coulomb_alpha(p, n)
    for tval in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
        beta = tval / alpha
        det = delta_determinant(coulomb_equation(p, n).substitute(beta), n)
        if c(tval) == 0:
            assert det == 0
        else:
            assert det != 0


# ---------------------------------------------------------------------------
# Krylov-Robnik

def test_krylov_robnik_spec_mapping():
    eq = krylov_robnik_spec(3, -8, 1)
    assert eq.a3 == (UPoly([1]), UPoly(), UPoly(), UPoly())
    assert eq.a2 == (UPoly([3]), UPoly(), UPoly([-3]))
    assert eq.tau == (UPoly([8]), UPoly([-1]))


def test_krylov_robnik_n1():
    alpha = Fraction(1)
    beta, constraint = krylov_robnik_analyze(alpha, 1)
    assert beta == -alpha
    assert constraint == UPoly([-alpha * alpha, 0, 1])


def test_krylov_robnik_n2():
    alpha = Fraction(3)
    beta, constraint = krylov_robnik_analyze(alpha, 2)
    assert beta == -2 * (alpha + 1)
    assert constraint == UPoly([0, 2 * alpha * (2 * alpha + 3), 0, -1])


def test_krylov_robnik_alpha0():
    beta, constraint = krylov_robnik_analyze(0, 1)
    assert beta == 0
    assert constraint == UPoly([0, 0, 1])  # double root at gamma = 0


def test_krylov_robnik_rational_root_end_to_end():
    # alpha = 1/2 makes 2 alpha (2 alpha + 3) = 4, so gamma = +-2 are exact
    alpha = Fraction(1, 2)
    beta, constraint = krylov_robnik_analyze(alpha, 2)
    assert constraint(2) == 0 and constraint(-2) == 0
    for gamma in (2, -2, 0):
        eq = krylov_robnik_spec(alpha, beta, gamma)
        sol = construct_solution(eq, build_criterion_matrix(eq, 2))
        assert verify_solution(eq, sol.coefficients)


# ---------------------------------------------------------------------------
# Chhajlany-Malnev

def test_chhajlany_matrix_rows():
    p = Fraction(7)
    for n in range(1, 6):
        from polyode.criteria import build_criterion_matrix

        eq = chhajlany_spec(p, 2 * n, T)
        m = build_criterion_matrix(eq, n)
        for k in range(n + 1):
            for j in range(n + 1):
                if j == k - 1:
                    assert m.entry(k, j) == -2 * n + 2 * (k - 1)
                elif j == k:
                    assert m.entry(k, j) == UPoly([0, -1])
                elif j == k + 1:
                    assert m.entry(k, j) == -(k + 1) * p
                elif j == k + 2:
                    assert m.entry(k, j) == -(k + 2) * (k + 1)
                else:
                    assert m.entry(k, j) == UPoly()


def test_chhajlany_n1_constraint():
    p = Fraction(3)
    assert chhajlany_analyze(p, 1) == UPoly([-2 * p, 0, 1])


def test_chhajlany_p0():
    assert chhajlany_analyze(0, 1) == UPoly([0, 0, 1])


def test_chhajlany_rational_root_end_to_end():
    # p = 2: constraint t^2 - 4, roots alpha = +-2
    constraint = chhajlany_analyze(2, 1)
    assert constraint == UPoly([-4, 0, 1])
    for alpha in (2, -2):
        eq = chhajlany_spec(2, 2, alpha)
        sol = construct_solution(eq, build_criterion_matrix(eq, 1))
        assert verify_solution(eq, sol.coefficients)


# ---------------------------------------------------------------------------
# hypergeometric class

def test_hyper_build_trivial_series():
    sol = hyper_build(1, 0, 2, 1, 1)
    assert sol.series == (1,)
    assert sol.polynomial() == UPoly([0, 0, 1])  # x^2


def test_hyper_build_one_term():
    sol = hyper_build(1, 1, 2, Fraction(1), Fraction(1))
    # x^2 + a x^3 / (4 b)
    assert sol.polynomial() == UPoly([0, 0, 1, Fraction(1, 4)])


def test_hyper_bad_degree():
    with pytest.raises(BadDegreeError):
        hyper_build(1, 1, 3, 1, 1)


def test_hyper_degenerate_parameters():
    with pytest.raises(DegenerateParametersError):
        hyper_build(1, 1, 2, 1, 0)


def test_hyper_verify_grid():
    values = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))
    checked = 0
    for l in (2, 3, 4):
        for m in range(1, 5):
            for n in range(0, 5):
                if l > 2 and n % (l - 1):
                    continue
                for a in values:
                    for b in values:
                        assert hyper_verify(hyper_build(m, n, l, a, b))
                        checked += 1
    assert checked == (5 + 3 + 2) * 4 * 16


def test_hyper_verify_rejects_perturbation():
    sol = hyper_build(1, 1, 2, 1, 1)
    perturbed = type(sol)(
        m=sol.m, n=sol.n, l=sol.l, a=sol.a, b=sol.b,
        prefactor_exponent=sol.prefactor_exponent,
        series=(Fraction(1), Fraction(1, 3)),
    )
    assert not hyper_verify(perturbed)


def test_hyper_verify_work_grows_linearly_with_the_power_step(monkeypatch):
    # x^(l-1) and x^l built by repeated dense multiplication took about l^2
    # coefficient products: 57 s at l = 3000, for a three-term report.  The
    # residual test skips zero coefficients, so on the cleared equation's
    # dense lists its work is linear in their lengths
    l = 3000
    sizes = []

    def recording(*polys):
        sizes.append(sum(map(len, polys)))
        return original(*polys)

    original = applications.residual_vanishes
    monkeypatch.setattr(applications, "residual_vanishes", recording)
    assert hyper_verify(hyper_build(1, 0, l, 1, 1))
    assert len(sizes) == 1 and sizes[0] <= 3 * l


def test_hyper_l2_generic_cross_check():
    # degree condition holds identically at N = n + m + 1 and the generic
    # construction reproduces the series polynomial up to scale
    m, n, a, b = 2, 2, Fraction(1), Fraction(2)
    sol = hyper_build(m, n, 2, a, b)
    eq = hyper_l2_equation(m, n, a, b)
    N = n + m + 1
    assert degree_condition(eq, N) == 0
    assert verify_solution(eq, sol.polynomial().coeffs)
    built = construct_solution(eq, build_criterion_matrix(eq, N))
    got, expected = built.polynomial(), sol.polynomial()
    assert got * expected.leading == expected * got.leading
