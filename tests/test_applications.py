import dataclasses
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
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
    coulomb_constraint_for_k,
    coulomb_constraint_in_k,
    coulomb_energy,
    coulomb_equation,
    coulomb_spec,
    davidson_eigenvalue,
    davidson_spec,
    hyper_build,
    hyper_equation_spec,
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

from bandforms import tridiagonal_continuant

T = UPoly([0, 1])
K = UPoly([0, 1])


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
            assert sol.residual_is_zero


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
    assert CoulombProblem(1, 1, 3, 0).k == 0
    assert CoulombProblem(1, 1, 3, 1).k == 1
    assert CoulombProblem(2, 1, 2, 0).k == Fraction(-1, 2)
    with pytest.raises(ValueError):
        CoulombProblem(1, 0, 3, 0)
    with pytest.raises(ValueError):
        CoulombProblem(1, 1, 1, 0)
    # Z <= 0 makes alpha = Z/(n+k+1) nonpositive, so e^(-alpha r) does not decay
    for Z in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="charge Z must be positive"):
            CoulombProblem(Z, 1, 3, 0)


def test_coulomb_energy():
    assert coulomb_energy(CoulombProblem(1, 1, 3, 0), 0) == Fraction(-1, 2)
    assert coulomb_energy(CoulombProblem(1, 1, 3, 1), 0) == Fraction(-1, 8)
    assert coulomb_energy(CoulombProblem(1, 1, 3, 0), 1) == Fraction(-1, 8)
    # k = -1/2 here, so n + k + 1 = 1/2 and E = -(1/2) * 4 / (1/4)
    assert coulomb_energy(CoulombProblem(2, 1, 2, 0), 0) == -8


def test_coulomb_spec_rejects_entries_off_their_closed_forms(monkeypatch):
    def tampered(eq, n):
        matrix = build_criterion_matrix(eq, n)
        bands = [list(band) for band in matrix.bands]
        e0, e1 = bands[0][1]  # B_0, the entry at (0, 0), is e0 + e1 beta
        bands[0][1] = (e0, e1 + 1)
        return dataclasses.replace(matrix, bands=tuple(map(tuple, bands)))

    monkeypatch.setattr(applications, "build_criterion_matrix", tampered)
    with pytest.raises(ArithmeticError, match="closed form"):
        coulomb_spec(CoulombProblem(1, 2, 3, 0), 2)


def test_coulomb_constraint_runs_the_closure_check(monkeypatch):
    # a rational k and a symbolic one both build their bands with
    # build_criterion_matrix, which checks that row n+1 closes the degree
    # condition
    original = criteria._degree_condition
    monkeypatch.setattr(criteria, "_degree_condition",
                        lambda coefficients, n: original(coefficients, n) + 1)
    with pytest.raises(ArithmeticError, match="closure"):
        coulomb_constraint_for_k(Fraction(1, 2), 3)
    with pytest.raises(ArithmeticError, match="closure"):
        coulomb_constraint_in_k(3)


def test_coulomb_spec_entries_assert_internally():
    # the closed-form entry check runs inside coulomb_spec
    for (d, l, n) in ((3, 0, 1), (3, 1, 2), (2, 0, 3), (5, 2, 2)):
        p = CoulombProblem(1, 2, d, l)
        eq = coulomb_spec(p, n)
        assert eq.is_numeric


@pytest.mark.parametrize("Z, beta, d, l, n", [
    (1, 2, 3, 0, 1), (3, Fraction(1, 3), 2, 1, 4), (Fraction(5, 2), 7, 5, 2, 3)])
def test_coulomb_equation_in_beta_fixes_to_the_equation_at_each_shift(Z, beta, d, l, n):
    p = CoulombProblem(Z, beta, d, l)
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
    assert coulomb_spec(p, n) == fixed


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
        assert coulomb_constraint_for_k(k, n) == continuant_constraint(Fraction(k), n), n


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-3, max_value=6, max_denominator=12), st.integers(1, 12))
def test_coulomb_constraint_for_rational_k_matches_the_continuant_oracle(k, n):
    # any rational k, so the Z[t] band is scaled by the denominator of 2(k+1)
    assert coulomb_constraint_for_k(k, n) == continuant_constraint(k, n)


def test_coulomb_symbolic_constraint_matches_the_continuant_oracle():
    for n in range(1, 9):
        assert coulomb_constraint_in_k(n) == sympy_continuant_constraint(n), n


def test_symbolic_k_takes_no_polynomial():
    # k symbolic is coulomb_constraint_in_k; the rational path reads a number
    with pytest.raises(TypeError):
        coulomb_constraint_for_k(K, 2)


affine_parts = st.tuples(*(st.integers(-3, 3) for _ in range(4)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.lists(affine_parts, min_size=9, max_size=9))
def test_determinant_in_k_matches_sympy_on_a_random_bilinear_equation(n, parts):
    """Nine coefficients c0 + c1 k + c2 t + c3 k t, so every band entry is
    affine in k and in t.  The determinant interpolated in k over the
    packed band in t equals sympy's determinant of the matrix whose entry
    (i, j) is minus the x^i coefficient of the equation applied to y = x^j,
    built over Q[k, t] without the A..D formulas."""
    def equation_at(k):
        pairs = [(c0 + c1 * k, c2 + c3 * k) for c0, c1, c2, c3 in parts]
        return EquationSpec(a3=pairs[:4], a2=pairs[4:7], tau=pairs[7:])

    # the equation must keep a first- or second-order part at every sample
    assume(all(any(c0 + c1 * k or c2 + c3 * k for c0, c1, c2, c3 in parts[:7])
               for k in range(n + 2)))
    x = sympy.Symbol("x")
    a30, a31, a32, a33, a20, a21, a22, t10, t11 = (
        c0 + c1 * K_SYM + c2 * T_SYM + c3 * K_SYM * T_SYM for c0, c1, c2, c3 in parts)
    matrix = sympy.zeros(n + 1, n + 1)
    for j in range(n + 1):
        y = x ** j
        residual = sympy.expand(
            (a30 * x**3 + a31 * x**2 + a32 * x + a33) * sympy.diff(y, x, 2)
            + (a20 * x**2 + a21 * x + a22) * sympy.diff(y, x)
            - (t10 * x + t11) * y)
        for i in range(n + 1):
            matrix[i, j] = -residual.coeff(x, i)
    det = applications._determinant_in_k(equation_at, n)
    assert len(det) == n + 2
    ours = sum(sympy.Rational(c.numerator, c.denominator) * K_SYM ** i * T_SYM ** power
               for power, poly in enumerate(det) for i, c in enumerate(poly.coeffs))
    assert sympy.expand(ours - matrix.det(method="berkowitz")) == 0


def test_coulomb_constraint_numeric_k():
    assert coulomb_constraint_for_k(Fraction(0), 1) == UPoly([-1, 1])
    assert coulomb_constraint_for_k(Fraction(0), 2) == UPoly([3, -6, 2])
    p = CoulombProblem(1, 2, 3, 0)
    assert coulomb_constraint(p, 1) == UPoly([-1, 1])


def test_coulomb_constraint_consistent_with_generic_determinant():
    # the generic path determinant vanishes exactly on constraint roots
    p = CoulombProblem(1, 2, 3, 0)  # k=0, n=1: root alpha*beta = 1
    n = 1
    alpha = coulomb_alpha(p, n)
    assert alpha == Fraction(1, 2)
    assert p.beta * alpha == 1
    eq = coulomb_spec(p, n)
    assert degree_condition(eq, n) == 0
    assert delta_determinant(eq, n) == 0
    sol = construct_solution(eq, build_criterion_matrix(eq, n))
    assert sol.residual_is_zero

    off = CoulombProblem(1, 3, 3, 0)  # alpha*beta = 3/2, not a root
    eq_off = coulomb_spec(off, n)
    assert delta_determinant(eq_off, n) != 0


def test_coulomb_irrational_roots_certified_by_sign_change():
    # k=0, n=2: roots (3 +- sqrt(3))/2 are irrational; certify each isolating
    # interval by an exact sign change of the constraint at its endpoints
    from polyode.solve import isolate_real_roots

    constraint = coulomb_constraint_for_k(Fraction(0), 2)
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
    p = CoulombProblem(1, 1, 4, 0)
    n = 2
    c = coulomb_constraint(p, n)
    assert c.degree == 2
    alpha = coulomb_alpha(p, n)
    for tval in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
        beta = tval / alpha
        q = CoulombProblem(1, beta, 4, 0)
        det = delta_determinant(coulomb_spec(q, n), n)
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
        assert sol.residual_is_zero
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
        assert sol.residual_is_zero


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
    # coefficient products: 57 s at l = 3000, for a three-term report
    l = 3000
    budget = [10 * l]
    multiply = UPoly.__mul__

    def counted(self, other):
        if isinstance(other, UPoly):
            budget[0] -= len(self.coeffs) * len(other.coeffs)
            assert budget[0] >= 0, "superlinear work in the power step"
        return multiply(self, other)

    monkeypatch.setattr(UPoly, "__mul__", counted)
    assert hyper_verify(hyper_build(1, 0, l, 1, 1))


def test_hyper_l2_generic_cross_check():
    # degree condition holds identically at N = n + m + 1 and the generic
    # construction reproduces the series polynomial up to scale
    m, n, a, b = 2, 2, Fraction(1), Fraction(2)
    sol = hyper_build(m, n, 2, a, b)
    eq = hyper_equation_spec(m, n, 2, a, b)
    N = n + m + 1
    assert degree_condition(eq, N) == 0
    assert verify_solution(eq, sol.polynomial().coeffs)
    built = construct_solution(eq, build_criterion_matrix(eq, N))
    got, expected = built.polynomial(), sol.polynomial()
    assert got * expected.leading == expected * got.leading
