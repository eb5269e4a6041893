from fractions import Fraction

import pytest

from polyode.criteria import (
    build_criterion_matrix,
    construct_solution,
    degree_condition,
    delta_determinant,
    verify_solution,
)
from polyode.exactalg import UPoly
from polyode.heun import (
    FuchsianViolationError,
    biconfluent_to_spec,
    confluent_to_spec,
    fuchsian_residual,
    general_to_spec,
)

T = UPoly([0, 1])


# ---------------------------------------------------------------------------
# confluent family

def test_confluent_mapping():
    eq = confluent_to_spec(alpha=2, beta=3, gamma=5, mu=7, nu=11)
    assert eq.a3 == (UPoly(), UPoly([1]), UPoly([-1]), UPoly())
    assert eq.a2 == (UPoly([2]), UPoly([3 + 5 - 2 + 2]), UPoly([-1]))
    assert eq.tau == (UPoly([-18]), UPoly([7]))


def test_confluent_degree_condition_symbolic():
    # with mu unknown: mu + nu + n alpha = 0
    alpha, nu = Fraction(3), Fraction(-5)
    for n in range(9):
        eq = confluent_to_spec(alpha=alpha, beta=1, gamma=2, mu=T, nu=nu)
        cond = degree_condition(eq, n)
        assert cond == UPoly([-nu - n * alpha, -1])
        assert cond(-nu - n * alpha) == 0


def test_confluent_matrix_row0():
    alpha = Fraction(4)
    eq = confluent_to_spec(alpha=alpha, beta=1, gamma=1, mu=T, nu=0)
    m = build_criterion_matrix(eq, 2)
    assert m.entry(0, 0) == T
    assert m.entry(0, 1) == UPoly([alpha - 1])
    assert m.entry(0, 2) == UPoly()


def test_confluent_subdiagonal_pattern():
    # under the degree condition the subdiagonal runs n*alpha, (n-1)*alpha, ...
    alpha, n = Fraction(2), 4
    eq = confluent_to_spec(
        alpha=alpha, beta=1, gamma=3,
        mu=T, nu=UPoly([-n * alpha, -1]),  # nu = -n alpha - mu
    )
    assert degree_condition(eq, n) == 0
    m = build_criterion_matrix(eq, n)
    for k in range(1, n + 1):
        assert m.entry(k, k - 1) == UPoly([(n - k + 1) * alpha])


def test_confluent_diagonal_entries():
    alpha, beta, gamma = Fraction(2), Fraction(3), Fraction(5)
    b = gamma + beta - alpha + 2
    eq = confluent_to_spec(alpha=alpha, beta=beta, gamma=gamma, mu=T, nu=0)
    m = build_criterion_matrix(eq, 3)
    for k in range(4):
        assert m.entry(k, k) == UPoly([-k * (k - 1) - k * b, 1])


def test_confluent_n1_determinant():
    # 2x2 with mu unknown and nu tied by the degree condition:
    # mu(mu - (gamma+beta-alpha+2)) - alpha(alpha-1)
    alpha, beta, gamma, n = Fraction(3), Fraction(1), Fraction(2), 1
    b = gamma + beta - alpha + 2
    eq = confluent_to_spec(
        alpha=alpha, beta=beta, gamma=gamma, mu=T, nu=UPoly([-n * alpha, -1])
    )
    det = delta_determinant(eq, 1)
    assert det == UPoly([-alpha * (alpha - 1), -b, 1])


def test_confluent_end_to_end_solution():
    # pick rational parameters on the n=1 constraint and build the polynomial
    alpha, beta, gamma = Fraction(3), Fraction(1), Fraction(2)
    b = gamma + beta - alpha + 2
    # mu^2 - b mu - alpha(alpha-1) = 0 with alpha=3, b=2: mu^2 - 2mu - 6... not
    # rational; instead choose alpha so the discriminant is a perfect square:
    # alpha = 1 makes the constraint mu(mu - b) = 0, root mu = 0
    alpha = Fraction(1)
    b = gamma + beta - alpha + 2
    mu = Fraction(0)
    nu = -1 * alpha - mu
    eq = confluent_to_spec(alpha=alpha, beta=beta, gamma=gamma, mu=mu, nu=nu)
    assert degree_condition(eq, 1) == 0
    assert delta_determinant(eq, 1) == 0
    sol = construct_solution(eq, build_criterion_matrix(eq, 1))
    assert verify_solution(eq, sol.coefficients)


# ---------------------------------------------------------------------------
# biconfluent family

def test_biconfluent_mapping():
    a, b, g, d = Fraction(1), Fraction(2), Fraction(3), Fraction(4)
    eq = biconfluent_to_spec(alpha=a, beta=b, gamma=g, delta=d)
    assert eq.a3 == (UPoly(), UPoly(), UPoly([1]), UPoly())
    assert eq.a2 == (UPoly([-2]), UPoly([-b]), UPoly([a + 1]))
    assert eq.tau == (UPoly([-(g - a - 2)]), UPoly([(d + (a + 1) * b) / 2]))


def test_biconfluent_degree_condition_symbolic():
    # with gamma unknown: gamma = alpha + 2(n+1)
    alpha = Fraction(5, 2)
    for n in range(9):
        eq = biconfluent_to_spec(alpha=alpha, beta=1, gamma=T, delta=0)
        cond = degree_condition(eq, n)
        assert cond == UPoly([alpha + 2 + 2 * n, -1])
        assert cond(alpha + 2 * (n + 1)) == 0


def test_biconfluent_corner_entries():
    a, b, d = Fraction(3), Fraction(-2), Fraction(7)
    eq = biconfluent_to_spec(alpha=a, beta=b, gamma=a + 4, delta=d)
    m = build_criterion_matrix(eq, 2)
    assert m.entry(0, 0) == UPoly([(d + (a + 1) * b) / 2])
    assert m.entry(0, 1) == UPoly([-(a + 1)])


def test_biconfluent_band_formulas():
    a, b, g, d = Fraction(1), Fraction(2), Fraction(9), Fraction(-3)
    eq = biconfluent_to_spec(alpha=a, beta=b, gamma=g, delta=d)
    m = build_criterion_matrix(eq, 4)
    q = (d + (a + 1) * b) / 2
    for k in range(5):
        assert m.entry(k, k) == UPoly([q + k * b])
        if k >= 1:
            assert m.entry(k, k - 1) == UPoly([-(g - a - 2) + 2 * (k - 1)])
        if k + 1 <= 4:
            assert m.entry(k, k + 1) == UPoly([-(k + 1) * (k + a + 1)])
        if k + 2 <= 4:
            assert m.entry(k, k + 2) == UPoly()


def test_biconfluent_n0_condition():
    # 1x1 determinant: delta + (alpha+1) beta = 0
    a, b = Fraction(2), Fraction(4)
    eq = biconfluent_to_spec(alpha=a, beta=b, gamma=a + 2, delta=T)
    assert degree_condition(eq, 0) == 0
    det = delta_determinant(eq, 0)
    assert det == UPoly([(a + 1) * b / 2, Fraction(1, 2)])
    assert det(-(a + 1) * b) == 0


def test_biconfluent_end_to_end():
    a, b = Fraction(2), Fraction(4)
    eq = biconfluent_to_spec(alpha=a, beta=b, gamma=a + 2, delta=-(a + 1) * b)
    sol = construct_solution(eq, build_criterion_matrix(eq, 0))
    assert sol.coefficients == (1,)


# ---------------------------------------------------------------------------
# general family

def test_fuchsian_violation():
    assert fuchsian_residual(alpha=1, beta=1, gamma=1, delta=1, epsilon=2) == UPoly([-1])
    with pytest.raises(FuchsianViolationError) as excinfo:
        general_to_spec(a=2, alpha=1, beta=1, gamma=1, delta=1, epsilon=2, q=0)
    assert excinfo.value.residual == UPoly([-1])


def test_regularity_is_checked_before_a_and_q_are_read():
    with pytest.raises(FuchsianViolationError):
        general_to_spec(a="x", alpha=1, beta=1, gamma=1, delta=1, epsilon=2, q="y")
    with pytest.raises(ValueError, match="'x'"):
        general_to_spec(a="x", alpha=1, beta=1, gamma=1, delta=1, epsilon=1, q=0)


def test_general_mapping():
    a, alpha, beta = Fraction(2), Fraction(-1), Fraction(1)
    gamma, delta = Fraction(1), Fraction(-1)
    epsilon = 1 + alpha + beta - gamma - delta
    q = Fraction(3)
    eq = general_to_spec(
        a=a, alpha=alpha, beta=beta, gamma=gamma, delta=delta, epsilon=epsilon, q=q
    )
    assert eq.a3 == (UPoly([1]), UPoly([-(1 + a)]), UPoly([a]), UPoly())
    assert eq.a2[0] == UPoly([gamma + epsilon + delta])
    assert eq.a2[1] == UPoly([-(a * (delta + gamma) + epsilon + gamma)])
    assert eq.a2[2] == UPoly([a * gamma])
    assert eq.tau == (UPoly([-alpha * beta]), UPoly([q]))


def test_general_degree_condition_factors():
    # alpha symbolic with epsilon tied through the regularity constraint:
    # the condition factors as -(beta+n)(t+n), i.e. alpha = -n (or beta = -n)
    beta, gamma, delta = Fraction(4), Fraction(1), Fraction(2)
    for n in range(9):
        epsilon = UPoly([1 + beta - gamma - delta, 1])  # 1 + t + beta - gamma - delta
        assert fuchsian_residual(T, beta, gamma, delta, epsilon) == UPoly()
        eq = general_to_spec(
            a=3, alpha=T, beta=beta, gamma=gamma, delta=delta, epsilon=epsilon, q=5
        )
        cond = degree_condition(eq, n)
        assert cond == UPoly([-n * (beta + n), -(beta + n)])
        assert cond(-n) == 0


def test_general_degree_condition_beta_minus_n():
    # with beta = -n numerically the condition holds identically in alpha
    n, gamma, delta = 3, Fraction(1), Fraction(1)
    beta = Fraction(-n)
    epsilon = UPoly([1 + beta - gamma - delta, 1])
    eq = general_to_spec(
        a=2, alpha=T, beta=beta, gamma=gamma, delta=delta, epsilon=epsilon, q=0
    )
    assert degree_condition(eq, n) == UPoly()


def test_general_matrix_row0_and_row1():
    a, gamma, delta = Fraction(2), Fraction(1), Fraction(-2)
    alpha, beta = Fraction(-1), Fraction(1)
    epsilon = 1 + alpha + beta - gamma - delta
    eq = general_to_spec(
        a=a, alpha=alpha, beta=beta, gamma=gamma, delta=delta, epsilon=epsilon, q=T
    )
    m = build_criterion_matrix(eq, 2)
    assert m.entry(0, 0) == T
    assert m.entry(0, 1) == UPoly([-a * gamma])
    assert m.entry(0, 2) == UPoly()
    assert m.entry(1, 0) == UPoly([-alpha * beta])
    assert m.entry(1, 1) == T + UPoly([a * (delta + gamma) + epsilon + gamma])
    assert m.entry(1, 2) == UPoly([-2 * (a + a * gamma)])


def test_general_end_to_end_degree1():
    # alpha = -n = -1 satisfies the degree condition; the q constraint is
    # t(t + b1) - a gamma alpha beta with b1 = a(delta+gamma) + epsilon + gamma,
    # here t^2 + 5t + 4 with rational roots -1 and -4
    a, gamma, delta = Fraction(2), Fraction(1), Fraction(1)
    alpha, beta = Fraction(-1), Fraction(2)
    epsilon = 1 + alpha + beta - gamma - delta
    eq_sym = general_to_spec(
        a=a, alpha=alpha, beta=beta, gamma=gamma, delta=delta, epsilon=epsilon, q=T
    )
    assert degree_condition(eq_sym, 1) == 0
    constraint = delta_determinant(eq_sym, 1)
    b1 = a * (delta + gamma) + epsilon + gamma
    assert constraint == T * (T + UPoly([b1])) - UPoly([a * gamma * alpha * beta])
    assert constraint == UPoly([4, 5, 1])
    for q0 in (Fraction(-1), Fraction(-4)):
        assert constraint(q0) == 0
        eq = eq_sym.substitute(q0)
        sol = construct_solution(eq, build_criterion_matrix(eq, 1))
        assert verify_solution(eq, sol.coefficients) and sol.reported_degree == 1
