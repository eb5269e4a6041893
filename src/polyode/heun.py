"""Adapters from the three Heun equation families to the generic form.

Each family is rewritten with polynomial coefficients by clearing
denominators, then mapped onto an ``EquationSpec``; the generic degree
condition and criterion determinant then yield the family's closed-form
polynomial-solution conditions.  Every parameter may carry the single
unknown (as a degree <= 1 polynomial in t), so the conditions can be
produced symbolically.

Confluent family, cleared over z(z-1):

    z(z-1) y'' + (alpha z^2 + (gamma+beta-alpha+2) z - alpha + 1) y'
               + ((mu+nu) z - mu) y = 0

Biconfluent family:

    x y'' + (-2x^2 - beta x + alpha + 1) y'
          + ((gamma-alpha-2) x - (delta + (alpha+1) beta)/2) y = 0

General family with singular points 0, 1, a, infinity, cleared over
z(z-1)(z-a), with the regularity-at-infinity constraint
1 + alpha + beta = gamma + delta + epsilon:

    (z^3 - (1+a) z^2 + a z) y''
      + ((gamma+epsilon+delta) z^2 - (a(delta+gamma) + epsilon + gamma) z
         + a gamma) y'
      + (alpha beta z - q) y = 0
"""

from __future__ import annotations

from .criteria import EquationSpec, ScalarLike, as_scalar
from .exactalg import UPoly


class FuchsianViolationError(ValueError):
    """1 + alpha + beta - gamma - delta - epsilon is not identically zero."""

    def __init__(self, residual: UPoly):
        super().__init__(
            f"regularity condition violated, residual {residual.format(var='t')}"
        )
        self.residual = residual


def _linear(product: UPoly, name: str) -> UPoly:
    """product, checked to stay linear in the unknown; name spells it in
    the error."""
    if len(product.coeffs) > 2:
        raise ValueError(f"{name} must stay linear in the unknown")
    return product


def confluent_to_spec(*, alpha: ScalarLike, beta: ScalarLike, gamma: ScalarLike,
                      mu: ScalarLike, nu: ScalarLike) -> EquationSpec:
    """Degree condition for the output: mu + nu = -n alpha."""
    alpha, beta, gamma, mu, nu = map(as_scalar, (alpha, beta, gamma, mu, nu))
    two = UPoly.constant(2)
    return EquationSpec(
        a3=(0, 1, -1, 0),
        a2=(alpha, gamma + beta - alpha + two, UPoly.one() - alpha),
        tau=(-(mu + nu), mu),
    )


def biconfluent_to_spec(*, alpha: ScalarLike, beta: ScalarLike, gamma: ScalarLike,
                        delta: ScalarLike) -> EquationSpec:
    """Degree condition for the output: gamma = alpha + 2(n+1)."""
    alpha, beta, gamma, delta = map(as_scalar, (alpha, beta, gamma, delta))
    two = UPoly.constant(2)
    half = UPoly.constant("1/2")
    alpha_beta = _linear((alpha + UPoly.one()) * beta, "(alpha + 1) * beta")
    return EquationSpec(
        a3=(0, 0, 1, 0),
        a2=(-2, -beta, alpha + UPoly.one()),
        tau=(-(gamma - alpha - two), half * (delta + alpha_beta)),
    )


def fuchsian_residual(alpha: ScalarLike, beta: ScalarLike, gamma: ScalarLike,
                      delta: ScalarLike, epsilon: ScalarLike) -> UPoly:
    """1 + alpha + beta - gamma - delta - epsilon, as a polynomial in t."""
    return (UPoly.one() + as_scalar(alpha) + as_scalar(beta)
            - as_scalar(gamma) - as_scalar(delta) - as_scalar(epsilon))


def general_to_spec(*, a: ScalarLike, alpha: ScalarLike, beta: ScalarLike,
                    gamma: ScalarLike, delta: ScalarLike, epsilon: ScalarLike,
                    q: ScalarLike) -> EquationSpec:
    """Degree condition for the output: alpha beta = -n(n-1) - n(gamma +
    epsilon + delta), equivalently alpha = -n or beta = -n under the
    regularity constraint, which is checked identically in t."""
    residual = fuchsian_residual(alpha, beta, gamma, delta, epsilon)
    if residual:
        raise FuchsianViolationError(residual)
    a, alpha, beta, gamma, delta, epsilon, q = map(
        as_scalar, (a, alpha, beta, gamma, delta, epsilon, q))
    alpha_beta = _linear(alpha * beta, "alpha * beta")
    return EquationSpec(
        a3=(1, -(UPoly.one() + a), a, 0),
        a2=(
            gamma + epsilon + delta,
            -(a * (delta + gamma) + epsilon + gamma),
            a * gamma,
        ),
        tau=(-alpha_beta, q),
    )
