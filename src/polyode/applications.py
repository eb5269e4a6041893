"""Physics case studies wired through the generic polynomial-solution criteria.

Covered here:

* the Davidson-potential radial equation
      x f'' - (2x^2 - 2(mu+1)) f' - (2 mu + 3 - eps) x f = 0,
  whose even-degree polynomial solutions exist at eps = 2 mu + 3 + 2 N;

* the d-dimensional shifted Coulomb problem with potential -Z/(r+beta),
  reduced (after factoring out r^(k+1) e^(-alpha r), k = (2l+d-3)/2 and
  alpha = Z/(n+k+1)) to
      r(r+beta) f'' + (-2 alpha r^2 + 2(k+1-alpha beta) r + 2 beta(k+1)) f'
        + ((2Z - 2 alpha(k+1)) r - 2 alpha beta (k+1)) f = 0,
  which yields constraint polynomials in the product t = alpha beta;

* two quartic/cubic oscillator equations from the literature,
      x^3 y'' + alpha (x^2 - 1) y' + (beta x + gamma) y = 0    (krylov_robnik)
      y'' + (p - 2x^2) y' + (delta x + alpha) y = 0            (chhajlany)
  solved for the parameter constraints at each degree;

* a two-parameter exactly solvable class
      x^2 (b(m+n) + a x^(l-1)) y'' - (m+n) a x^l y' - (m+n) m (m+1) b y = 0
  whose solutions are x^(m+1) times a terminating Gauss hypergeometric
  series in the variable -a x^(l-1) / (b(m+n)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from typing import Callable, Union

from .criteria import (
    EquationSpec,
    ScalarLike,
    as_scalar,
    build_criterion_matrix,
    degree_condition,
    delta_determinant,
    verify_solution,
)
from .exactalg import UPoly, poly_gcd


class BadDegreeError(ValueError):
    """The series degree is incompatible with the power step l-1."""


class DegenerateParametersError(ValueError):
    """b = 0 or m + n = 0 leaves the equation undefined."""


# ---------------------------------------------------------------------------
# Davidson potential

def davidson_spec(mu: ScalarLike, eps: ScalarLike) -> EquationSpec:
    mu_s, eps_s = as_scalar(mu), as_scalar(eps)
    one = UPoly.one()
    return EquationSpec(
        a3=(0, 0, 1, 0),
        a2=(-2, 0, 2 * (mu_s + one)),
        tau=(2 * mu_s + 3 * one - eps_s, 0),
    )


def davidson_eigenvalue(mu: ScalarLike, n: int):
    """eps_n = 2 mu + 3 + 4 n; the node count n targets degree N = 2n."""
    if n < 0:
        raise ValueError("node count must be nonnegative")
    value = 2 * as_scalar(mu) + UPoly.constant(3 + 4 * n)
    return value.constant_value() if value.is_constant else value


# ---------------------------------------------------------------------------
# shifted Coulomb potential

@dataclass(frozen=True)
class CoulombProblem:
    """Positive charge Z, positive shift beta, dimension d >= 2, angular
    momentum l >= 0.  A bound state needs Z > 0: alpha = Z/(n+k+1) then
    is positive, so e^(-alpha r) decays."""

    Z: Fraction
    beta: Fraction
    d: int
    l: int

    def __post_init__(self):
        object.__setattr__(self, "Z", Fraction(self.Z))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.Z <= 0:
            raise ValueError("charge Z must be positive")
        if self.beta <= 0:
            raise ValueError("shift beta must be positive")
        if self.d < 2:
            raise ValueError("dimension must be at least 2")
        if self.l < 0:
            raise ValueError("angular momentum must be nonnegative")

    @property
    def k(self) -> Fraction:
        return Fraction(2 * self.l + self.d - 3, 2)


def coulomb_alpha(p: CoulombProblem, n: int) -> Fraction:
    """Exponential falloff rate fixed by the degree condition."""
    return p.Z / (n + p.k + 1)


def coulomb_energy(p: CoulombProblem, n: int) -> Fraction:
    """E = -Z^2 / (2 (n+k+1)^2), exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    denom = n + p.k + 1
    return -p.Z * p.Z / (2 * denom * denom)


def coulomb_equation(p: CoulombProblem, n: int) -> EquationSpec:
    """Equation for the polynomial factor, with alpha = Z/(n+k+1) applied
    and the shift beta as its unknown (``p.beta`` is not read).

    Its degree-n criterion matrix is tridiagonal, and on every call its
    entries are checked, identically in beta, against the closed forms
        diagonal       2 alpha beta (k+j+1) - j (j+2k+1)
        subdiagonal    2 alpha (j-n-1)
        superdiagonal  -(j+1) beta (j+2k+2);
    a mismatch raises ``ArithmeticError``.
    """
    k = p.k
    alpha = coulomb_alpha(p, n)
    eq = EquationSpec(
        a3=(0, 1, (0, 1), 0),
        a2=(-2 * alpha, (2 * (k + 1), -2 * alpha), (0, 2 * (k + 1))),
        tau=(2 * alpha * (k + 1) - 2 * p.Z, (0, 2 * alpha * (k + 1))),
        unknown="beta",
    )
    matrix = build_criterion_matrix(eq, n)
    for j in range(n + 1):
        closed = [(j, UPoly([-j * (j + 2 * k + 1), 2 * alpha * (k + j + 1)]))]
        if j >= 1:
            closed.append((j - 1, 2 * alpha * (j - n - 1)))
        if j + 1 <= n:
            closed.append((j + 1, UPoly([0, -(j + 1) * (j + 2 * k + 2)])))
        for col, value in closed:
            if matrix.entry(j, col) != value:
                raise ArithmeticError(
                    f"Coulomb matrix entry ({j}, {col}) differs from its closed form")
    return eq


def coulomb_spec(p: CoulombProblem, n: int) -> EquationSpec:
    """``coulomb_equation`` at the shift ``p.beta``."""
    return coulomb_equation(p, n).substitute(p.beta)


def _coulomb_equation_in_t(k: Fraction, n: int) -> EquationSpec:
    """With s = r/beta the Coulomb equation loses Z and beta:
        s(s+1) f'' + (-2t s^2 + 2(k+1-t) s + 2(k+1)) f' + (2nt s - 2t(k+1)) f = 0,
    an equation in the unknown t = alpha beta."""
    k1 = 2 * (k + 1)
    return EquationSpec(a3=(0, 1, 1, 0), a2=((0, -2), (k1, -2), (k1, 0)),
                        tau=((0, -2 * n), (0, k1)))


def coulomb_constraint_for_k(k: Union[Fraction, int], n: int) -> UPoly:
    """Constraint polynomial in t = alpha beta for a rational k: the
    determinant of the criterion band of the equation in t (see
    ``_coulomb_equation_in_t``), by ``delta_determinant``, made primitive.
    That determinant always carries the inadmissible root t = 0 and a
    constant factor; both are stripped."""
    if n < 1:
        raise ValueError("n must be at least 1")
    det = delta_determinant(_coulomb_equation_in_t(Fraction(k), n), n)
    return _reduce_constraint(det)


def coulomb_constraint(p: CoulombProblem, n: int) -> UPoly:
    """Primitive constraint polynomial in t = alpha beta; its positive real
    roots give the admissible shifts beta = t / alpha."""
    return coulomb_constraint_for_k(p.k, n)


def _reduce_constraint(det: UPoly) -> UPoly:
    """The primitive constraint polynomial from a Coulomb band determinant
    in t: the factor t^j and the content are stripped, and the leading
    coefficient is made positive."""
    coeffs = det.coeffs
    low = next((i for i, c in enumerate(coeffs) if c), len(coeffs))
    return UPoly(coeffs[low:]).primitive_part()


def coulomb_constraint_in_k(n: int) -> tuple[UPoly, ...]:
    """The Coulomb constraint with k symbolic: the coefficients of t^0,
    t^1, ... of ``coulomb_constraint_for_k``, each a UPoly in k.

    The band determinant is interpolated in k (``_determinant_in_k``) and
    reduced once: the factor t^j and the gcd in k of the coefficients are
    stripped, the rationals of what is left made coprime integers, and the
    top coefficient in k of the top power of t made positive.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    det = _determinant_in_k(lambda k: _coulomb_equation_in_t(k, n), n)
    det = det[next(i for i, c in enumerate(det) if c):]  # t divides it
    common = reduce(poly_gcd, det)
    det = [c / common for c in det]
    # the content of all the rationals left, as one list
    scale = UPoly([f for c in det for f in c.coeffs]).content()
    if det[-1].leading < 0:
        scale = -scale
    return tuple(c / scale for c in det)


def _determinant_in_k(equation_at: Callable[[Fraction], EquationSpec],
                      n: int) -> tuple[UPoly, ...]:
    """The degree-n band determinant of an equation in t whose nine
    coefficients are affine in a second unknown k (``equation_at(k)``
    gives it at a rational k), as the coefficients of t^0..t^(n+1), each a
    UPoly in k.  Every band entry is affine in k and in t, so the
    determinant has degree at most n+1 in each: it is evaluated at
    k = 0..n+1 by ``delta_determinant``, and each t-coefficient is
    interpolated over those points by Newton divided differences."""
    samples = [delta_determinant(equation_at(Fraction(k)), n).coeffs
               for k in range(n + 2)]
    return tuple(_interpolate([s[i] if i < len(s) else 0 for s in samples])
                 for i in range(n + 2))


def _interpolate(values) -> UPoly:
    """The polynomial of degree below len(values) that takes values[k] at
    k = 0, 1, ...: Newton divided differences, then the Newton form
    expanded by Horner's rule."""
    diffs = list(values)
    for j in range(1, len(diffs)):
        for i in range(len(diffs) - 1, j - 1, -1):
            diffs[i] = Fraction(diffs[i] - diffs[i - 1], j)
    poly = UPoly()
    for k in range(len(diffs) - 1, -1, -1):
        poly = poly * UPoly([-k, 1]) + UPoly([diffs[k]])
    return poly


# ---------------------------------------------------------------------------
# two literature oscillator examples

def krylov_robnik_spec(
    alpha: ScalarLike, beta: ScalarLike, gamma: ScalarLike
) -> EquationSpec:
    """x^3 y'' + alpha (x^2 - 1) y' + (beta x + gamma) y = 0."""
    alpha_s = as_scalar(alpha)
    return EquationSpec(
        a3=(1, 0, 0, 0),
        a2=(alpha_s, 0, -alpha_s),
        tau=(-as_scalar(beta), -as_scalar(gamma)),
    )


def krylov_robnik_equation(alpha: ScalarLike, n: int) -> EquationSpec:
    """The equation at the degree-n value beta = -n^2 - (alpha-1) n, in the
    unknown gamma; its beta is -t10."""
    if n < 1:
        raise ValueError("n must be at least 1")
    alpha_f = Fraction(alpha)
    beta = -Fraction(n * n) - (alpha_f - 1) * n
    return replace(krylov_robnik_spec(alpha_f, beta, UPoly.x()), unknown="gamma")


def krylov_robnik_analyze(alpha: ScalarLike, n: int) -> tuple[Fraction, UPoly]:
    """beta and ``delta_determinant`` of ``krylov_robnik_equation``."""
    eq = krylov_robnik_equation(alpha, n)
    return -eq.tau[0].constant_value(), delta_determinant(eq, n)


def chhajlany_spec(
    p: ScalarLike, delta: ScalarLike, alpha: ScalarLike
) -> EquationSpec:
    """y'' + (p - 2x^2) y' + (delta x + alpha) y = 0."""
    return EquationSpec(
        a3=(0, 0, 0, 1),
        a2=(-2, 0, as_scalar(p)),
        tau=(-as_scalar(delta), -as_scalar(alpha)),
    )


def chhajlany_equation(p: ScalarLike, n: int) -> EquationSpec:
    """The equation at the degree-n value delta = 2n, in the unknown
    alpha."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return replace(chhajlany_spec(p, 2 * n, UPoly.x()), unknown="alpha")


def chhajlany_analyze(p: ScalarLike, n: int) -> UPoly:
    """``delta_determinant`` of ``chhajlany_equation``."""
    return delta_determinant(chhajlany_equation(p, n), n)


# ---------------------------------------------------------------------------
# terminating hypergeometric class

@dataclass(frozen=True)
class HyperSolution:
    """x^prefactor_exponent times a terminating series in x^(l-1).

    series[j] multiplies x^(prefactor_exponent + j (l-1)); series[0] = 1.
    """

    m: int
    n: int
    l: int
    a: Fraction
    b: Fraction
    prefactor_exponent: int
    series: tuple[Fraction, ...]

    def polynomial(self) -> UPoly:
        top = self.prefactor_exponent + (len(self.series) - 1) * (self.l - 1)
        coeffs = [Fraction(0)] * (top + 1)
        for j, c in enumerate(self.series):
            coeffs[self.prefactor_exponent + j * (self.l - 1)] = c
        return UPoly(coeffs)


def hyper_build(m: int, n: int, l: int, a, b) -> HyperSolution:
    """Terminating-series solution for given m >= 1, n >= 0, l >= 2.

    The series is the Gauss hypergeometric sum with parameters
    (-n/(l-1), (m+1)/(l-1); (2m+l)/(l-1)) in the variable
    -a x^(l-1) / (b(n+m)); termination requires n to be a multiple of l-1.
    The prefactor exponent m+1 is the indicial root at x = 0 (the series
    substitution variable is proportional to x^(l-1), whose (m+1)/(l-1)
    power is exactly x^(m+1)).
    """
    if m < 1 or n < 0 or l < 2:
        raise ValueError("need m >= 1, n >= 0, l >= 2")
    a, b = Fraction(a), Fraction(b)
    if not b or m + n == 0:
        raise DegenerateParametersError("b must be nonzero and m + n positive")
    if l > 2 and n % (l - 1):
        raise BadDegreeError(f"degree {n} is not a multiple of {l - 1}")
    nu = n // (l - 1)
    pa = Fraction(-nu)
    pb = Fraction(m + 1, l - 1)
    pc = Fraction(2 * m + l, l - 1)
    w = -a / (b * (n + m))
    series = [Fraction(1)]
    for j in range(nu):
        series.append(series[j] * (pa + j) * (pb + j) / ((pc + j) * (j + 1)) * w)
    return HyperSolution(
        m=m, n=n, l=l, a=a, b=b, prefactor_exponent=m + 1, series=tuple(series)
    )


def hyper_equation_spec(m: int, n: int, l: int, a, b) -> EquationSpec:
    """The cleared equation as an EquationSpec; only l = 2 fits the cubic
    coefficient template."""
    if l != 2:
        raise ValueError("only l = 2 maps onto the generic equation form")
    a, b = Fraction(a), Fraction(b)
    s = m + n
    return EquationSpec(
        a3=(a, b * s, 0, 0),
        a2=(-s * a, 0, 0),
        tau=(0, s * m * (m + 1) * b),
    )


def hyper_verify(sol: HyperSolution) -> bool:
    """Exact residual test in the cleared form

        x^2 (b(m+n) + a x^(l-1)) y'' - (m+n) a x^l y' - (m+n) m(m+1) b y.

    For l = 2 the same coefficients form a cubic-template equation and the
    generic residual checker must agree; both verdicts are combined.
    """
    m, n, l, a, b = sol.m, sol.n, sol.l, sol.a, sol.b
    y = sol.polynomial()
    s = m + n

    def times_x(poly: UPoly, power: int) -> UPoly:
        """x^power poly, by shifting coefficients."""
        return UPoly([0] * power + list(poly.coeffs))

    d1 = y.derivative()
    d2 = d1.derivative()
    residual = (
        (b * s) * times_x(d2, 2) + a * times_x(d2, l + 1)
        - (s * a) * times_x(d1, l)
        - (s * m * (m + 1) * b) * y
    )
    ok = not residual
    if l == 2:
        eq = hyper_equation_spec(m, n, l, a, b)
        ok = ok and verify_solution(eq, y.coeffs)
        ok = ok and degree_condition(eq, n + m + 1) == 0
    return ok
