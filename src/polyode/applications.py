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

# build_criterion_matrix is not called here; it stays bound so that
# perfbench/tracing.py can count any call to it through this module
from .criteria import (  # noqa: F401
    EquationSpec,
    ScalarLike,
    as_scalar,
    build_criterion_matrix,
    delta_determinant,
    residual_vanishes,
)
from .exactalg import UPoly, as_rational, poly_gcd


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
    """Positive charge Z, dimension d >= 2, angular momentum l >= 0; the
    shift beta is ``coulomb_equation``'s unknown.  A bound state needs
    Z > 0: alpha = Z/(n+k+1) then is positive, so e^(-alpha r) decays."""

    Z: Fraction
    d: int
    l: int

    def __post_init__(self):
        object.__setattr__(self, "Z", as_rational(self.Z))
        if self.Z <= 0:
            raise ValueError("charge Z must be positive")
        if self.d < 2:
            raise ValueError("dimension must be at least 2")
        if self.l < 0:
            raise ValueError("angular momentum must be nonnegative")

    @property
    def k(self) -> Fraction:
        return Fraction(2 * self.l + self.d - 3, 2)


def coulomb_alpha(p: CoulombProblem, n: int) -> Fraction:
    """Exponential falloff rate fixed by the degree condition."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return p.Z / (n + p.k + 1)


def coulomb_energy(p: CoulombProblem, n: int) -> Fraction:
    """E = -Z^2 / (2 (n+k+1)^2) = -alpha^2 / 2, exact."""
    alpha = coulomb_alpha(p, n)
    return -alpha * alpha / 2


def coulomb_equation(p: CoulombProblem, n: int) -> EquationSpec:
    """Equation for the polynomial factor, with alpha = Z/(n+k+1) applied
    and the shift beta as its unknown.

    Its degree-n criterion matrix is tridiagonal, with the entries
        diagonal       2 alpha beta (k+j+1) - j (j+2k+1)
        subdiagonal    2 alpha (j-n-1)
        superdiagonal  -(j+1) beta (j+2k+2)
    in row j, identically in beta.
    """
    k = p.k
    alpha = coulomb_alpha(p, n)
    return EquationSpec(
        a3=(0, 1, (0, 1), 0),
        a2=(-2 * alpha, (2 * (k + 1), -2 * alpha), (0, 2 * (k + 1))),
        tau=(2 * alpha * (k + 1) - 2 * p.Z, (0, 2 * alpha * (k + 1))),
        unknown="beta",
    )


def coulomb_constraint(p: CoulombProblem, n: int) -> UPoly:
    """Primitive constraint polynomial in t = alpha beta; its positive real
    roots give the admissible shifts beta = t / alpha.  It is the
    determinant of ``coulomb_equation``'s band in t (see
    ``_determinant_in_t``), which always carries the inadmissible root
    t = 0 and a constant factor; ``_reduce_constraint`` strips both."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _reduce_constraint(_determinant_in_t(p, n))


def _determinant_in_t(p: CoulombProblem, n: int) -> UPoly:
    """The determinant of ``coulomb_equation``'s band, by
    ``delta_determinant``, with beta = t / alpha: its beta^i coefficient
    divided by alpha^i.  The band is tridiagonal, and its diagonal and its
    paired off-diagonal products,
        2 t (k+j+1) - j (j+2k+1)   and   -2 t (j-n) (j+1) (j+2k+2),
    hold alpha and beta only as t, so this polynomial in t is free of Z."""
    alpha = coulomb_alpha(p, n)
    det = delta_determinant(coulomb_equation(p, n), n)
    return UPoly(c / alpha**i for i, c in enumerate(det.coeffs))


def _reduce_constraint(det: UPoly) -> UPoly:
    """The primitive constraint polynomial from a Coulomb band determinant
    in t: the factor t^j and the content are stripped, and the leading
    coefficient is made positive."""
    coeffs = det.coeffs
    low = next((i for i, c in enumerate(coeffs) if c), len(coeffs))
    return UPoly(coeffs[low:]).primitive_part()


def coulomb_constraint_in_k(n: int) -> tuple[UPoly, ...]:
    """The Coulomb constraint with k symbolic: the coefficients of t^0,
    t^1, ... of ``coulomb_constraint``, each a UPoly in k.

    The diagonal and the off-diagonal products of the band in t are affine
    in k and in t (see ``_determinant_in_t``), so the determinant has
    degree at most n+1 in each: it is taken at k = 0..n+1, on the problem
    Z = 1, d = 3, l = k, and each t-coefficient is interpolated over those
    points.  It is then reduced once: the factor t^j and the gcd in
    k of the coefficients are stripped, the rationals of what is left made
    coprime integers, and the top coefficient in k of the top power of t
    made positive.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    samples = [_determinant_in_t(CoulombProblem(Z=1, d=3, l=k), n).coeffs
               for k in range(n + 2)]
    det = [_interpolate([s[i] if i < len(s) else 0 for s in samples])
           for i in range(n + 2)]
    det = det[next(i for i, c in enumerate(det) if c):]  # t divides it
    common = reduce(poly_gcd, det)
    det = [c / common for c in det]
    # the content of all the rationals left, as one list
    scale = UPoly([f for c in det for f in c.coeffs]).content()
    if det[-1].leading < 0:
        scale = -scale
    return tuple(c / scale for c in det)


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
    alpha_f = as_rational(alpha)
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
    a, b = as_rational(a), as_rational(b)
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


def hyper_verify(sol: HyperSolution) -> bool:
    """Exact residual test (``residual_vanishes``) in the cleared form

        x^2 (b(m+n) + a x^(l-1)) y'' - (m+n) a x^l y' - (m+n) m(m+1) b y,

    its coefficients as dense lists, so the work grows linearly with l."""
    m, n, l, a, b = sol.m, sol.n, sol.l, sol.a, sol.b
    s = m + n
    return residual_vanishes([0, 0, b * s] + [0] * (l - 2) + [a], [0] * l + [-s * a],
                             [s * m * (m + 1) * b], sol.polynomial().coeffs)
