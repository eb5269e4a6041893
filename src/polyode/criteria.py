"""Criteria and constructions for polynomial solutions of the ODE class

    (a30 x^3 + a31 x^2 + a32 x + a33) y''
      + (a20 x^2 + a21 x + a22) y'
      - (t10 x + t11) y = 0.

A degree-n polynomial solution forces two exact conditions.  First the
degree condition

    t10 = n (n-1) a30 + n a20,

which is the vanishing of the x^(n+1) coefficient of the residual.  Second,
substituting y = sum c_k x^k produces the four-term coefficient recurrence

    A_k c_{k-1} + B_k c_k + C_k c_{k+1} + D_k c_{k+2} = 0,   c_{-1} = 0,

    A_k = t10 - (k-2)(k-1) a30 - (k-1) a20
    B_k = t11 - k ((k-1) a31 + a21)
    C_k = -(k+1) (k a32 + a22)
    D_k = -(k+2)(k+1) a33

whose rows k = 0..n form a banded (n+1) x (n+1) matrix; a nontrivial
solution requires its determinant to vanish.  Both conditions are evaluated
here in exact arithmetic, optionally with one unknown parameter t carried
through every entry as a linear polynomial.

Equation coefficients may be given as plain rationals or as degree <= 1
``UPoly`` values in the single unknown.  Adapters from other equation forms
must fold their zeroth-order term into the minus-sign convention above.

The classical quadratic-coefficient class

    (a20 x^2 + a21 x + a22) y'' + (a10 x + a11) y' - t00 y = 0

is handled by a three-term ladder: for t00 = n (n-1) a20 + n a10 the
solutions y_n are generated by an explicit two-step recurrence seeded with
y_0 = 1, y_1 = a10 x + a11.  ``embed_classical`` maps this class into the
cubic-coefficient form so the two routes can be cross-checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

# bareiss_determinant is no longer called here; it stays bound so that
# perfbench/tracing.py can count any call to it through this module
from .exactalg import UPoly, banded_determinant, bareiss_determinant  # noqa: F401

ScalarLike = Union[int, str, Fraction, UPoly, Sequence]


class NoNullspaceError(ValueError):
    """The criterion matrix is nonsingular; a precondition was inconsistent."""


class AmbiguousNullspaceError(ValueError):
    """The criterion matrix has nullity > 1; carries the whole verified basis."""

    def __init__(self, solutions):
        super().__init__(f"nullspace has dimension {len(solutions)}")
        self.solutions = list(solutions)


class DegenerateDenominatorError(ZeroDivisionError):
    """A denominator of the classical two-step recurrence vanished."""


def as_scalar(value: ScalarLike) -> UPoly:
    """Coerce an equation coefficient to a degree <= 1 polynomial in t.

    Accepts a rational (int, Fraction, or "p/q" string), a pair (c0, c1)
    meaning c0 + c1*t, or a UPoly of degree <= 1.
    """
    if isinstance(value, UPoly):
        scalar = value
    elif isinstance(value, (int, Fraction, str)):
        scalar = UPoly.constant(Fraction(value))
    elif isinstance(value, Sequence):
        if len(value) > 2:
            raise ValueError(f"scalar must have degree <= 1, got {value!r}")
        scalar = UPoly(Fraction(v) for v in value)
    else:
        raise TypeError(f"cannot coerce {value!r} to an equation scalar")
    if isinstance(scalar.degree, int) and scalar.degree > 1:
        raise ValueError(f"scalar must have degree <= 1 in t, got {scalar!r}")
    return scalar


@dataclass(frozen=True)
class EquationSpec:
    """Coefficient tuple of the cubic-coefficient equation.

    a3 = (a30, a31, a32, a33) multiply x^3..x^0 in the y'' coefficient,
    a2 = (a20, a21, a22) multiply x^2..x^0 in the y' coefficient, and
    tau = (t10, t11) multiply x..1 in the zeroth-order term, which enters
    with a minus sign: ... - (t10 x + t11) y = 0.
    """

    a3: tuple[UPoly, UPoly, UPoly, UPoly]
    a2: tuple[UPoly, UPoly, UPoly]
    tau: tuple[UPoly, UPoly]
    unknown: str = "t"

    def __post_init__(self):
        object.__setattr__(self, "a3", tuple(as_scalar(v) for v in self.a3))
        object.__setattr__(self, "a2", tuple(as_scalar(v) for v in self.a2))
        object.__setattr__(self, "tau", tuple(as_scalar(v) for v in self.tau))
        if len(self.a3) != 4 or len(self.a2) != 3 or len(self.tau) != 2:
            raise ValueError("need 4 + 3 + 2 coefficients")
        if not any(self.a3) and not any(self.a2):
            raise ValueError("equation has no second-order or first-order part")

    @property
    def is_numeric(self) -> bool:
        return all(s.is_constant for s in (*self.a3, *self.a2, *self.tau))

    def _numeric(self, which) -> list[Fraction]:
        if not self.is_numeric:
            raise ValueError("equation carries an unknown parameter")
        return [s.constant_value() for s in which]

    def p3(self) -> UPoly:
        """y'' coefficient as a polynomial in x (numeric equations only)."""
        return UPoly(reversed(self._numeric(self.a3)))

    def p2(self) -> UPoly:
        """y' coefficient as a polynomial in x (numeric equations only)."""
        return UPoly(reversed(self._numeric(self.a2)))

    def p1(self) -> UPoly:
        """Zeroth-order coefficient t10 x + t11 (numeric equations only)."""
        return UPoly(reversed(self._numeric(self.tau)))

    def substitute(self, value) -> "EquationSpec":
        """Fix the unknown parameter to a rational value."""
        v = Fraction(value)
        return EquationSpec(
            a3=tuple(UPoly.constant(s(v)) for s in self.a3),
            a2=tuple(UPoly.constant(s(v)) for s in self.a2),
            tau=tuple(UPoly.constant(s(v)) for s in self.tau),
            unknown=self.unknown,
        )

    # -- JSON wire format ----------------------------------------------------

    def to_json_dict(self) -> dict:
        def encode(s: UPoly):
            if s.is_constant:
                return str(s.constant_value())
            return {self.unknown: s.to_strings()}

        out = {
            "a3": [encode(s) for s in self.a3],
            "a2": [encode(s) for s in self.a2],
            "tau": [encode(s) for s in self.tau],
        }
        if not self.is_numeric:
            out["unknown"] = self.unknown
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "EquationSpec":
        unknown = data.get("unknown")

        def decode(s) -> UPoly:
            if isinstance(s, str):
                return UPoly.constant(Fraction(s))
            if isinstance(s, dict):
                if len(s) != 1:
                    raise ValueError(f"bad scalar {s!r}")
                (name, coeffs), = s.items()
                if unknown is None:
                    raise ValueError(
                        f"parameter {name!r} present but no unknown declared"
                    )
                if name != unknown:
                    raise ValueError(
                        f"parameter {name!r} does not match declared unknown {unknown!r}"
                    )
                return UPoly.from_strings(coeffs)
            raise ValueError(f"bad scalar {s!r}")

        try:
            a3 = [decode(s) for s in data["a3"]]
            a2 = [decode(s) for s in data["a2"]]
            tau = [decode(s) for s in data["tau"]]
        except KeyError as exc:
            raise ValueError(f"missing field {exc}") from exc
        return cls(a3=tuple(a3), a2=tuple(a2), tau=tuple(tau),
                   unknown=unknown or "t")

    @classmethod
    def from_json(cls, text: str) -> "EquationSpec":
        return cls.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# degree condition

def degree_condition(eq: EquationSpec, n: int) -> UPoly:
    """t10 - n(n-1) a30 - n a20, zero exactly when a degree-n solution can
    close its leading coefficient."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return eq.tau[0] - n * (n - 1) * eq.a3[0] - n * eq.a2[0]


def degree_condition_effective(eq: EquationSpec, n: int) -> tuple[int, UPoly]:
    """The degree condition at the equation's effective leading level.

    When a30, a20, and t10 all vanish the cubic-level condition is vacuous;
    the equation then lies in the quadratic-coefficient class and the same
    leading-coefficient argument applies one level down.  Returns
    (level, condition) with level 1 for the generic case, 0 for the fallback.
    """
    if eq.a3[0] or eq.a2[0] or eq.tau[0]:
        return 1, degree_condition(eq, n)
    return 0, eq.tau[1] - n * (n - 1) * eq.a3[1] - n * eq.a2[1]


def necessary_condition_general(
    leading_a_k2: ScalarLike,
    leading_a_k1: ScalarLike,
    leading_tau_k: ScalarLike,
    n: int,
    k: int = 0,
) -> bool:
    """Leading-coefficient necessary condition for the whole hierarchy of
    equations whose y'', y', y coefficients have degrees k+2, k+1, k.

    True iff tau_k0 = n(n-1) a_{k+2,0} + n a_{k+1,0} exactly.  The level k
    only labels the family; the relation is the same at every level.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    a_k2 = Fraction(leading_a_k2)
    a_k1 = Fraction(leading_a_k1)
    tau_k = Fraction(leading_tau_k)
    return tau_k == n * (n - 1) * a_k2 + n * a_k1


# ---------------------------------------------------------------------------
# criterion matrix and determinant

def row_entries(eq: EquationSpec, k: int) -> tuple[UPoly, UPoly, UPoly, UPoly]:
    """Band entries (A_k, B_k, C_k, D_k) of recurrence row k."""
    a = eq.tau[0] - (k - 2) * (k - 1) * eq.a3[0] - (k - 1) * eq.a2[0]
    b = eq.tau[1] - k * ((k - 1) * eq.a3[1] + eq.a2[1])
    c = -(k + 1) * (k * eq.a3[2] + eq.a2[2])
    d = -(k + 2) * (k + 1) * eq.a3[3]
    return a, b, c, d


@dataclass(frozen=True)
class CriterionMatrix:
    """(n+1) x (n+1) banded matrix whose singularity is the second condition
    for a degree-n polynomial solution."""

    n: int
    rows: tuple[tuple[UPoly, ...], ...]

    def entry(self, k: int, j: int) -> UPoly:
        return self.rows[k][j]

    def as_lists(self) -> list[list[UPoly]]:
        return [list(r) for r in self.rows]


def build_criterion_matrix(eq: EquationSpec, n: int) -> CriterionMatrix:
    """Assemble rows k = 0..n of the coefficient recurrence.

    The suppressed row k = n+1 would multiply c_n by exactly the degree
    condition polynomial; that closure is checked on every build and a
    mismatch raises ``ArithmeticError``.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    size = n + 1
    zero = UPoly()
    rows = []
    for k in range(size):
        a, b, c, d = row_entries(eq, k)
        row = [zero] * size
        if k >= 1:
            row[k - 1] = a
        row[k] = b
        if k + 1 < size:
            row[k + 1] = c
        if k + 2 < size:
            row[k + 2] = d
        rows.append(tuple(row))
    truncated_sub, _, _, _ = row_entries(eq, n + 1)
    if truncated_sub != degree_condition(eq, n):
        raise ArithmeticError(
            "row n+1 closure does not reproduce the degree condition")
    return CriterionMatrix(n=n, rows=tuple(rows))


def delta_determinant(eq: EquationSpec, n: int) -> UPoly:
    """Exact determinant of the degree-n criterion matrix, as a polynomial in
    the unknown parameter (a constant when the equation is numeric), by the
    O(n) leading-minor recurrence of its band."""
    return banded_determinant(build_criterion_matrix(eq, n).rows)


# ---------------------------------------------------------------------------
# solution construction and verification

@dataclass(frozen=True)
class PolySolution:
    """Exact polynomial solution: a primitive integer coefficient vector
    c_0..c_N with positive leading entry and a residual certificate."""

    coefficients: tuple[Fraction, ...]
    reported_degree: int
    residual_is_zero: bool

    def polynomial(self) -> UPoly:
        return UPoly(self.coefficients)


def primitive_vector(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a nonzero rational vector to coprime integers with the highest
    order nonzero entry positive."""
    nonzero = [c for c in vec if c]
    if not nonzero:
        raise ValueError("zero vector has no primitive form")
    num = gcd(*(c.numerator for c in nonzero))
    den = lcm(*(c.denominator for c in nonzero))
    scale = Fraction(den, num)
    if nonzero[-1] < 0:
        scale = -scale
    return tuple(c * scale for c in vec)


def rational_nullspace(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the nullspace of a square rational matrix, by exact
    Gauss-Jordan elimination.  Independent of the determinant kernel."""
    m = [list(map(Fraction, row)) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    basis = []
    pivot_set = set(pivots)
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for row_idx, col in enumerate(pivots):
            vec[col] = -m[row_idx][free]
        basis.append(vec)
    return basis


def verify_solution(eq: EquationSpec, coefficients: Sequence[Fraction]) -> bool:
    """Substitute y = sum c_k x^k into the equation and test the residual
    for identical vanishing.  Exact, and independent of how the coefficients
    were produced."""
    y = UPoly(coefficients)
    residual = (
        eq.p3() * y.derivative().derivative()
        + eq.p2() * y.derivative()
        - eq.p1() * y
    )
    return not residual


def construct_solution(eq: EquationSpec, n: int) -> PolySolution:
    """Primitive nullspace vector of the criterion matrix, residual-verified.

    Callers should have checked the degree condition and the determinant;
    ``NoNullspaceError`` signals that those preconditions were inconsistent.
    If the nullity exceeds one, the full verified basis is attached to an
    ``AmbiguousNullspaceError`` rather than picking a vector arbitrarily.
    """
    if not eq.is_numeric:
        raise ValueError("construct_solution requires a numeric equation")
    matrix = build_criterion_matrix(eq, n)
    numeric_rows = [
        [entry.constant_value() for entry in row] for row in matrix.rows
    ]
    basis = rational_nullspace(numeric_rows)
    if not basis:
        raise NoNullspaceError(
            f"criterion matrix at degree {n} is nonsingular"
        )

    def finish(vec) -> PolySolution:
        coeffs = primitive_vector(vec)
        top = max(i for i, c in enumerate(coeffs) if c)
        verified = verify_solution(eq, coeffs)
        if not verified:
            raise ArithmeticError(
                "nullspace vector failed residual verification"
            )
        return PolySolution(
            coefficients=coeffs, reported_degree=top, residual_is_zero=verified
        )

    if len(basis) > 1:
        raise AmbiguousNullspaceError([finish(v) for v in basis])
    return finish(basis[0])


# ---------------------------------------------------------------------------
# classical quadratic-coefficient ladder

def classical_tau(a20: ScalarLike, a10: ScalarLike, n: int) -> Fraction:
    """Eigencoefficient n(n-1) a20 + n a10 of the quadratic-coefficient class."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return n * (n - 1) * Fraction(a20) + n * Fraction(a10)


def classical_seed(a1: Sequence[ScalarLike]) -> tuple[UPoly, UPoly]:
    """Ladder seeds y_0 = 1 and y_1 = a10 x + a11."""
    a10, a11 = (Fraction(v) for v in a1)
    return UPoly.one(), UPoly([a11, a10])


def classical_recurrence_step(
    a2: Sequence[ScalarLike],
    a1: Sequence[ScalarLike],
    y_n: UPoly,
    y_n1: UPoly,
    n: int,
) -> UPoly:
    """One ladder step y_{n+2} from (y_n, y_{n+1}).

    The step coefficients have denominators (n a20 + a10) and (2n a20 + a10);
    if either vanishes the ladder degenerates and the caller must fall back
    to the matrix construction.
    """
    a20, a21, a22 = (Fraction(v) for v in a2)
    a10, a11 = (Fraction(v) for v in a1)
    d1 = n * a20 + a10
    d2 = 2 * n * a20 + a10
    if not d1 or not d2:
        raise DegenerateDenominatorError(
            f"ladder denominator vanished at n={n}"
        )
    lead = (2 * n + 1) * a20 + a10
    lead_next = 2 * (n + 1) * a20 + a10
    coef_x = lead * lead_next / d1
    coef_const = (
        lead
        * (2 * n * (n + 1) * a20 * a21 + 2 * (n + 1) * a10 * a21
           - 2 * a11 * a20 + a10 * a11)
        / (d1 * d2)
    )
    coef_prev = (
        (n + 1)
        * lead_next
        * (4 * n * n * a22 * a20 * a20 + a20 * a11 * a11
           + 4 * n * a20 * a10 * a22 - n * n * a20 * a21 * a21
           + a10 * a10 * a22 - a11 * a10 * a21 - n * a10 * a21 * a21)
        / (d1 * d2)
    )
    return UPoly([coef_const, coef_x]) * y_n1 + UPoly([coef_prev]) * y_n


def classical_polynomials(
    a2: Sequence[ScalarLike], a1: Sequence[ScalarLike], count: int
) -> list[UPoly]:
    """The first ``count`` ladder polynomials y_0, y_1, ..."""
    y0, y1 = classical_seed(a1)
    out = [y0, y1][:count]
    for n in range(count - 2):
        out.append(classical_recurrence_step(a2, a1, out[n], out[n + 1], n))
    return out


def embed_classical(
    a2: Sequence[ScalarLike], a1: Sequence[ScalarLike], tau00: ScalarLike
) -> EquationSpec:
    """Lift a quadratic-coefficient equation into the cubic-coefficient form
    by shifting every coefficient list down one slot."""
    a20, a21, a22 = a2
    a10, a11 = a1
    return EquationSpec(
        a3=(0, as_scalar(a20), as_scalar(a21), as_scalar(a22)),
        a2=(0, as_scalar(a10), as_scalar(a11)),
        tau=(0, as_scalar(tau00)),
    )
