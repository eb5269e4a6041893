"""Criteria and constructions for polynomial solutions of the ODE class

    (a30 x^3 + a31 x^2 + a32 x + a33) y''
      + (a20 x^2 + a21 x + a22) y'
      - (t10 x + t11) y = 0.

A degree-n polynomial solution forces two exact conditions.  First the
degree condition

    t10 = n (n-1) a30 + n a20,

which is the vanishing of the x^(n+1) coefficient of the residual (or, where
that vanishes identically, of its first lower one that does not).  Second,
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

import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

# bareiss_determinant is no longer called here; it stays bound so that
# perfbench/tracing.py can count any call to it through this module
from .exactalg import (  # noqa: F401
    UPoly, as_rational, banded_minors, bareiss_determinant, parse_rational)

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
    meaning c0 + c1*t, or a UPoly of degree <= 1.  ``UPoly`` reads each
    rational with ``as_rational``, so a float or a bool raises TypeError.
    """
    if isinstance(value, UPoly):
        scalar = value
    elif isinstance(value, (int, Fraction, str)):
        scalar = UPoly((value,))
    elif isinstance(value, Sequence):
        if len(value) > 2:
            raise ValueError(f"scalar must have degree <= 1, got {reprlib.repr(value)}")
        scalar = UPoly(value)
    else:
        raise TypeError(f"cannot coerce {reprlib.repr(value)} to an equation scalar")
    if len(scalar.coeffs) > 2:
        raise ValueError(f"scalar must have degree <= 1 in t, got {scalar.format(var='t')}")
    return scalar


def scalar_from_json(value, unknown: str | None) -> UPoly:
    """The equation scalar that a decoded JSON value spells: equation files
    and ``--params`` both read theirs here.  It is an integer literal, an
    exact rational string, or c0 + c1 u given as a list [c0, c1] or as
    {u: [c0, c1]}, where u is ``unknown`` and each entry an integer or a
    string.  Any other shape, and a list or an object when no unknown is
    declared (``unknown`` None), raises ValueError."""
    if isinstance(value, str):  # the common case, read first
        return UPoly((parse_rational(value),))
    if isinstance(value, (dict, list)):
        if unknown is None:
            raise ValueError('a list or object scalar needs a declared "unknown", '
                             f"got {reprlib.repr(value)}")
        if isinstance(value, dict):
            if list(value) != [unknown] or not isinstance(value[unknown], list):
                raise ValueError(
                    f'expected {{"{unknown}": [c0, c1]}}, got {reprlib.repr(value)}')
            value = value[unknown]
    try:
        return as_scalar(value)
    except TypeError:
        raise ValueError('use integers or exact strings like "1/2", '
                         f"not {reprlib.repr(value)}") from None


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
    #: whether no coefficient carries the unknown
    is_numeric: bool = field(init=False, repr=False, compare=False)
    #: (D, parts), D the least common denominator of the rationals in the
    #: nine coefficients (c0 and c1 of each c0 + c1 t): multiplied by D, the
    #: equation has integer coefficients and still the same solutions.  Each
    #: part is a nine-tuple of ints, D a30 .. D t11: one part for a numeric
    #: equation, two for a parametric one, the constants D c0 and the slopes
    #: D c1.
    integer_form: tuple[int, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a3", "a2", "tau"):
            object.__setattr__(self, name, tuple(map(as_scalar, getattr(self, name))))
        if len(self.a3) != 4 or len(self.a2) != 3 or len(self.tau) != 2:
            raise ValueError("need 4 + 3 + 2 coefficients")
        if not any(self.a3) and not any(self.a2):
            raise ValueError("equation has no second-order or first-order part")
        # both views read the rationals the coefficients hold, once, when
        # the equation is made; it is immutable, so they never go stale
        scalars = (*self.a3, *self.a2, *self.tau)
        numeric = all(len(s.coeffs) <= 1 for s in scalars)
        width = 1 if numeric else 2
        scale, flat = _integers([c for s in scalars for c in (*s.coeffs, 0, 0)[:width]])
        object.__setattr__(self, "is_numeric", numeric)
        object.__setattr__(self, "integer_form",
                           (scale, (flat,) if numeric else (flat[::2], flat[1::2])))

    def substitute(self, value) -> "EquationSpec":
        """Fix the unknown parameter to a rational value."""
        v = as_rational(value)
        return EquationSpec(
            a3=tuple(UPoly.constant(s(v)) for s in self.a3),
            a2=tuple(UPoly.constant(s(v)) for s in self.a2),
            tau=tuple(UPoly.constant(s(v)) for s in self.tau),
            unknown=self.unknown,
        )

    # -- JSON wire format ----------------------------------------------------

    def to_json_dict(self) -> dict:
        def encode(s: UPoly):
            if len(s.coeffs) > 1:
                return {self.unknown: s.to_strings()}
            return str(s.coeffs[0]) if s.coeffs else "0"

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
        """Decode the wire format, each scalar by ``scalar_from_json``; every
        malformed input raises ValueError, which names where it is."""
        unknown = data.get("unknown")
        if unknown is not None and not (isinstance(unknown, str) and unknown):
            raise ValueError("field 'unknown' must be a nonempty string, "
                             f"got {reprlib.repr(unknown)}")

        def scalars(name: str) -> list[UPoly]:
            if name not in data:
                raise ValueError(f"missing field {name!r}")
            if not isinstance(data[name], list):
                raise ValueError(f"field {name!r} must be a list of scalars")
            out = []
            for i, value in enumerate(data[name]):
                try:
                    out.append(scalar_from_json(value, unknown))
                except ValueError as exc:
                    raise ValueError(f"{name}[{i}]: {exc}") from exc
            return out

        return cls(a3=scalars("a3"), a2=scalars("a2"), tau=scalars("tau"),
                   unknown=unknown or "t")


# ---------------------------------------------------------------------------
# degree condition

#: each level of the degree condition with the slots of the nine
#: coefficients a30..a33, a20..a22, t10, t11 that it reads
_LEVEL_SLOTS = ((1, (0, 4, 7)), (0, (1, 5, 8)), (-1, (2, 6)), (-2, (3,)))


def _level_condition(eq: EquationSpec, n: int, level: int) -> UPoly:
    """The level-``level`` degree condition at n: minus the x^(n+level)
    coefficient of the residual of x^n, the entry of c_n in band row
    n + level, read on the ints of each part and divided by D once."""
    scale, parts = eq.integer_form
    return UPoly(Fraction(_recurrence_row(part, n + level)[1 - level], scale)
                 for part in parts)


def degree_condition(eq: EquationSpec, n: int) -> UPoly:
    """t10 - n(n-1) a30 - n a20, zero exactly when a degree-n solution can
    close its leading coefficient."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return _level_condition(eq, n, 1)


def degree_condition_effective(eq: EquationSpec, n: int) -> tuple[int, UPoly]:
    """(level, condition) at the equation's first level that is not
    identically zero.  Substituting y = x^n leaves a residual whose
    x^(n+L) coefficient is minus the level-L condition, for L = 1 .. -2:

        t10 - n(n-1) a30 - n a20,   t11 - n(n-1) a31 - n a21,
        -n(n-1) a32 - n a22,        -n(n-1) a33.

    A degree-n solution needs the first level whose coefficients do not
    all vanish to vanish at n.  In the criterion band that level is the
    lowest diagonal, and its entries are the condition at each degree.
    """
    _, parts = eq.integer_form
    level = next(level for level, slots in _LEVEL_SLOTS
                 if any(part[i] for part in parts for i in slots))
    return level, _level_condition(eq, n, level)


# ---------------------------------------------------------------------------
# criterion matrix and determinant

def _recurrence_row(coefficients: Sequence, k: int) -> tuple:
    """(A_k, B_k, C_k, D_k) from the nine coefficients a30..a33, a20..a22,
    t10, t11, in the ring of those coefficients."""
    a30, a31, a32, a33, a20, a21, a22, t10, t11 = coefficients
    a = t10 - (k - 2) * (k - 1) * a30 - (k - 1) * a20
    b = t11 - k * ((k - 1) * a31 + a21)
    c = -(k + 1) * (k * a32 + a22)
    d = -(k + 2) * (k + 1) * a33
    return a, b, c, d


def _integers(values: Sequence) -> tuple[int, tuple[int, ...]]:
    """(D, D * values): rationals (ints or Fractions) times the least common
    denominator D of them all, which makes every one an integer."""
    scale = lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


def _packed_minors(bands: Sequence[Sequence[tuple[int, int]]]) -> tuple[list[int], int]:
    """(minors, B): the leading minors of a band of pair entries, each in
    Z[t] packed as the int sum c_i 2^(B i) (Kronecker substitution).  A
    minor's absolute coefficient sum is at most the product over its rows of
    their entries' absolute coefficient sums, so with B = 2 + the bit length
    of that product over all rows (each at least 1) every |c_i| < 2^(B-2).
    An entry multiplies a minor M as e0 M + (e1 M << B), two products of a
    small int by M, and never as a packed int.  Entries outside the square,
    which no minor reads, only raise the bound."""
    bound = 1
    for band in bands:
        bound *= max(1, sum(abs(low) + abs(high) for low, high in band))
    shift = 2 + bound.bit_length()

    def times(entry: tuple[int, int], minor: int) -> int:
        low, high = entry
        return low * minor + ((high * minor) << shift) if high else low * minor

    return banded_minors(bands, times), shift


def _unpack(value: int, shift: int) -> list[int]:
    """The coefficients c_0, c_1, ... of sum c_i 2^(shift i), each below
    2^(shift-1) in absolute value: its balanced base-2^shift digits."""
    coefficients = []
    mask = (1 << shift) - 1
    half = 1 << (shift - 1)
    while value:
        digit = (((value & mask) + half) & mask) - half
        coefficients.append(digit)
        value = (value >> shift) + (digit < 0)
    return coefficients


def _unscale(value, divisor: int):
    """An int, or the int coefficients of a polynomial in t, over the
    positive ``divisor``: a Fraction, or a UPoly in t."""
    if isinstance(value, int):
        return Fraction(value, divisor)
    return UPoly(Fraction(c, divisor) for c in value)


@dataclass(frozen=True)
class CriterionMatrix:
    """(n+1) x (n+1) banded matrix whose singularity is the second condition
    for a degree-n polynomial solution.

    ``bands[k] = (A_k, B_k, C_k, D_k)`` is row k = 0..n of the coefficient
    recurrence, the entries at columns k-1..k+2, as ``_recurrence_row``
    gives it.  A_0, C_n, D_(n-1) and D_n fall outside the square: they are
    kept as built, and neither ``banded_minors`` nor ``band_nullspace`` reads
    them.  The band is the recurrence of the equation multiplied by
    ``scale``, the least common denominator D of the rationals in its nine
    coefficients (``EquationSpec.integer_form``), so its entries are
    integral: ints for a numeric equation, and for an equation with an
    unknown t pairs (e0, e1) of ints, the entry e0 + e1 t.  The scaled
    equation has the same solutions and its matrix the same nullspace, so
    ``band_nullspace`` takes the int bands as they are; the matrix itself is
    the band divided by D, which ``entry`` and ``leading_minors`` undo.
    """

    bands: tuple[tuple, ...]
    scale: int = 1

    @property
    def n(self) -> int:
        """The degree: the matrix has order n+1, one row per band."""
        return len(self.bands) - 1

    def entry(self, k: int, j: int):
        """Entry (k, j) of the criterion matrix, the band entry over
        ``scale``: a Fraction for a numeric equation, else a UPoly in t."""
        if not (0 <= k <= self.n and 0 <= j <= self.n):
            raise IndexError(f"entry ({k}, {j}) outside the order-{self.n + 1} matrix")
        if k - 1 <= j <= k + 2:
            return _unscale(self.bands[k][j - k + 1], self.scale)
        return UPoly() if isinstance(self.bands[0][0], tuple) else Fraction(0)

    def leading(self, n: int) -> "CriterionMatrix":
        """The degree-n criterion matrix, for 0 <= n <= self.n: no band entry
        depends on the degree, so it is this matrix's leading (n+1) x (n+1)
        block, its first n+1 rows."""
        if not 0 <= n <= self.n:
            raise ValueError(f"degree {n} outside 0..{self.n}")
        return CriterionMatrix(bands=self.bands[:n + 1], scale=self.scale)

    def leading_minors(self, orders) -> list:
        """The leading principal minors of the given orders, each in 1..n+1,
        of the criterion matrix; that of order m + 1 is the degree-m
        determinant.  Rationals for a numeric equation, UPolys in t
        otherwise.  They are running minors of the band in Z, or in Z[t]
        packed into ints (``_packed_minors``), where the order-m one is
        scale^m times the matrix's own (not always divisible by it); only
        those asked for are unpacked and unscaled."""
        if isinstance(self.bands[0][0], tuple):
            minors, shift = _packed_minors(self.bands)
            return [_unscale(_unpack(minors[m - 1], shift), self.scale ** m)
                    for m in orders]
        minors = banded_minors(self.bands)
        if self.scale == 1:
            return [minors[m - 1] for m in orders]
        return [Fraction(minors[m - 1], self.scale ** m) for m in orders]


def build_criterion_matrix(eq: EquationSpec, n: int) -> CriterionMatrix:
    """Assemble the band of rows k = 0..n of the coefficient recurrence of
    the equation scaled to integer coefficients (see ``CriterionMatrix``).
    For an equation with an unknown the recurrence, being linear in the
    coefficients, runs once on the constant parts and once on the slopes,
    and each entry pairs the two.  The suppressed row k = n+1 would
    multiply c_n by the degree condition, read off the same row formula.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    scale, parts = eq.integer_form
    if eq.is_numeric:
        bands = tuple(_recurrence_row(parts[0], k) for k in range(n + 1))
    else:
        constant, slope = parts
        bands = tuple(tuple(zip(_recurrence_row(constant, k), _recurrence_row(slope, k)))
                      for k in range(n + 1))
    return CriterionMatrix(bands=bands, scale=scale)


def delta_determinant(eq: EquationSpec, n: int) -> UPoly:
    """Exact determinant of the degree-n criterion matrix, as a polynomial in
    the unknown parameter (a constant when the equation is numeric), by the
    O(n) leading-minor recurrence of its band; of its minors only the last
    is unpacked and unscaled."""
    det, = build_criterion_matrix(eq, n).leading_minors((n + 1,))
    return UPoly.constant(det) if eq.is_numeric else det


# ---------------------------------------------------------------------------
# solution construction and verification

@dataclass(frozen=True)
class PolySolution:
    """Exact polynomial solution: a primitive integer coefficient vector
    c_0..c_N with positive leading entry.  ``construct_solution`` makes one
    only once its residual vanishes, so every one is verified."""

    coefficients: tuple[int, ...]
    reported_degree: int

    def polynomial(self) -> UPoly:
        return UPoly(self.coefficients)


def band_nullspace(bands: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the nullspace of a square integer matrix with the criterion
    band, by back-substitution along its lowest diagonal.

    ``bands[k] = (A_k, B_k, C_k, D_k)`` holds row k at columns k-1..k+2, as
    in ``CriterionMatrix.bands`` of a numeric equation, and every entry is
    an int; entries outside the square are ignored.  The basis is the
    reduced-echelon one, each vector as a primitive integer vector: vector f
    is nonzero at the f-th free column, its last nonzero entry, which is
    positive, and 0 at every other free column.  Divided by that entry it
    equals the Gauss-Jordan basis of ``rational_nullspace`` entry for entry.

    Entry (k, j) lies on diagonal k - j, from 1 (A) down to -2 (D).  Let
    ``low`` be the lowest diagonal with an entry in the square: row j + low
    is zero left of column j, so it gives c_j from the columns right of it
    where its entry there is nonzero, and column j is a parameter where
    that entry is zero or the row lies outside the square.  In an
    equation's band the entry of c_j on diagonal L is the level-L degree
    condition at degree j (``degree_condition_effective``), a quadratic in
    j, so at most two columns that a row reaches are parameters.

    One vector per parameter is back-substituted as integers over the
    common denominator at its parameter column, and stays primitive
    throughout: a step that scales it by m = pivot / g, g = gcd(total,
    pivot), writes the new entry -total / g, which is coprime to m.  Only
    its sign is left to fix.  The rows that pivot no column, at most three
    in an equation's band, are left: their nullspace over the parameters,
    by ``rational_nullspace``, combines the vectors.  Each combination ends
    at its own free column, which no other one holds, so it is the
    reduced-echelon vector there.
    """
    size = len(bands)
    low = next((d for d in (1, 0, -1, -2)
                if any(bands[k][1 - d] for k in range(max(d, 0), min(size + d, size)))), 0)
    pivot_rows = {}
    for col in range(max(-low, 0), min(size - low, size)):
        row = col + low
        if bands[row][1 - low]:
            pivot_rows[col] = bands[row][1 - low:size - row + 1]
    vectors = []
    for param in range(size):
        if param in pivot_rows:
            continue
        vec = [0] * size
        vec[param] = 1
        for col in range(param - 1, -1, -1):
            pivot = pivot_rows.get(col)
            if pivot is None:
                continue
            total = sum(pivot[i] * vec[col + i] for i in range(1, len(pivot)))
            if total:
                common = gcd(total, pivot[0])
                multiplier = pivot[0] // common
                if multiplier != 1:
                    for i in range(col + 1, param + 1):
                        vec[i] *= multiplier
                vec[col] = -total // common
        vectors.append(vec if vec[param] > 0 else [-value for value in vec])
    left = [[sum(bands[row][j - row + 1] * vec[j]
                 for j in range(max(row - 1, 0), min(row + 3, size))) for vec in vectors]
            for row in range(size) if row - low not in pivot_rows]
    if not any(map(any, left)):
        return vectors
    basis = []
    for weights in rational_nullspace(left):
        _, weights = _integers(weights)
        combined = [sum(w * vec[j] for w, vec in zip(weights, vectors) if w)
                    for j in range(size)]
        content = gcd(*combined)
        basis.append([value // content for value in combined])
    return basis


def rational_nullspace(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the nullspace of a square rational matrix, by exact dense
    Gauss-Jordan elimination.  ``band_nullspace`` solves its few leftover
    rows with it; on whole matrices it is that kernel's test oracle."""
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


def residual_vanishes(p3: Sequence, p2: Sequence, p1: Sequence,
                      y: Sequence) -> bool:
    """Whether P3 y'' + P2 y' - P1 y vanishes identically; each polynomial
    is an ascending list of rationals (ints or Fractions), of any length.
    The equation is scaled to integers by one common denominator and y by
    its own, which leaves the residual's vanishing unchanged, so the
    residual is a list of ints."""
    _, ints = _integers([*p3, *p2, *p1])
    cut, end = len(p3), len(p3) + len(p2)
    _, y0 = _integers(y)
    y1 = [k * c for k, c in enumerate(y0)][1:]
    y2 = [k * c for k, c in enumerate(y1)][1:]
    residual = [0] * (max(len(p3), len(p2), len(p1)) + len(y0))
    for factors, series in ((ints[:cut], y2), (ints[cut:end], y1),
                            ([-c for c in ints[end:]], y0)):
        for shift, factor in enumerate(factors):
            if factor:
                for power, c in enumerate(series, start=shift):
                    residual[power] += factor * c
    return not any(residual)


def verify_solution(eq: EquationSpec, coefficients: Sequence[Fraction]) -> bool:
    """Substitute y = sum c_k x^k into the equation and test the residual
    for identical vanishing (``residual_vanishes``, on the equation's
    integer form).  Exact, and independent of how the coefficients were
    produced: it reads the equation, never its band."""
    if not eq.is_numeric:
        raise ValueError("equation carries an unknown parameter")
    _, ((a30, a31, a32, a33, a20, a21, a22, t10, t11),) = eq.integer_form
    return residual_vanishes((a33, a32, a31, a30), (a22, a21, a20), (t11, t10),
                             coefficients)


def construct_solution(eq: EquationSpec, matrix: CriterionMatrix) -> PolySolution:
    """Primitive nullspace vector of ``matrix``, the equation's degree-n
    criterion matrix (``build_criterion_matrix(eq, n)`` or a leading block
    of a larger one), residual-verified against the equation itself.

    Callers should have checked the degree condition and the determinant;
    ``NoNullspaceError`` signals that those preconditions were inconsistent.
    If the nullity exceeds one, the full verified basis is attached to an
    ``AmbiguousNullspaceError`` rather than picking a vector arbitrarily.
    """
    if not eq.is_numeric:
        raise ValueError("construct_solution requires a numeric equation")
    basis = band_nullspace(matrix.bands)
    if not basis:
        raise NoNullspaceError(
            f"criterion matrix at degree {matrix.n} is nonsingular"
        )

    def finish(vec) -> PolySolution:
        coeffs = tuple(vec)
        if not verify_solution(eq, coeffs):
            raise ArithmeticError("nullspace vector failed residual verification")
        return PolySolution(coefficients=coeffs,
                            reported_degree=max(i for i, c in enumerate(coeffs) if c))

    if len(basis) > 1:
        raise AmbiguousNullspaceError([finish(v) for v in basis])
    return finish(basis[0])


# ---------------------------------------------------------------------------
# classical quadratic-coefficient ladder

def classical_tau(a20: ScalarLike, a10: ScalarLike, n: int) -> Fraction:
    """Eigencoefficient n(n-1) a20 + n a10 of the quadratic-coefficient class."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return n * (n - 1) * as_rational(a20) + n * as_rational(a10)


def classical_seed(a1: Sequence[ScalarLike]) -> tuple[UPoly, UPoly]:
    """Ladder seeds y_0 = 1 and y_1 = a10 x + a11."""
    a10, a11 = (as_rational(v) for v in a1)
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
    a20, a21, a22 = (as_rational(v) for v in a2)
    a10, a11 = (as_rational(v) for v in a1)
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
    if count < 0:
        raise ValueError("count must be nonnegative")
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
