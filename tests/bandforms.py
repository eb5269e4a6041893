"""Conversion between the criterion band and dense square matrices, so the
dense oracles (Bareiss, Gauss-Jordan, sympy) read the same matrices as the
band kernels; the tridiagonal continuant, the independent oracle for the
Coulomb constraint; the rational residual, the independent oracle for the
integer residual certificate; and the primitive form of a rational vector,
which turns the Gauss-Jordan nullspace into the integer basis that
``band_nullspace`` returns."""

from math import gcd, lcm

from polyode.exactalg import UPoly


def dense(bands):
    """Dense rows of a band: row k holds ``bands[k] = (A_k, B_k, C_k, D_k)``
    at columns k-1..k+2 and zeros elsewhere; entries outside the square are
    dropped."""
    size = len(bands)
    zero = bands[0][1] * 0
    rows = [[zero] * size for _ in range(size)]
    for k, band in enumerate(bands):
        for j, value in enumerate(band, start=k - 1):
            if 0 <= j < size:
                rows[k][j] = value
    return rows


def entries(matrix):
    """Dense rows of a ``CriterionMatrix`` itself, read through ``entry``:
    for a numeric equation its rational entries, not the integer band of
    the scaled equation."""
    size = matrix.n + 1
    return [[matrix.entry(k, j) for j in range(size)] for k in range(size)]


def residual(eq, coefficients):
    """P3 y'' + P2 y' - P1 y for y = sum c_k x^k, as a polynomial over the
    rationals, from the equation's own coefficients."""
    y = UPoly(coefficients)
    return eq.p3() * y.derivative().derivative() + eq.p2() * y.derivative() - eq.p1() * y


def bands_of(rows):
    """The band tuples of a square matrix whose row k vanishes outside
    columns k-1..k+2, with zeros where the band leaves the square."""
    size = len(rows)
    zero = rows[0][0] * 0
    return [tuple(rows[k][j] if 0 <= j < size else zero for j in range(k - 1, k + 3))
            for k in range(size)]


def tridiagonal_continuant(diagonal, offdiagonal_products):
    """Determinant of a tridiagonal matrix from its diagonal entries and the
    products of paired off-diagonal entries.

    ``offdiagonal_products[i]`` must equal (row i+1, col i) * (row i, col i+1).
    Only products of off-diagonal pairs enter a tridiagonal determinant, so
    this works even when the individual factors live outside the coefficient
    ring of the result.
    """
    n = len(diagonal)
    if n == 0:
        raise ValueError("empty matrix")
    if len(offdiagonal_products) != n - 1:
        raise ValueError("need exactly n-1 off-diagonal products")
    prev2 = None
    prev = diagonal[0]
    for i in range(1, n):
        cross = offdiagonal_products[i - 1]
        if prev2 is not None:
            cross = cross * prev2
        cur = diagonal[i] * prev - cross
        prev2, prev = prev, cur
    return prev


def primitive_vector(vec):
    """Scale a nonzero rational vector to coprime integers with the highest
    order nonzero entry positive."""
    nonzero = [c for c in vec if c]
    if not nonzero:
        raise ValueError("zero vector has no primitive form")
    num = gcd(*(c.numerator for c in nonzero))
    if nonzero[-1] < 0:
        num = -num
    den = lcm(*(c.denominator for c in nonzero))
    return tuple(c.numerator * (den // c.denominator) // num for c in vec)


def integer_rows(rows):
    """Each row of a rational matrix times the least common denominator of
    its entries, as ints: the matrix that ``band_nullspace`` takes, with the
    same nullspace."""
    out = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        out.append([int(v * scale) for v in row])
    return out
