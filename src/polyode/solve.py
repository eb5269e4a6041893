"""Certified real-root isolation and refinement for constraint polynomials.

Isolation is bisection on Sturm counts and refinement is quadratic interval
refinement on the same bisection grid, so every step is exact; floating
point appears only in the final refined output values.
Each polynomial gets one Sturm remainder sequence, computed in Z[x] as a
primitive pseudo-remainder sequence (Collins 1967; Brown & Traub 1971):
every remainder is scaled by a positive integer and divided by its positive
content, which keeps every sign.  Its last element is gcd(p, p'), and the
sequence divided through by it is the Sturm sequence of the square-free
part, so no Euclid over the rationals runs.  Every sign test is
homogenised integer Horner: for x = a/b with b > 0 the sign of f(x) is the
sign of sum c_i a^i b^(d-i).  Isolation bisects (-2^e, 2^e], where 2^e is
a Fujiwara bound on every root of the whole divided sequence, so the
counts at its ends need no evaluation and every point is an int over a
power of two.  Refinement reports, for each root, the float nearest it,
which the root alone fixes, so no tolerance is asked for; its number of
sign tests grows as the logarithm of the depth of its final cell rather
than as the depth (Abbott 2006; Kerber & Sagraloff 2011).
Isolation and refinement evaluate only on a dyadic grid: every point is
an int over 2^k, and each value is Horner with shifts, one product per
coefficient (``_grid_value``).  Cells pass from isolation to refinement
as ints (a, b, k); the report's ``Fraction`` ends are built once.  By the
rational root theorem a rational root times the leading coefficient L of
the primitive square-free part is an integer, so in a cell narrower than
1/|L| one integer candidate decides whether the root is rational.
Complex roots are out of scope; their number is reported as the
square-free degree minus the count of distinct real roots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

# squarefree_part is no longer called here; it stays bound so that
# perfbench/tracing.py can count any call to it through this module
from .exactalg import UPoly, as_rational, squarefree_part  # noqa: F401

IntPoly = tuple[int, ...]
#: a cell (a, b, k) of the real line: the interval (a/2^k, b/2^k]
Cell = tuple[int, int, int]


class ZeroPolynomialError(ValueError):
    """Root finding on the zero polynomial is meaningless."""


class NotIsolatingError(ValueError):
    """The supplied interval does not contain exactly one root."""


@dataclass(frozen=True)
class RootReport:
    """Isolation and refinement summary for one polynomial.

    Each interval (lo, hi] contains exactly one distinct real root, certified
    by Sturm counts, and has ends that are ints over powers of two inside
    the Fujiwara bound (see ``_isolate``); ``refined`` holds, per interval,
    the float nearest its root (ties to even), or None for a root past the
    largest float, and ``exact_rational_roots`` lists the subset of roots
    that are exactly rational.
    """

    polynomial: UPoly
    intervals: tuple[tuple[Fraction, Fraction], ...]
    refined: tuple[Optional[float], ...]
    exact_rational_roots: tuple[Fraction, ...]
    nonreal_count: int

    def to_json_dict(self) -> dict:
        return {
            "intervals": [[str(lo), str(hi)] for lo, hi in self.intervals],
            "roots": list(self.refined),
            "exact": [str(r) for r in self.exact_rational_roots],
            "nonreal_count": self.nonreal_count,
        }


def _primitive(f: Sequence[int]) -> IntPoly:
    """f over its positive content: coprime ints, and the sign of f at
    every point."""
    content = gcd(*f)
    return tuple(c // content for c in f) if content > 1 else tuple(f)


def _negated_remainder(f: IntPoly, g: IntPoly) -> IntPoly:
    """-(f mod g) as a primitive integer polynomial, () when g divides f.

    A sign-safe pseudo-remainder: each step scales the running remainder by
    |lc(g)| (or not at all when lc(g) divides its leading coefficient), so
    the result is a positive multiple of the rational remainder and keeps
    every sign that a Sturm count reads."""
    rem = list(f)
    lead = g[-1]
    scale = abs(lead)
    top_g = len(g) - 1
    while len(rem) > top_g:
        top = rem[-1]
        shift = len(rem) - 1 - top_g
        factor, remainder = divmod(top, lead)
        if remainder:
            rem = [scale * c for c in rem]
            factor = top if lead > 0 else -top
        for i, c in enumerate(g):
            rem[shift + i] -= factor * c
        while rem and not rem[-1]:
            rem.pop()
    return _primitive([-c for c in rem]) if rem else ()


def _remainder_sequence(p: UPoly) -> list[IntPoly]:
    """The Sturm sequence of p as primitive integer polynomials: p, p', then
    negated remainders until one vanishes.  Each element has the sign of the
    rational Sturm sequence's element at every point, so every count is the
    same; the last element is a greatest common divisor of p and p'.  p is
    scaled to integers by the lcm of its denominators, and p' taken there."""
    if not p:
        raise ZeroPolynomialError("zero polynomial")
    scale = lcm(*(c.denominator for c in p.coeffs))
    chain = [_primitive([c.numerator * (scale // c.denominator) for c in p.coeffs])]
    if len(chain[0]) > 1:
        chain.append(_primitive([i * c for i, c in enumerate(chain[0])][1:]))
        while len(chain[-1]) > 1:
            rem = _negated_remainder(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(rem)
    return chain


def _exact_division(f: IntPoly, g: IntPoly) -> IntPoly:
    """f / g in Z[x]; a nonzero remainder raises ``ArithmeticError``."""
    rem = list(f)
    lead = g[-1]
    top_g = len(g) - 1
    quotient = [0] * (len(f) - top_g)
    for shift in range(len(quotient) - 1, -1, -1):
        factor, inexact = divmod(rem[shift + top_g], lead)
        if inexact:
            raise ArithmeticError(f"{f} is not divisible by {g} in Z[x]")
        quotient[shift] = factor
        if factor:
            for i, c in enumerate(g):
                rem[shift + i] -= factor * c
    if any(rem[:top_g]):
        raise ArithmeticError(f"{f} is not divisible by {g} in Z[x]")
    return tuple(quotient)


def _squarefree_sequence(chain: list[IntPoly]) -> list[IntPoly]:
    """The Sturm sequence of the square-free part of chain[0], from the
    remainder sequence ``chain``.

    Its last element g is a primitive greatest common divisor of p and p'.
    Every element is a multiple of g, so by Gauss's lemma it divides by g in
    Z[x]; with g's leading coefficient made positive, chain[0] / g is the
    square-free part with the sign of p.  The quotients form a Sturm
    sequence of that part: dividing by g flips every sign or none where
    g(x) != 0, and the last quotient is the constant 1."""
    g = chain[-1]
    if len(g) == 1:
        return chain
    if g[-1] < 0:
        g = tuple(-c for c in g)
    return [_exact_division(f, g) for f in chain]


def sturm_chain(p: UPoly) -> list[UPoly]:
    """Sturm sequence p, p', then negated remainders until termination.

    Remainders are rescaled by their (positive) content to tame coefficient
    growth; positive scaling preserves every sign and hence all counts.
    A view of the integer remainder sequence that the root reports use.
    """
    chain = _remainder_sequence(p)
    if len(chain) == 1:
        return [p]
    return [p, p.derivative(), *map(UPoly, chain[2:])]


def _value_at(f: IntPoly, a: int, b: int) -> int:
    """b^d f(a/b), homogenised Horner: sum c_i a^i b^(d-i).  For b > 0 it
    has the sign of f(a/b); the same point written over b 2^s has the value
    times 2^(d s)."""
    acc = 0
    scale = 1
    for c in reversed(f):
        acc = acc * a + c * scale
        scale *= b
    return acc


def _grid_value(f: IntPoly, a: int, k: int) -> int:
    """``_value_at(f, a, 1 << k)``: the sum of c_i a^i 2^(k(d-i)), by
    Horner with shifts, one product per coefficient."""
    acc = 0
    shift = 0
    for c in reversed(f):
        acc = acc * a + (c << shift)
        shift += k
    return acc


def _variations(values: Sequence[int]) -> int:
    """Sign changes along values, zeros skipped."""
    flips = 0
    last = 0
    for v in values:
        if not v:
            continue
        if last and (v > 0) != (last > 0):
            flips += 1
        last = v
    return flips


def _variations_at(chain: Sequence[IntPoly], x: Fraction) -> int:
    a, b = x.numerator, x.denominator
    return _variations([_value_at(f, a, b) for f in chain])


def _variations_at_infinity(chain: Sequence[IntPoly], positive: bool) -> int:
    signs = []
    for f in chain:
        s = 1 if f[-1] > 0 else -1
        if not positive and len(f) % 2 == 0:  # odd degree
            s = -s
        signs.append(s)
    return _variations(signs)


def _count(chain: Sequence[IntPoly], lo: Optional[Fraction],
           hi: Optional[Fraction]) -> int:
    v_lo = (
        _variations_at_infinity(chain, positive=False)
        if lo is None
        else _variations_at(chain, lo)
    )
    v_hi = (
        _variations_at_infinity(chain, positive=True)
        if hi is None
        else _variations_at(chain, hi)
    )
    return v_lo - v_hi


def _root_bound_exponent(chain: Sequence[IntPoly]) -> int:
    """e >= 1 with every real root of every element of chain strictly inside
    (-2^e, 2^e).

    Fujiwara's bound puts every root of f within 2 max_i |c_(d-i)/c_d|^(1/i);
    with |c| < 2^bitlen(c) and |c_d| >= 2^(bitlen(c_d) - 1) each term is
    below 2^ceil((bitlen(c_(d-i)) - bitlen(c_d) + 1) / i)."""
    top = 0
    for f in chain:
        lead_bits = abs(f[-1]).bit_length()
        degree = len(f) - 1
        for i in range(1, degree + 1):
            c = f[degree - i]
            if c:
                top = max(top, -((lead_bits - 1 - abs(c).bit_length()) // i))
    return top + 1


def _isolate(chain: Sequence[IntPoly]) -> tuple[Cell, ...]:
    """Sorted disjoint cells (a, b, k), one for each distinct real root
    of chain[0], that root lying in (a/2^k, b/2^k], with k the least
    such level.

    Bisection on Sturm counts from (-2^e, 2^e], with 2^e the Fujiwara bound
    of the whole chain (``_root_bound_exponent``): every root lies strictly
    inside, and at both ends every element has its sign at infinity, so
    their counts are read off the leading coefficients.  A split point is
    the midpoint, or, where chain[0] vanishes, the first of mid + w/4,
    mid + w/8, ... where it does not (w the width).  Points are int
    numerators over 2^k, read by ``_grid_value``, so no ``Fraction`` is
    built; each stack entry carries the variation counts at both of its
    ends, and a split evaluates the chain once, at the new point, reusing
    the sign of chain[0] that the split test computed.  The left half of a
    split is searched first, so the cells come out in order."""
    f = chain[0]

    def variations(a: int, k: int) -> Optional[int]:
        """Sign variations of the chain at a / 2^k; None where chain[0]
        vanishes."""
        first = _grid_value(f, a, k)
        if not first:
            return None
        return _variations([first, *[_grid_value(g, a, k) for g in chain[1:]]])

    bound = 1 << _root_bound_exponent(chain)
    v_lo = _variations_at_infinity(chain, positive=False)
    v_hi = _variations_at_infinity(chain, positive=True)
    total = v_lo - v_hi
    # entries (a, b, k, v_a, v_b): the interval (a, b] over 2^k
    stack = [(-bound, bound, 0, v_lo, v_hi)]
    cells: list[Cell] = []
    while stack:
        a, b, k, v_a, v_b = stack.pop()
        count = v_a - v_b
        if count == 1:
            # over the least power of two
            low = min(k, ((a | b) & -(a | b)).bit_length() - 1)
            cells.append((a >> low, b >> low, k - low))
        if count < 2:
            continue
        shift = 0
        split = a + b
        v_split = variations(split, k + 1)
        while v_split is None:
            shift += 1
            split = ((a + b) << shift) + b - a
            v_split = variations(split, k + 1 + shift)
        shift += 1
        k += shift
        stack.append((split, b << shift, k, v_split, v_b))
        stack.append((a << shift, split, k, v_a, v_split))
    if len(cells) != total:
        raise ArithmeticError(f"isolated {len(cells)} intervals for {total} roots")
    return tuple(cells)


def isolate_real_roots(p: UPoly) -> RootReport:
    """The intervals of ``analyze_roots``, without the refined values and
    the exact roots."""
    return replace(analyze_roots(p), refined=(), exact_rational_roots=())


def _nearest_float(a: int, b: int) -> Optional[float]:
    """The float nearest a/b for b > 0, ties to even, or None past the
    largest float."""
    try:
        return a / b
    except OverflowError:
        return None


def _exact(root: Fraction) -> tuple[Optional[float], Fraction]:
    """The report for a rational root: its nearest float, and itself."""
    return _nearest_float(root.numerator, root.denominator), root


def _refine(chain: Sequence[IntPoly], a: int, b: int,
            k: int) -> tuple[Optional[float], Optional[Fraction]]:
    """Refine (a/2^k, b/2^k], a cell of ``_isolate`` that holds one root of
    the square-free chain[0], on its bisection grid.  Neither end of such a
    cell is a root; an end that is raises ``ArithmeticError``.

    Returns the float nearest the root, ties to even (None when the root
    lies past the largest float), and the root when it is rational, else
    None.

    A rational root r of the primitive integer chain[0] has a denominator
    dividing its leading coefficient L (the rational root theorem), so
    |L| r is an integer.  In the first cell (lo, hi] narrower than 1/|L|,
    of level k_test, (|L| lo, |L| hi] holds at most one integer, so the
    only candidate is y = floor(|L| hi): the root is rational exactly when
    y/|L| > lo and y/|L| is a root.  A rational root, like a tested point
    that is the root, reports its own nearest float.  An irrational root lies strictly
    inside every cell that holds it, so refinement goes on until both ends
    of the cell round to the same float, which rounding, being monotone,
    gives the root too.

    The cell of level k' that holds the root is (x, x + w] over 2^k', with
    w = b - a, and every value on it is ``_grid_value`` at level k'.  That
    cell is found by quadratic interval refinement (Abbott 2006; Kerber &
    Sagraloff 2011) rather than one level at a time: the integer secant
    guess m = floor(N v_lo / (v_lo - v_hi)) from the homogenised values at
    the cell's ends picks one of its N = 2^s subcells, s = log_n levels
    down; when the subcell's ends bracket the root it is kept and N
    squares, else one bisection step follows and s halves.  A kept end
    value carries to the finer level shifted left by d s bits.  No step
    passes level k_test before the rational-root test has run there.
    """
    f = chain[0]
    lead = abs(f[-1])
    degree = len(f) - 1
    width = b - a
    k_test = max(k, (lead * width).bit_length())

    def hit(x: int, level: int) -> tuple[Optional[float], Fraction]:
        """The report for a root at the grid point x over 2^level."""
        return _exact(Fraction(x, 1 << level))

    # the cell (a, a + width] over 2^k holds the root, and v_lo, v_hi are
    # the values at its ends; a subcell of N = 2^log_n cells is log_n
    # levels down
    v_lo, v_hi = _grid_value(f, a, k), _grid_value(f, b, k)
    if not v_lo or not v_hi:
        raise ArithmeticError(f"the cell ({a}/2^{k}, {b}/2^{k}] ends on a root")
    log_n = 2
    tested = False
    while True:
        if tested:
            nearest = _nearest_float(a, 1 << k)
            if nearest == _nearest_float(a + width, 1 << k):
                return nearest, None
        elif k == k_test:
            # the rational-root test, in the cell of level k_test
            y = lead * (a + width) >> k
            if y << k > lead * a and not _value_at(f, y, lead):
                return _exact(Fraction(y, lead))
            tested = True
            continue
        else:
            log_n = min(log_n, k_test - k)
        if log_n > 1:
            fine, carry = k + log_n, degree * log_n
            m = (v_lo << log_n) // (v_lo - v_hi)
            x = (a << log_n) + m * width
            v_m = _grid_value(f, x, fine) if m else v_lo << carry
            if not v_m:
                return hit(x, fine)
            if (v_m > 0) == (v_lo > 0):
                last = m + 1 == 1 << log_n
                v_next = v_hi << carry if last else _grid_value(f, x + width, fine)
                if not v_next:
                    return hit(x + width, fine)
                if (v_next > 0) == (v_hi > 0):
                    k, a, v_lo, v_hi = fine, x, v_m, v_next
                    log_n *= 2
                    continue
            log_n //= 2
        else:
            # a subcell of N = 2 is a bisection step, which always succeeds
            log_n = 2
        k += 1
        a *= 2
        v_mid = _grid_value(f, a + width, k)
        if not v_mid:
            return hit(a + width, k)
        if (v_mid > 0) == (v_lo > 0):
            a += width
            v_lo, v_hi = v_mid, v_hi << degree
        else:
            v_lo, v_hi = v_lo << degree, v_mid


def refine_root(p: UPoly, interval: tuple[Fraction, Fraction]) -> Optional[float]:
    """The float nearest the one distinct root of p in the interval (lo,
    hi]; an interval whose Sturm count is not exactly one raises
    ``NotIsolatingError``.  That float depends on the root alone, so the
    root's own cell of ``_isolate`` is refined: the one after the
    ``_count(chain, None, lo)`` roots up to lo.
    """
    chain = _squarefree_sequence(_remainder_sequence(p))
    lo, hi = as_rational(interval[0]), as_rational(interval[1])
    if _count(chain, lo, hi) != 1:
        raise NotIsolatingError(f"interval ({lo}, {hi}] does not isolate one root")
    return _refine(chain, *_isolate(chain)[_count(chain, None, lo)])[0]


def rational_roots(p: UPoly) -> tuple[Fraction, ...]:
    """All rational roots, sorted, read off the isolating intervals of the
    whole real line (see ``analyze_roots``)."""
    return analyze_roots(p).exact_rational_roots


def analyze_roots(p: UPoly) -> RootReport:
    """Isolate, refine, and detect exact rational roots of p over the whole
    real line (see ``_isolate``) in one report.

    One integer remainder sequence of p, divided through by its last
    element, is the Sturm sequence of the square-free part; it serves
    isolation (the two parts have the same roots), refinement and the
    rational-root test of every interval.  The nonreal roots, each counted
    once, are the square-free degree less the real ones.
    """
    chain = _squarefree_sequence(_remainder_sequence(p))
    cells = _isolate(chain)
    results = [_refine(chain, *cell) for cell in cells]
    return RootReport(
        polynomial=p,
        intervals=tuple((Fraction(a, 1 << k), Fraction(b, 1 << k)) for a, b, k in cells),
        refined=tuple(value for value, _ in results),
        exact_rational_roots=tuple(r for _, r in results if r is not None),
        nonreal_count=len(chain[0]) - 1 - len(cells),
    )
