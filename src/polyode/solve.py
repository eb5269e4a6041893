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
sign of sum c_i a^i b^(d-i).  Isolation keeps its points as int numerators
over one denominator times a power of two, and a point past the Fujiwara
bound of the whole divided sequence costs no evaluation.  Refinement finds
the cell that bit-by-bit bisection would end on, with a number of sign
tests that grows as the logarithm of the cell's depth rather than as the
depth (Abbott 2006; Kerber & Sagraloff 2011), and reports what bisection
would report.  Complex roots are out of scope; their number is reported
as the square-free degree minus the count of distinct real roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

# squarefree_part is no longer called here; it stays bound so that
# perfbench/tracing.py can count any call to it through this module
from .exactalg import UPoly, squarefree_part  # noqa: F401

DEFAULT_TOLERANCE = Fraction(1, 10**12)
DEFAULT_RANGE = Fraction(10**6)

IntPoly = tuple[int, ...]


class ZeroPolynomialError(ValueError):
    """Root finding on the zero polynomial is meaningless."""


class NotIsolatingError(ValueError):
    """The supplied interval does not contain exactly one root."""


@dataclass(frozen=True)
class RootReport:
    """Isolation and refinement summary for one polynomial.

    Each interval (lo, hi] contains exactly one distinct real root, certified
    by Sturm counts; ``refined`` holds one float per interval, accurate to
    the requested tolerance, and ``exact_rational_roots`` lists the subset of
    roots that are exactly rational.
    """

    polynomial: UPoly
    intervals: tuple[tuple[Fraction, Fraction], ...]
    refined: tuple[float, ...]
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


def _sign_at(f: IntPoly, a: int, b: int) -> int:
    """Sign of f(a/b) for b > 0."""
    acc = _value_at(f, a, b)
    return (acc > 0) - (acc < 0)


def _variations(signs: Sequence[int]) -> int:
    flips = 0
    last = 0
    for s in signs:
        if s == 0:
            continue
        if last and s != last:
            flips += 1
        last = s
    return flips


def _variations_at(chain: Sequence[IntPoly], x: Fraction) -> int:
    a, b = x.numerator, x.denominator
    return _variations([_sign_at(f, a, b) for f in chain])


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


def _nonreal_count(chain: Sequence[IntPoly]) -> int:
    """Nonreal roots of the square-free chain[0], each counted once: its
    degree less its real roots."""
    return len(chain[0]) - 1 - _count(chain, None, None)


def _search_range(f: IntPoly, lo: Optional[Fraction],
                  hi: Optional[Fraction]) -> tuple[Fraction, Fraction]:
    """(lo, hi) defaulted to (-R, R), which holds every real root of the
    integer polynomial f: R is 10^6, or f's Cauchy bound 1 + max |c_i| /
    |lead| where larger, which an int comparison decides."""
    top, lead = max(map(abs, f)), abs(f[-1])
    bound = (1 + Fraction(top, lead) if top > (DEFAULT_RANGE.numerator - 1) * lead
             else DEFAULT_RANGE)
    lo = Fraction(-bound if lo is None else lo)
    hi = Fraction(bound if hi is None else hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    return lo, hi


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


def _isolate(chain: Sequence[IntPoly], lo: Fraction,
             hi: Fraction) -> tuple[tuple[Fraction, Fraction], ...]:
    """Sorted disjoint intervals (a, b] each holding one distinct real root
    of chain[0] in (lo, hi]; endpoints that are roots are nudged outward.

    Bisection on Sturm counts.  A split point is the midpoint, or, where
    chain[0] vanishes, the first of mid + w/4, mid + w/8, ... where it does
    not (w the width).  Points are int numerators over den 2^k, so no
    ``Fraction`` is normalised before the intervals are returned; each
    stack entry carries the variation counts at both of its ends, and a
    split evaluates the chain once, at the new point, reusing the sign of
    chain[0] that the split test computed.  Past the Fujiwara bound 2^e of
    the whole chain (``_root_bound_exponent``) every element has the sign
    it has at infinity, so a point there costs no evaluation."""
    f = chain[0]
    nudge = (hi - lo) / 1024
    while _sign_at(f, lo.numerator, lo.denominator) == 0:
        lo -= nudge
    while _sign_at(f, hi.numerator, hi.denominator) == 0:
        hi += nudge
    den = lo.denominator * hi.denominator
    beyond = den << _root_bound_exponent(chain)
    outer = (_variations_at_infinity(chain, positive=False),
             _variations_at_infinity(chain, positive=True))

    def variations(a: int, k: int) -> Optional[int]:
        """Sign variations of the chain at a / (den 2^k); None where chain[0]
        vanishes."""
        if abs(a) >= beyond << k:
            return outer[a > 0]
        b = den << k
        first = _sign_at(f, a, b)
        if not first:
            return None
        return _variations([first, *[_sign_at(g, a, b) for g in chain[1:]]])

    x0 = lo.numerator * hi.denominator
    x1 = hi.numerator * lo.denominator
    v_lo, v_hi = variations(x0, 0), variations(x1, 0)
    total = v_lo - v_hi
    # entries (a, b, k, v_a, v_b): the interval (a, b] over den 2^k
    stack = [(x0, x1, 0, v_lo, v_hi)]
    intervals: list[tuple[Fraction, Fraction]] = []
    while stack:
        a, b, k, v_a, v_b = stack.pop()
        count = v_a - v_b
        if count == 1:
            intervals.append((Fraction(a, den << k), Fraction(b, den << k)))
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
        stack.append((a << shift, split, k, v_a, v_split))
        stack.append((split, b << shift, k, v_split, v_b))
    intervals.sort()
    if len(intervals) != total:
        raise ArithmeticError(
            f"isolated {len(intervals)} intervals for {total} roots")
    return tuple(intervals)


def isolate_real_roots(
    p: UPoly, lo: Optional[Fraction] = None, hi: Optional[Fraction] = None
) -> RootReport:
    """Disjoint intervals each holding exactly one distinct real root.

    The default search range is (-10^6, 10^6), widened to the Cauchy root
    bound when that is larger, so no root is ever missed by default.
    Endpoints that happen to be roots are nudged outward first.
    """
    if not p:
        raise ZeroPolynomialError("zero polynomial")
    if len(p.coeffs) == 1:
        return RootReport(p, (), (), (), 0)
    sequence = _remainder_sequence(p)
    lo, hi = _search_range(sequence[0], lo, hi)
    chain = _squarefree_sequence(sequence)
    return RootReport(
        polynomial=p,
        intervals=_isolate(chain, lo, hi),
        refined=(),
        exact_rational_roots=(),
        nonreal_count=_nonreal_count(chain),
    )


def _check_tolerance(tolerance) -> None:
    """Refinement narrows its cell until the width is below the tolerance,
    which a non-positive tolerance never allows."""
    if Fraction(tolerance) <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")


def _first_level(width: int, den: int) -> int:
    """The least k >= 0 with width < den 2^k, for positive ints, from
    their bit lengths."""
    k = width.bit_length() - den.bit_length()
    if k < 0:
        return 0
    return k if width < den << k else k + 1


def _refine(
    chain: Sequence[IntPoly],
    lo: Fraction,
    hi: Fraction,
    tolerance: Fraction,
) -> tuple[float, Optional[Fraction]]:
    """Refine (lo, hi], which isolates one root of the square-free
    chain[0], on its bisection grid.

    Returns the midpoint float of the first bisection cell narrower than
    ``tolerance`` (or the root itself when it is a grid point of that
    level or a coarser one) and the root when it is rational, else None.

    A rational root of the primitive integer chain[0] has a denominator
    dividing its leading coefficient L, and two distinct fractions with
    denominators at most L lie at least 1/L^2 apart.  In the first cell
    narrower than 1/(2 L^2) the root is rational exactly when the closest
    such fraction to the cell's midpoint lies in the cell and is a root.

    The level-k cells are (x0 2^k + j w, x0 2^k + (j+1) w) over den 2^k,
    with w = x1 - x0, and both results read off the cell that holds the
    root at the deeper of the two levels.  That cell is found by quadratic
    interval refinement (Abbott 2006; Kerber & Sagraloff 2011) rather than
    one level at a time: the integer secant guess m = floor(N v_lo /
    (v_lo - v_hi)) from the homogenised values at the cell's ends picks one
    of its N = 2^s subcells, s = log_n levels down; when the subcell's ends
    bracket the root it is kept and N squares, else one bisection step
    follows and s halves.  A kept end value carries to the finer level
    shifted left by d s bits.  A tested point that is a root is a grid point: at its
    coarsest level k_min the bisection would have tested it too, and it is
    reported as bisection reports it.
    """
    f = chain[0]
    v_hi = _value_at(f, hi.numerator, hi.denominator)
    if not v_hi:
        return float(hi), hi
    v_lo = _value_at(f, lo.numerator, lo.denominator)
    if not v_lo:
        # lo itself is an excluded root; move it inward without crossing
        # the isolated root (f is square-free, so no other root lies
        # between lo and the isolated one)
        step = (hi - lo) / 2
        while not v_lo:
            candidate = lo + step
            v_lo = _value_at(f, candidate.numerator, candidate.denominator)
            if v_lo and _count(chain, candidate, hi) != 1:
                v_lo = 0
            step /= 2
        lo = candidate
    tolerance = Fraction(tolerance)
    lead = abs(f[-1])
    degree = len(f) - 1
    den = lo.denominator * hi.denominator
    x0 = lo.numerator * hi.denominator
    width = hi.numerator * lo.denominator - x0
    k_ref = _first_level(width * tolerance.denominator, tolerance.numerator * den)
    k_sep = _first_level(2 * lead * lead * width, den)
    top = max(k_ref, k_sep)

    def value(k: int, j: int) -> int:
        """The homogenised value at grid point j of level k."""
        return _value_at(f, (x0 << k) + j * width, den << k)

    def midpoint(k: int, j: int) -> float:
        return ((x0 << (k + 1)) + (2 * j + 1) * width) / (den << (k + 1))

    def hit(k: int, j: int) -> tuple[float, Fraction]:
        """The report for a root at grid point j of level k."""
        while not j & 1:
            j >>= 1
            k -= 1
        root = Fraction((x0 << k) + j * width, den << k)
        if k <= k_ref:
            return float(root), root
        return midpoint(k_ref, j >> (k - k_ref)), root

    # cell j of level k holds the root, and v_lo, v_hi are the values at
    # its ends (lo and hi over den at level 0); a subcell of N = 2^log_n
    # cells is log_n levels down
    k = j = 0
    v_lo *= hi.denominator ** degree
    v_hi *= lo.denominator ** degree
    log_n = 2
    while k < top:
        log_n = min(log_n, top - k)
        if log_n > 1:
            fine, base, carry = k + log_n, j << log_n, degree * log_n
            m = (v_lo << log_n) // (v_lo - v_hi)
            v_m = value(fine, base + m) if m else v_lo << carry
            if not v_m:
                return hit(fine, base + m)
            if (v_m > 0) == (v_lo > 0):
                last = m + 1 == 1 << log_n
                v_next = v_hi << carry if last else value(fine, base + m + 1)
                if not v_next:
                    return hit(fine, base + m + 1)
                if (v_next > 0) == (v_hi > 0):
                    k, j, v_lo, v_hi = fine, base + m, v_m, v_next
                    log_n *= 2
                    continue
            log_n //= 2
        else:
            # a subcell of N = 2 is a bisection step, which always succeeds
            log_n = 2
        k += 1
        j *= 2
        v_mid = value(k, j + 1)
        if not v_mid:
            return hit(k, j + 1)
        if (v_mid > 0) == (v_lo > 0):
            j += 1
            v_lo, v_hi = v_mid, v_hi << degree
        else:
            v_lo, v_hi = v_lo << degree, v_mid
    # the cell of level k_sep that holds the root: the rational-root test
    j_sep = j >> (top - k_sep)
    cell_lo = (x0 << k_sep) + j_sep * width
    scale = den << k_sep
    exact = None
    candidate = Fraction(2 * cell_lo + width, 2 * scale).limit_denominator(lead)
    a, b = candidate.numerator, candidate.denominator
    if cell_lo * b < a * scale <= (cell_lo + width) * b and _sign_at(f, a, b) == 0:
        exact = candidate
    return midpoint(k_ref, j >> (top - k_ref)), exact


def refine_root(
    p: UPoly,
    interval: tuple[Fraction, Fraction],
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> float:
    """Refine an isolating interval down to the tolerance (see ``_refine``);
    exact arithmetic throughout, float conversion only at the end.

    Multiple roots are handled by deflating to the square-free part first;
    an interval whose Sturm count is not exactly one raises
    ``NotIsolatingError``.
    """
    if not p:
        raise ZeroPolynomialError("zero polynomial")
    _check_tolerance(tolerance)
    chain = _squarefree_sequence(_remainder_sequence(p))
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if _count(chain, lo, hi) != 1:
        raise NotIsolatingError(f"interval ({lo}, {hi}] does not isolate one root")
    return _refine(chain, lo, hi, tolerance)[0]


def rational_roots(p: UPoly) -> tuple[Fraction, ...]:
    """All rational roots, sorted, read off the isolating intervals of the
    whole real line (see ``analyze_roots``)."""
    if not p:
        raise ZeroPolynomialError("zero polynomial")
    return analyze_roots(p).exact_rational_roots


def analyze_roots(p: UPoly, tolerance: Fraction = DEFAULT_TOLERANCE) -> RootReport:
    """Isolate, refine, and detect exact rational roots of p over the whole
    real line (see ``isolate_real_roots`` for the range) in one report.

    One integer remainder sequence of p, divided through by its last
    element, is the Sturm sequence of the square-free part; it serves
    isolation (the two parts have the same roots), refinement and the
    rational-root test of every interval.
    """
    if not p:
        raise ZeroPolynomialError("zero polynomial")
    _check_tolerance(tolerance)
    if len(p.coeffs) == 1:
        return RootReport(p, (), (), (), 0)
    sequence = _remainder_sequence(p)
    chain = _squarefree_sequence(sequence)
    intervals = _isolate(chain, *_search_range(sequence[0], None, None))
    results = [_refine(chain, a, b, tolerance) for a, b in intervals]
    return RootReport(
        polynomial=p,
        intervals=intervals,
        refined=tuple(value for value, _ in results),
        exact_rational_roots=tuple(r for _, r in results if r is not None),
        nonreal_count=_nonreal_count(chain),
    )
