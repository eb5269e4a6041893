"""Certified real-root isolation and refinement for constraint polynomials.

The workflow is Sturm-chain counting plus interval bisection, so every step
is exact; floating point appears only in the final refined output values.
Each Sturm chain is computed once per polynomial and kept as primitive
integer coefficient lists (scaling by the positive content keeps every
sign), and every sign test is homogenised integer Horner: for x = a/b with
b > 0 the sign of f(x) is the sign of sum c_i a^i b^(d-i).  Complex roots
are out of scope; their number is reported as the square-free degree minus
the count of distinct real roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import UPoly, squarefree_part

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


def sturm_chain(p: UPoly) -> list[UPoly]:
    """Sturm sequence p, p', then negated remainders until termination.

    Remainders are rescaled by their (positive) content to tame coefficient
    growth; positive scaling preserves every sign and hence all counts.
    """
    if not p:
        raise ZeroPolynomialError("zero polynomial")
    chain = [p]
    if len(p.coeffs) > 1:
        chain.append(p.derivative())
        while chain[-1]:
            rem = -(chain[-2] % chain[-1])
            if not rem:
                break
            chain.append(rem / rem.content())
    return chain


def _integer_form(f: UPoly) -> IntPoly:
    """Coprime integer coefficients of f over its positive content; the
    result has the sign of f at every point."""
    content = f.content()
    return tuple((c / content).numerator for c in f.coeffs)


def _integer_chain(chain: Sequence[UPoly]) -> list[IntPoly]:
    return [_integer_form(f) for f in chain]


def _sign_at(f: IntPoly, a: int, b: int) -> int:
    """Sign of f(a/b) for b > 0: homogenised Horner, sum c_i a^i b^(d-i)."""
    acc = 0
    scale = 1
    for c in reversed(f):
        acc = acc * a + c * scale
        scale *= b
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


def count_real_roots(p: UPoly, lo: Optional[Fraction] = None,
                     hi: Optional[Fraction] = None) -> int:
    """Number of distinct real roots in (lo, hi]; whole line by default."""
    return _count(_integer_chain(sturm_chain(p)), lo, hi)


def root_bound(p: UPoly) -> Fraction:
    """Cauchy bound 1 + max |c_i| / |lead|: all real roots are inside."""
    if not p:
        raise ZeroPolynomialError("zero polynomial")
    lead = abs(p.leading)
    return 1 + max(abs(c) for c in p.coeffs) / lead


def _nonzero_split(f: IntPoly, lo: Fraction, hi: Fraction) -> Fraction:
    mid = (lo + hi) / 2
    step = (hi - lo) / 4
    candidate = mid
    while _sign_at(f, candidate.numerator, candidate.denominator) == 0:
        candidate = mid + step
        step /= 2
    return candidate


def _search_range(p: UPoly, lo: Optional[Fraction],
                  hi: Optional[Fraction]) -> tuple[Fraction, Fraction]:
    """(lo, hi) defaulted to cover every real root of p."""
    bound = root_bound(p)
    if lo is None:
        lo = -max(DEFAULT_RANGE, bound)
    if hi is None:
        hi = max(DEFAULT_RANGE, bound)
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    return lo, hi


def _isolate(chain: Sequence[IntPoly], lo: Fraction,
             hi: Fraction) -> tuple[tuple[Fraction, Fraction], ...]:
    """Sorted disjoint intervals (a, b] each holding one distinct real root
    of chain[0] in (lo, hi]; endpoints that are roots are nudged outward."""
    f = chain[0]
    nudge = (hi - lo) / 1024
    while _sign_at(f, lo.numerator, lo.denominator) == 0:
        lo -= nudge
    while _sign_at(f, hi.numerator, hi.denominator) == 0:
        hi += nudge

    intervals: list[tuple[Fraction, Fraction]] = []
    total = _variations_at(chain, lo) - _variations_at(chain, hi)
    stack = [(lo, hi, total)]
    while stack:
        a, b, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            intervals.append((a, b))
            continue
        mid = _nonzero_split(f, a, b)
        left = _variations_at(chain, a) - _variations_at(chain, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, count - left))
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
    lo, hi = _search_range(p, lo, hi)
    chain = _integer_chain(sturm_chain(p))
    return RootReport(
        polynomial=p,
        intervals=_isolate(chain, lo, hi),
        refined=(),
        exact_rational_roots=(),
        nonreal_count=int(squarefree_part(p).degree) - _count(chain, None, None),
    )


def _check_tolerance(tolerance) -> None:
    """Refinement bisects until the width is below the tolerance, which a
    non-positive tolerance never allows."""
    if Fraction(tolerance) <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")


def _refine(
    chain: Sequence[IntPoly],
    lo: Fraction,
    hi: Fraction,
    tolerance: Fraction,
) -> tuple[float, Optional[Fraction]]:
    """Bisect (lo, hi] around the one root of the square-free chain[0].

    Returns the midpoint float once the width is below ``tolerance`` (or
    the root itself when a bisection point hits it) and the root when it
    is rational, else None.

    A rational root of the primitive integer chain[0] has a denominator
    dividing its leading coefficient L, and two distinct fractions with
    denominators at most L lie at least 1/L^2 apart.  Once the width is
    below 1/(2 L^2) the root is rational exactly when the closest such
    fraction to the midpoint lies in the interval and is a root.
    """
    f = chain[0]
    if _count(chain, lo, hi) != 1:
        raise NotIsolatingError(f"interval ({lo}, {hi}] does not isolate one root")
    if _sign_at(f, hi.numerator, hi.denominator) == 0:
        return float(hi), hi
    if _sign_at(f, lo.numerator, lo.denominator) == 0:
        # lo itself is an excluded root; move it inward without crossing
        # the isolated root (f is square-free, so no other root lies
        # between lo and the isolated one)
        step = (hi - lo) / 2
        while True:
            candidate = lo + step
            if (_sign_at(f, candidate.numerator, candidate.denominator) != 0
                    and _count(chain, candidate, hi) == 1):
                lo = candidate
                break
            step /= 2
    tolerance = Fraction(tolerance)
    lead = abs(f[-1])
    separation = 2 * lead * lead
    # the interval is (x0/den, x1/den]; bisection doubles den, so no
    # Fraction is normalised inside the loop
    den = lo.denominator * hi.denominator
    x0 = lo.numerator * hi.denominator
    x1 = hi.numerator * lo.denominator
    sign_lo = _sign_at(f, x0, den)
    refined: Optional[float] = None
    exact: Optional[Fraction] = None
    checked = False
    while True:
        width = x1 - x0
        if refined is None and width * tolerance.denominator < tolerance.numerator * den:
            refined = float(Fraction(x0 + x1, 2 * den))
        if not checked and width * separation < den:
            candidate = Fraction(x0 + x1, 2 * den).limit_denominator(lead)
            a, b = candidate.numerator, candidate.denominator
            if x0 * b < a * den <= x1 * b and _sign_at(f, a, b) == 0:
                exact = candidate
            checked = True
        if refined is not None and checked:
            return refined, exact
        mid = x0 + x1
        den *= 2
        sign_mid = _sign_at(f, mid, den)
        if sign_mid == 0:
            root = Fraction(mid, den)
            return (float(root) if refined is None else refined), root
        if sign_mid == sign_lo:
            x0, x1 = mid, 2 * x1
        else:
            x0, x1 = 2 * x0, mid


def refine_root(
    p: UPoly,
    interval: tuple[Fraction, Fraction],
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> float:
    """Bisect an isolating interval down to the tolerance; exact endpoint
    arithmetic throughout, float conversion only at the end.

    Multiple roots are handled by deflating to the square-free part first;
    an interval whose Sturm count is not exactly one raises
    ``NotIsolatingError``.
    """
    if not p:
        raise ZeroPolynomialError("zero polynomial")
    _check_tolerance(tolerance)
    chain = _integer_chain(sturm_chain(squarefree_part(p)))
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    return _refine(chain, lo, hi, tolerance)[0]


def rational_roots(p: UPoly) -> tuple[Fraction, ...]:
    """All rational roots, sorted, read off the isolating intervals of the
    whole real line (see ``analyze_roots``)."""
    if not p:
        raise ZeroPolynomialError("zero polynomial")
    return analyze_roots(p).exact_rational_roots


def analyze_roots(
    p: UPoly,
    lo: Optional[Fraction] = None,
    hi: Optional[Fraction] = None,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> RootReport:
    """Isolate, refine, and detect exact rational roots in one report.

    The square-free part and the Sturm chains of p and of that part are
    computed once and shared by isolation, refinement and the rational-root
    test of every interval.
    """
    if not p:
        raise ZeroPolynomialError("zero polynomial")
    _check_tolerance(tolerance)
    if len(p.coeffs) == 1:
        return RootReport(p, (), (), (), 0)
    lo, hi = _search_range(p, lo, hi)
    chain = _integer_chain(sturm_chain(p))
    sf = squarefree_part(p)
    sf_chain = chain if sf is p else _integer_chain(sturm_chain(sf))
    intervals = _isolate(chain, lo, hi)
    results = [_refine(sf_chain, a, b, tolerance) for a, b in intervals]
    return RootReport(
        polynomial=p,
        intervals=intervals,
        refined=tuple(value for value, _ in results),
        exact_rational_roots=tuple(r for _, r in results if r is not None),
        nonreal_count=int(sf.degree) - _count(chain, None, None),
    )
