"""Bit-by-bit bisection isolation and refinement, the oracles for the
production kernels ``solve._isolate`` and ``solve._refine``.

Both read a Sturm sequence of primitive integer polynomials (ascending
coefficient tuples) whose first element is square-free.  Every point is a
normalised ``Fraction`` in ``isolate``; ``refine`` halves its interval one
level at a time on the grid ``x0/den + j w / (den 2^k)`` until the width is
below the tolerance and below ``1/(2 L^2)``.  The production kernels must
return exactly what these return: the same intervals, the same refined
floats and the same exact roots.
"""

from fractions import Fraction


def sign_at(f, a, b):
    """Sign of f(a/b) for b > 0: homogenised Horner, sum c_i a^i b^(d-i)."""
    acc = 0
    scale = 1
    for c in reversed(f):
        acc = acc * a + c * scale
        scale *= b
    return (acc > 0) - (acc < 0)


def variations(chain, x):
    flips = 0
    last = 0
    for f in chain:
        s = sign_at(f, x.numerator, x.denominator)
        if s == 0:
            continue
        if last and s != last:
            flips += 1
        last = s
    return flips


def count(chain, lo, hi):
    """Distinct roots of chain[0] in (lo, hi]."""
    return variations(chain, lo) - variations(chain, hi)


def nonzero_split(f, lo, hi):
    mid = (lo + hi) / 2
    step = (hi - lo) / 4
    candidate = mid
    while sign_at(f, candidate.numerator, candidate.denominator) == 0:
        candidate = mid + step
        step /= 2
    return candidate


def isolate(chain, lo, hi):
    """Sorted disjoint intervals (a, b] each holding one distinct real root
    of chain[0] in (lo, hi]; endpoints that are roots are nudged outward."""
    f = chain[0]
    nudge = (hi - lo) / 1024
    while sign_at(f, lo.numerator, lo.denominator) == 0:
        lo -= nudge
    while sign_at(f, hi.numerator, hi.denominator) == 0:
        hi += nudge
    intervals = []
    stack = [(lo, hi, variations(chain, lo), variations(chain, hi))]
    while stack:
        a, b, v_a, v_b = stack.pop()
        if v_a - v_b == 0:
            continue
        if v_a - v_b == 1:
            intervals.append((a, b))
            continue
        mid = nonzero_split(f, a, b)
        v_mid = variations(chain, mid)
        stack.append((a, mid, v_a, v_mid))
        stack.append((mid, b, v_mid, v_b))
    intervals.sort()
    return tuple(intervals)


def refine(chain, lo, hi, tolerance):
    """(refined float, exact root or None) for the one root of chain[0] in
    (lo, hi]: the midpoint of the first bisection cell narrower than the
    tolerance, or the root itself when a bisection point hits it before
    that level; the root is exact when the fraction with denominator at
    most L = |lead| nearest the midpoint of the first cell narrower than
    1/(2 L^2) lies in that cell and is a root."""
    f = chain[0]
    if sign_at(f, hi.numerator, hi.denominator) == 0:
        return float(hi), hi
    if sign_at(f, lo.numerator, lo.denominator) == 0:
        step = (hi - lo) / 2
        while True:
            candidate = lo + step
            if (sign_at(f, candidate.numerator, candidate.denominator) != 0
                    and count(chain, candidate, hi) == 1):
                lo = candidate
                break
            step /= 2
    tolerance = Fraction(tolerance)
    lead = abs(f[-1])
    separation = 2 * lead * lead
    den = lo.denominator * hi.denominator
    x0 = lo.numerator * hi.denominator
    x1 = hi.numerator * lo.denominator
    sign_lo = sign_at(f, x0, den)
    refined = None
    exact = None
    checked = False
    while True:
        width = x1 - x0
        if refined is None and width * tolerance.denominator < tolerance.numerator * den:
            refined = float(Fraction(x0 + x1, 2 * den))
        if not checked and width * separation < den:
            candidate = Fraction(x0 + x1, 2 * den).limit_denominator(lead)
            a, b = candidate.numerator, candidate.denominator
            if x0 * b < a * den <= x1 * b and sign_at(f, a, b) == 0:
                exact = candidate
            checked = True
        if refined is not None and checked:
            return refined, exact
        mid = x0 + x1
        den *= 2
        sign_mid = sign_at(f, mid, den)
        if sign_mid == 0:
            root = Fraction(mid, den)
            return (float(root) if refined is None else refined), root
        if sign_mid == sign_lo:
            x0, x1 = mid, 2 * x1
        else:
            x0, x1 = 2 * x0, mid
