import json
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyode.applications import coulomb_constraint_for_k, krylov_robnik_analyze
from polyode.cli import main
from polyode.exactalg import UPoly
from polyode.solve import (
    NotIsolatingError,
    ZeroPolynomialError,
    analyze_roots,
    count_real_roots,
    isolate_real_roots,
    rational_roots,
    refine_root,
    root_bound,
    sturm_chain,
)

TOL = 1e-12


# ---------------------------------------------------------------------------
# Sturm chains

def test_sturm_chain_quadratic():
    chain = sturm_chain(UPoly([-1, 0, 1]))
    assert chain == [UPoly([-1, 0, 1]), UPoly([0, 2]), UPoly([1])]
    assert count_real_roots(UPoly([-1, 0, 1])) == 2


def test_sturm_no_real_roots():
    assert count_real_roots(UPoly([1, 0, 1])) == 0


def test_sturm_linear():
    assert count_real_roots(UPoly([-1, 1])) == 1


def test_sturm_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        sturm_chain(UPoly())


def test_sturm_counts_distinct_roots_of_multiple():
    # (x-1)^2 x: distinct roots {0, 1}
    p = UPoly([0, 1]) * UPoly([-1, 1]) * UPoly([-1, 1])
    assert count_real_roots(p) == 2


@settings(max_examples=40)
@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        min_size=1,
        max_size=7,
    ).map(UPoly).filter(lambda p: bool(p) and p.degree <= 6)
)
def test_sturm_count_matches_grid_sign_changes(p):
    # independent oracle: count sign alternations of p on a fine rational
    # grid; every grid sign change is a root, so the Sturm count can never
    # be smaller
    lo, hi = Fraction(-8), Fraction(8)
    steps = 400
    width = (hi - lo) / steps
    grid_changes = 0
    prev_sign = 0
    x = lo
    for i in range(steps + 1):
        v = p(x)
        s = (v > 0) - (v < 0)
        if s != 0:
            if prev_sign and s != prev_sign:
                grid_changes += 1
            prev_sign = s
        x += width
    count = count_real_roots(p, lo, hi)
    assert count >= grid_changes


def test_sturm_count_equals_grid_for_separated_roots():
    # roots -3, 1/2, 2 are far apart relative to the grid
    p = UPoly([3, 1]) * UPoly([-1, 2]) * UPoly([-2, 1])
    lo, hi = Fraction(-5), Fraction(5)
    assert count_real_roots(p, lo, hi) == 3


# ---------------------------------------------------------------------------
# isolation

def test_isolate_krylov_robnik_example():
    # alpha = 3, n = 2: roots {0, +-sqrt(54)}
    _, constraint = krylov_robnik_analyze(3, 2)
    report = isolate_real_roots(constraint, Fraction(-10), Fraction(10))
    assert len(report.intervals) == 3
    for (a1, b1), (a2, b2) in zip(report.intervals, report.intervals[1:]):
        assert b1 <= a2  # pairwise disjoint, sorted


def test_isolate_coulomb_linear():
    constraint = coulomb_constraint_for_k(Fraction(0), 1)  # t - 1
    report = analyze_roots(constraint)
    assert len(report.intervals) == 1
    assert report.exact_rational_roots == (1,)
    assert abs(report.refined[0] - 1.0) < TOL


def test_isolate_empty_range():
    report = isolate_real_roots(UPoly([-1, 0, 1]), Fraction(5), Fraction(9))
    assert report.intervals == ()


def test_isolate_counts_match_sturm():
    rng = random.Random(3)
    for _ in range(30):
        p = UPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 6))])
        if not p or p.degree < 1:
            continue
        lo, hi = Fraction(-20), Fraction(20)
        report = isolate_real_roots(p, lo, hi)
        # nudge may have widened the range; recompute on actual endpoints
        assert len(report.intervals) == count_real_roots(
            p, report.intervals[0][0] if report.intervals else lo, hi
        ) or len(report.intervals) == count_real_roots(p, lo, hi)


def test_isolate_nonreal_count():
    # (t^2+1)(t-2): one real root, two nonreal
    p = UPoly([1, 0, 1]) * UPoly([-2, 1])
    report = isolate_real_roots(p)
    assert len(report.intervals) == 1
    assert report.nonreal_count == 2


def test_isolate_default_range_uses_root_bound():
    # polynomial with a root beyond 10^6
    p = UPoly([-Fraction(3 * 10**6), 1])
    assert root_bound(p) > 10**6
    report = analyze_roots(p)
    assert report.exact_rational_roots == (Fraction(3 * 10**6),)


# ---------------------------------------------------------------------------
# refinement

def test_refine_sqrt2():
    p = UPoly([-2, 0, 1])
    value = refine_root(p, (Fraction(1), Fraction(2)))
    assert abs(value - math.sqrt(2)) < TOL


def test_refine_coulomb_quadratic_constraint_roots():
    # 2t^2 - 6t + 3: roots (3 +- sqrt(3))/2
    p = coulomb_constraint_for_k(Fraction(0), 2)
    assert p == UPoly([3, -6, 2])
    report = analyze_roots(p)
    assert len(report.refined) == 2
    lo_root = (3 - math.sqrt(3)) / 2
    hi_root = (3 + math.sqrt(3)) / 2
    assert abs(report.refined[0] - lo_root) < TOL
    assert abs(report.refined[1] - hi_root) < TOL


def test_refine_multiple_root_deflates():
    p = UPoly([0, 0, 1])  # t^2
    value = refine_root(p, (Fraction(-1), Fraction(1)))
    assert value == 0.0


def test_refine_not_isolating():
    p = UPoly([-1, 0, 1])
    with pytest.raises(NotIsolatingError):
        refine_root(p, (Fraction(-2), Fraction(2)))


@pytest.mark.parametrize("tolerance", [Fraction(0), Fraction(-1, 2), 0])
def test_nonpositive_tolerance_raises(tolerance):
    # bisection to a non-positive width never ends, so both entry points
    # refuse it before refining anything
    p = UPoly([-2, 0, 1])
    with pytest.raises(ValueError, match="tolerance"):
        refine_root(p, (Fraction(1), Fraction(2)), tolerance=tolerance)
    with pytest.raises(ValueError, match="tolerance"):
        analyze_roots(p, tolerance=tolerance)


def test_refine_root_at_endpoint():
    p = UPoly([-1, 1])
    assert refine_root(p, (Fraction(0), Fraction(1))) == 1.0
    # excluded root at lo, isolated root at 1 inside (0, 3/2]
    q = UPoly([0, 1]) * UPoly([-1, 1])
    assert abs(refine_root(q, (Fraction(0), Fraction(3, 2))) - 1.0) < TOL


def test_refined_roots_match_closed_forms():
    cases = [
        (UPoly([-2, 0, 1]), (-math.sqrt(2), math.sqrt(2))),
        (UPoly([-1, -1, 1]), ((1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2)),
        (UPoly([6, -5, 1]), (2.0, 3.0)),
        (UPoly([0, 54, 0, -1]), (-math.sqrt(54), 0.0, math.sqrt(54))),
    ]
    for p, expected in cases:
        report = analyze_roots(p)
        assert len(report.refined) == len(expected)
        for got, want in zip(report.refined, expected):
            assert abs(got - want) < TOL


# ---------------------------------------------------------------------------
# rational roots

def test_rational_roots_detection():
    p = UPoly([6, -5, 1])  # (t-2)(t-3)
    assert rational_roots(p) == (2, 3)
    q = UPoly([0, -4, 0, 1])  # t(t^2 - 4)
    assert rational_roots(q) == (-2, 0, 2)
    r = UPoly([-2, 0, 1])  # sqrt(2) irrational
    assert rational_roots(r) == ()


def test_rational_roots_with_fractions():
    p = UPoly([-1, 2]) * UPoly([3, 4])  # roots 1/2, -3/4
    assert rational_roots(p) == (Fraction(-3, 4), Fraction(1, 2))


def test_rational_candidate_must_lie_in_its_interval():
    # t (t^2 - 3t + 1): near the irrational root (3 - sqrt(5))/2 ~ 0.38 the
    # closest integer is the root 0, which belongs to another interval
    p = UPoly([0, 1]) * UPoly([1, -3, 1])
    report = analyze_roots(p)
    assert report.exact_rational_roots == (0,)
    assert len(report.intervals) == 3


def _divisors(value: int) -> list[int]:
    out = []
    d = 1
    while d * d <= value:
        if value % d == 0:
            out.append(d)
            if d != value // d:
                out.append(value // d)
        d += 1
    return sorted(out)


def divisor_rational_roots(p: UPoly) -> tuple[Fraction, ...]:
    """Rational roots by the rational-root theorem: every +-(divisor of the
    constant term)/(divisor of the leading term) of the primitive integer
    form, tested exactly.  Independent of Sturm chains and bisection, but
    its trial division up to the square roots of both coefficients limits
    it to small ones."""
    coeffs = list(p.primitive_part().coeffs)
    roots = []
    if coeffs[0] == 0:
        roots.append(Fraction(0))
        while coeffs[0] == 0:
            coeffs.pop(0)
    if len(coeffs) > 1:
        q = UPoly(coeffs)
        numerators = _divisors(abs(int(coeffs[0])))
        denominators = _divisors(abs(int(coeffs[-1])))
        for num in numerators:
            for den in denominators:
                for candidate in (Fraction(num, den), Fraction(-num, den)):
                    if candidate not in roots and q(candidate) == 0:
                        roots.append(candidate)
    return tuple(sorted(roots))


def sympy_poly(coeffs) -> sympy.Poly:
    """The same polynomial for sympy, from ascending rational coefficients."""
    values = [Fraction(c) for c in coeffs]
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(values)], sympy.Symbol("x"))


def _is_square(d: int) -> bool:
    return d >= 0 and math.isqrt(d) ** 2 == d


ROOTS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=50),
    st.just(Fraction(0)),
    # points that isolation and refinement visit: the default search range
    # is (-10^6, 10^6] and every split halves an interval
    st.builds(lambda k, e: Fraction(k * 10**6, 2**e),
              st.integers(-16, 16), st.integers(18, 26)),
)
IRREDUCIBLE_QUADRATICS = (
    st.tuples(st.integers(-6, 6), st.integers(-9, 9))
    .filter(lambda bc: not _is_square(bc[0] ** 2 - 4 * bc[1]))
    .map(lambda bc: UPoly([bc[1], bc[0], 1]))
)


@st.composite
def factored_polynomials(draw):
    """Scaled products of rational linear factors, some repeated, and
    irreducible quadratics."""
    p = UPoly([draw(st.fractions(min_value=-9, max_value=9, max_denominator=7)
                    .filter(bool))])
    for root in draw(st.lists(ROOTS, max_size=4)):
        p = p * UPoly([-root, 1]) ** draw(st.integers(1, 3))
    for quadratic in draw(st.lists(IRREDUCIBLE_QUADRATICS, max_size=2)):
        p = p * quadratic
    assume(p.degree >= 1)
    return p


@settings(max_examples=80, deadline=None)
@given(factored_polynomials())
def test_analyze_roots_matches_divisor_oracle_and_sympy(p):
    report = analyze_roots(p)
    poly = sympy_poly(p.coeffs)
    sqf = poly.sqf_part()
    real = sqf.real_roots()
    rational = tuple(sorted(Fraction(int(r.p), int(r.q)) for r in poly.ground_roots()))
    assert report.exact_rational_roots == rational
    primitive = [c for c in p.primitive_part().coeffs if c]
    if max(abs(primitive[0]), abs(primitive[-1])) <= 10**9:
        assert rational == divisor_rational_roots(p)
    assert rational_roots(p) == rational
    assert len(report.intervals) == len(real) == sqf.count_roots()
    assert report.nonreal_count == sqf.degree() - len(real)
    for (lo, hi), value, root in zip(report.intervals, report.refined, real):
        assert bool(root > sympy.Rational(lo.numerator, lo.denominator))
        assert bool(root <= sympy.Rational(hi.numerator, hi.denominator))
        assert abs(value - float(root)) <= 1e-12 + 1e-15 * abs(value)


@pytest.mark.parametrize("argv", [
    ["demo", "krylov", "--alpha", "1", "--n", "15"],
    ["demo", "chhajlany", "--p", "2", "--n", "12"],
    ["demo", "coulomb", "--n", "20"],
])
def test_large_demo_roots_finish_and_match_sympy(argv, capsys):
    # the divisor search these replaced ran for minutes on such constraints
    start = time.perf_counter()
    code = main([*argv, "--json"])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert elapsed < 10
    poly = sympy_poly(report["constraint"])
    sqf = poly.sqf_part()
    roots = report["roots"]
    assert len(roots["intervals"]) == sqf.count_roots()
    assert roots["nonreal_count"] == sqf.degree() - sqf.count_roots()
    assert [Fraction(r) for r in roots["exact"]] == sorted(
        Fraction(int(r.p), int(r.q)) for r in poly.ground_roots())
    assert code == (0 if roots["intervals"] else 2)


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=-50, max_value=50, max_denominator=50),
       st.fractions(min_value=-50, max_value=50, max_denominator=50))
def test_linear_polynomial_root_is_found_exactly(c0, c1):
    # `constraints` takes a pinned parameter value from this report
    assume(c1)
    assert analyze_roots(UPoly([c0, c1])).exact_rational_roots == (-c0 / c1,)


# ---------------------------------------------------------------------------
# report serialization

def test_report_json():
    report = analyze_roots(UPoly([-1, 0, 1]))
    data = report.to_json_dict()
    assert data["exact"] == ["-1", "1"]
    assert len(data["intervals"]) == 2
    assert all(isinstance(r, float) for r in data["roots"])


def test_deflation_invariant():
    from polyode.exactalg import poly_gcd, squarefree_part

    p = UPoly([-1, 1]) ** 3 * UPoly([1, 1])
    sf = squarefree_part(p)
    assert poly_gcd(sf, sf.derivative()).is_constant
