import json
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bisection
from polyode import solve
from polyode.applications import coulomb_constraint_for_k, krylov_robnik_analyze
from polyode.cli import main
from polyode.exactalg import UPoly
from polyode.solve import (
    NotIsolatingError,
    ZeroPolynomialError,
    _count,
    _exact_division,
    _isolate,
    _refine,
    _remainder_sequence,
    _root_bound_exponent,
    _search_range,
    _squarefree_sequence,
    analyze_roots,
    isolate_real_roots,
    rational_roots,
    refine_root,
    sturm_chain,
)

TOL = 1e-12



def isolated(p: UPoly, lo=None, hi=None) -> int:
    """Distinct real roots that ``isolate_real_roots`` finds in (lo, hi]."""
    return len(isolate_real_roots(p, lo, hi).intervals)


def sympy_count(p: UPoly, lo=None, hi=None) -> int:
    """Distinct real roots of p in (lo, hi], whole line by default, by
    sympy, whose ``count_roots`` counts the closed [lo, hi]."""
    poly = sympy_poly(p.coeffs)
    lo, hi = (None if x is None else sympy.Rational(x.numerator, x.denominator)
              for x in (lo, hi))
    return poly.count_roots(lo, hi) - (lo is not None and poly.eval(lo) == 0)


# ---------------------------------------------------------------------------
# Sturm chains

def test_sturm_chain_quadratic():
    chain = sturm_chain(UPoly([-1, 0, 1]))
    assert chain == [UPoly([-1, 0, 1]), UPoly([0, 2]), UPoly([1])]
    assert isolated(UPoly([-1, 0, 1])) == sympy_count(UPoly([-1, 0, 1])) == 2


def test_sturm_no_real_roots():
    assert isolated(UPoly([1, 0, 1])) == sympy_count(UPoly([1, 0, 1])) == 0


def test_sturm_linear():
    assert isolated(UPoly([-1, 1])) == sympy_count(UPoly([-1, 1])) == 1


def test_sturm_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        sturm_chain(UPoly())


def test_sturm_counts_distinct_roots_of_multiple():
    # (x-1)^2 x: distinct roots {0, 1}
    p = UPoly([0, 1]) * UPoly([-1, 1]) * UPoly([-1, 1])
    assert isolated(p) == sympy_count(p) == 2


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
    assert isolated(p, lo, hi) >= grid_changes


def test_sturm_count_equals_grid_for_separated_roots():
    # roots -3, 1/2, 2 are far apart relative to the grid
    p = UPoly([3, 1]) * UPoly([-1, 2]) * UPoly([-2, 1])
    lo, hi = Fraction(-5), Fraction(5)
    assert isolated(p, lo, hi) == sympy_count(p, lo, hi) == 3


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
        # every root lies within the Cauchy bound 7, so no endpoint is
        # nudged and the intervals cover (lo, hi] exactly
        assert len(isolate_real_roots(p, lo, hi).intervals) == sympy_count(p, lo, hi)


def test_isolate_nonreal_count():
    # (t^2+1)(t-2): one real root, two nonreal
    p = UPoly([1, 0, 1]) * UPoly([-2, 1])
    report = isolate_real_roots(p)
    assert len(report.intervals) == 1
    assert report.nonreal_count == 2


def test_isolate_default_range_uses_root_bound():
    # polynomial with a root beyond 10^6
    p = UPoly([-Fraction(3 * 10**6), 1])
    assert 1 + max(map(abs, p.coeffs)) / abs(p.leading) > 10**6  # Cauchy's bound
    report = analyze_roots(p)
    assert report.exact_rational_roots == (Fraction(3 * 10**6),)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**3),
                min_size=1, max_size=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
# Cauchy bounds exactly 10^6 and just past it, where the int test flips
@example([-999999], 1)
@example([Fraction(-999999, 1000), 0], Fraction(1, 1000))
@example([Fraction(-999999001, 1000)], 1)
@example([Fraction(999999001, 1000), 0], -1)
def test_default_search_range_is_the_larger_of_a_million_and_the_cauchy_bound(
        coefficients, lead):
    p = UPoly([*coefficients, lead])
    bound = max(Fraction(10**6), 1 + max(map(abs, p.coeffs)) / abs(p.leading))
    f = _remainder_sequence(p)[0]
    lo, hi = _search_range(f, None, None)
    assert (lo, hi) == (-bound, bound)
    assert type(lo) is type(hi) is Fraction
    assert _search_range(f, Fraction(-3), None) == (-3, bound)
    assert _search_range(f, None, Fraction(7, 2)) == (-bound, Fraction(7, 2))


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


def euclid_sturm_chain(p: UPoly) -> list[UPoly]:
    """The Sturm sequence by Euclid over Q, each remainder divided by its
    positive content: the values ``sturm_chain`` must return."""
    chain = [p]
    if p.degree >= 1:
        chain.append(p.derivative())
        while chain[-1]:
            rem = -(chain[-2] % chain[-1])
            if not rem:
                break
            chain.append(rem / rem.content())
    return chain


def sympy_sturm_count(poly: sympy.Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct roots in (lo, hi] from the sign variations of sympy's own
    Sturm sequence, which it builds from the monic square-free part."""
    def variations(x):
        signs = [sympy.sign(f.eval(sympy.Rational(x.numerator, x.denominator)))
                 for f in sympy.sturm(poly)]
        signs = [s for s in signs if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return variations(lo) - variations(hi)


@settings(max_examples=80, deadline=None)
@given(factored_polynomials(),
       st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=9),
                min_size=2, max_size=2, unique=True))
def test_integer_sturm_sequences_match_sympy(p, ends):
    lo, hi = sorted(ends)
    poly = sympy_poly(p.coeffs)
    sqf = poly.sqf_part()
    assume(all(sqf.eval(sympy.Rational(x.numerator, x.denominator)) for x in ends))
    chain = _remainder_sequence(p)
    sf_chain = _squarefree_sequence(chain)
    assert sturm_chain(p) == euclid_sturm_chain(p)
    # the square-free part, primitive, with the sign of p's leading term
    sf = sf_chain[0]
    assert math.gcd(*sf) == 1 and (sf[-1] > 0) == (p.leading > 0)
    assert sympy_poly(sf).monic() == sqf.monic()
    expected = sqf.count_roots(lo, hi)
    assert _count(chain, lo, hi) == _count(sf_chain, lo, hi) == expected
    assert expected == sympy_sturm_count(poly, lo, hi)
    assert _count(sf_chain, None, None) == sqf.count_roots()
    assert analyze_roots(p).nonreal_count == sqf.degree() - sqf.count_roots()


def test_inexact_division_by_the_gcd_raises_even_without_asserts():
    # the invariant must not be an assert, which python -O removes
    with pytest.raises(ArithmeticError):
        _exact_division((1, 0, 1), (1, 1))  # x^2 + 1 by x + 1
    with pytest.raises(ArithmeticError):
        _exact_division((1, 3), (1, 2))  # 3x + 1 by 2x + 1: not in Z[x]
    assert _exact_division((-1, 0, 4), (1, 2)) == (-1, 2)


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


# ---------------------------------------------------------------------------
# quadratic interval refinement and integer isolation against bisection

DYADIC_ROOTS = st.builds(lambda k, e: Fraction(k, 2**e),
                         st.integers(-64, 64), st.integers(0, 12))
# coarse tolerances leave the refined cell above the cell of the
# rational-root test; the finest is the cap that keeps the oracle fast
TOLERANCES = st.sampled_from([Fraction(1, 3), Fraction(5), Fraction(1, 2**20),
                              Fraction(1, 10**12), Fraction(7, 10**30)])


@st.composite
def refinement_cases(draw):
    """(p, tolerance, lo, hi): products of dyadic and non-dyadic rational
    linear factors, some repeated, and irreducible quadratics, of degree at
    most 12, with the default search range, a custom one, or one whose
    lower end is a root."""
    p = UPoly([draw(st.integers(-9, 9).filter(bool))])
    roots = draw(st.lists(st.one_of(ROOTS, DYADIC_ROOTS), max_size=4))
    for root in roots:
        p = p * UPoly([-root, 1]) ** draw(st.integers(1, 2))
    for quadratic in draw(st.lists(IRREDUCIBLE_QUADRATICS, max_size=2)):
        p = p * quadratic
    assume(1 <= p.degree <= 12)
    ends = draw(st.sampled_from(["default", "custom", "root"] if roots
                                else ["default", "custom"]))
    lo = hi = None
    if ends == "custom":
        lo = draw(st.fractions(min_value=-300, max_value=300,
                               max_denominator=8))
        hi = lo + draw(st.fractions(min_value=Fraction(1, 8), max_value=600,
                                    max_denominator=8))
    elif ends == "root":
        lo = roots[0]
    return p, draw(TOLERANCES), lo, hi


@settings(max_examples=150, deadline=None)
@given(refinement_cases())
def test_isolation_and_refinement_match_the_bisection_oracle(case):
    p, tolerance, lo, hi = case
    sequence = _remainder_sequence(p)
    lo, hi = _search_range(sequence[0], lo, hi)
    chain = _squarefree_sequence(sequence)
    intervals = _isolate(chain, lo, hi)
    assert intervals == bisection.isolate(chain, lo, hi)
    for a, b in intervals:
        value, exact = _refine(chain, a, b, tolerance)
        assert type(value) is float
        assert (value, exact) == bisection.refine(chain, a, b, tolerance)
    # (r, b2] with r the rational root of one interval and b2 the right end
    # of the next isolates the next root, with lo itself a root
    for (a, b), (_, b2) in zip(intervals, intervals[1:]):
        root = bisection.refine(chain, a, b, tolerance)[1]
        if root is not None:
            assert _refine(chain, root, b2, tolerance) == bisection.refine(
                chain, root, b2, tolerance)


def test_a_root_on_the_grid_is_reported_as_bisection_reports_it():
    # 2^18 t - 15625 on (-10^6, 10^6]: the root 15625/2^18 is the grid point
    # of level 25, and the rational-root test needs level 58; the
    # tolerances put the refined cell at every level from 0 to 68
    chain = [(-15625, 2**18), (1,)]
    lo, hi = Fraction(-10**6), Fraction(10**6)
    for e in range(-22, 48):
        tolerance = Fraction(2) ** -e
        assert _refine(chain, lo, hi, tolerance) == bisection.refine(
            chain, lo, hi, tolerance)


def counting_evaluations(monkeypatch, limit=None):
    """Counts of ``_refine`` calls ("roots") and of the polynomial
    evaluations made inside them, which stop the test past ``limit``."""
    counts = {"roots": 0, "evaluations": 0}
    refining = []
    refine, value_at = solve._refine, solve._value_at

    def counted_refine(*args):
        counts["roots"] += 1
        refining.append(True)
        try:
            return refine(*args)
        finally:
            refining.pop()

    def counted_value_at(*args):
        if refining:
            counts["evaluations"] += 1
            assert limit is None or counts["evaluations"] <= limit
        return value_at(*args)

    monkeypatch.setattr(solve, "_refine", counted_refine)
    monkeypatch.setattr(solve, "_value_at", counted_value_at)
    return counts


@pytest.mark.parametrize("coeffs, lo, hi", [
    ((-1, 3 * 2**50), Fraction(0), Fraction(1)),
    ((-1, 3), Fraction(0), Fraction(1)),
    ((-7, 10), Fraction(1, 3), Fraction(3, 4)),
])
def test_secant_guesses_are_exact_on_a_linear_polynomial(coeffs, lo, hi,
                                                         monkeypatch):
    # every subcell guess holds the root, so N squares at every step: log N
    # doubles from 2 and passes the level of tolerance 10^-4000 (about
    # 13 290) in 13 steps of at most two evaluations, besides the values at
    # the two ends and the rational-root test
    counts = counting_evaluations(monkeypatch)
    chain = [coeffs, (coeffs[1],)]
    solve._refine(chain, lo, hi, Fraction(1, 10**4000))
    assert counts["evaluations"] <= 2 + 2 * 13 + 1


@pytest.mark.parametrize("coeffs", [(0, -15, -9, 2), (-20, 2, 15, 30, 2),
                                    (30, 12, -19, 2)])
def test_carried_values_keep_the_secant_guesses_good(coeffs, monkeypatch):
    # all roots of each take 59-62 evaluations at 10^-30, where bisection
    # makes 105-124 per root; an end value carried with the wrong shift
    # leaves every result as it is, but takes one of them past 72
    counts = counting_evaluations(monkeypatch)
    p = UPoly(list(coeffs))
    assert analyze_roots(p, tolerance=Fraction(1, 10**30)).refined
    assert counts["evaluations"] <= 72


def test_refinement_to_4000_digits_takes_few_evaluations(monkeypatch, capsys):
    # bisection one level at a time needs about 13 300 levels per root
    # here; count the evaluations, not the seconds, and stop a regression
    # at the bound rather than minutes later
    counts = counting_evaluations(monkeypatch, limit=200 * 5)
    tolerance = "1/1" + "0" * 4000
    code = main(["demo", "chhajlany", "--p", "2", "--n", "10",
                 "--tolerance", tolerance, "--json"])
    roots = json.loads(capsys.readouterr().out)["roots"]
    assert code == 0
    assert counts["roots"] == len(roots["intervals"]) == 5
    assert counts["evaluations"] <= 200 * counts["roots"]
    for (lo, hi), value in zip(roots["intervals"], roots["roots"]):
        assert Fraction(lo) < Fraction(value) <= Fraction(hi)


@st.composite
def wide_coefficient_polynomials(draw):
    """Polynomials with leading coefficients up to 7^40 and the others
    down to 10^-40, which become integers of up to about 270 bits."""
    lead = draw(st.sampled_from([1, -3, 10**30, -(7**40), 2**100 + 1]))
    coeffs = draw(st.lists(
        st.builds(lambda num, e: Fraction(num, 10**e),
                  st.integers(-10**6, 10**6), st.integers(0, 40)),
        min_size=1, max_size=6))
    return UPoly([*coeffs, lead])


def assert_roots_inside_the_bound(p):
    chain = _squarefree_sequence(_remainder_sequence(p))
    bound = 2 ** _root_bound_exponent(chain)
    for f in chain:
        if len(f) < 2:
            continue
        eps = sympy.Rational(bound, 2**20)
        for (a, b), _ in sympy_poly(f).intervals(eps=eps):
            assert -bound < a and b < bound


@settings(max_examples=30, deadline=None)
# x^2 - 3x - 7 has the root 4.54, past 2^2, the bound without Fujiwara's
# factor 2
@example(UPoly([-7, -3, 1]))
@given(st.one_of(
    factored_polynomials(),
    wide_coefficient_polynomials(),
    st.lists(st.integers(-20, 20), min_size=2, max_size=9).map(UPoly)
    .filter(lambda p: p.degree >= 1)))
def test_every_root_of_the_divided_sequence_lies_inside_the_bound(p):
    assert_roots_inside_the_bound(p)


@pytest.mark.parametrize("k", [Fraction(0), Fraction(1, 2), Fraction(3)])
def test_bound_holds_for_a_degree_15_coulomb_constraint(k):
    p = coulomb_constraint_for_k(k, 15)
    assert p.degree == 15
    assert_roots_inside_the_bound(p)


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
