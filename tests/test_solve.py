import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bisection
from bandforms import coulomb_problem
from polyode import solve
from polyode.applications import CoulombProblem, coulomb_constraint, krylov_robnik_analyze
from polyode.cli import main
from polyode.exactalg import UPoly
from polyode.solve import (
    NotIsolatingError,
    ZeroPolynomialError,
    _count,
    _exact_division,
    _grid_value,
    _isolate,
    _remainder_sequence,
    _root_bound_exponent,
    _squarefree_sequence,
    _value_at,
    analyze_roots,
    isolate_real_roots,
    rational_roots,
    refine_root,
    sturm_chain,
)

TOL = 1e-12



def isolated(p: UPoly) -> int:
    """Distinct real roots that ``isolate_real_roots`` finds."""
    return len(isolate_real_roots(p).intervals)


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
    assert isolated(p) >= grid_changes


def test_sturm_count_equals_grid_for_separated_roots():
    # roots -3, 1/2, 2 are far apart relative to the grid
    p = UPoly([3, 1]) * UPoly([-1, 2]) * UPoly([-2, 1])
    assert isolated(p) == sympy_count(p) == 3


# ---------------------------------------------------------------------------
# isolation

def test_isolate_krylov_robnik_example():
    # alpha = 3, n = 2: roots {0, +-sqrt(54)}
    _, constraint = krylov_robnik_analyze(3, 2)
    report = isolate_real_roots(constraint)
    assert len(report.intervals) == 3
    for (a1, b1), (a2, b2) in zip(report.intervals, report.intervals[1:]):
        assert b1 <= a2  # pairwise disjoint, sorted


def test_isolate_coulomb_linear():
    constraint = coulomb_constraint(CoulombProblem(1, 3, 0), 1)  # k = 0: t - 1
    report = analyze_roots(constraint)
    assert len(report.intervals) == 1
    assert report.exact_rational_roots == (1,)
    assert abs(report.refined[0] - 1.0) < TOL


def test_isolate_counts_match_sturm():
    rng = random.Random(3)
    for _ in range(30):
        p = UPoly([rng.randint(-6, 6) for _ in range(rng.randint(2, 6))])
        if not p or p.degree < 1:
            continue
        assert len(isolate_real_roots(p).intervals) == sympy_count(p)


def test_isolate_nonreal_count():
    # (t^2+1)(t-2): one real root, two nonreal
    p = UPoly([1, 0, 1]) * UPoly([-2, 1])
    report = isolate_real_roots(p)
    assert len(report.intervals) == 1
    assert report.nonreal_count == 2


def test_isolation_starts_at_the_root_bound_past_a_million():
    # a root at 3 10^6 < 2^22: isolation starts at Fujiwara's 2^23
    p = UPoly([-Fraction(3 * 10**6), 1])
    report = analyze_roots(p)
    assert report.intervals == ((-2**23, 2**23),)
    assert report.exact_rational_roots == (Fraction(3 * 10**6),)


# ---------------------------------------------------------------------------
# refinement

def test_refine_sqrt2():
    p = UPoly([-2, 0, 1])
    value = refine_root(p, (Fraction(1), Fraction(2)))
    assert abs(value - math.sqrt(2)) < TOL


def test_refine_coulomb_quadratic_constraint_roots():
    # 2t^2 - 6t + 3: roots (3 +- sqrt(3))/2
    p = coulomb_constraint(CoulombProblem(1, 3, 0), 2)  # k = 0
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
    # points that isolation and refinement visit: every split of
    # (-2^e, 2^e] is an int over a power of two
    st.builds(lambda k, e: k * Fraction(2) ** e,
              st.integers(-16, 16), st.integers(-8, 8)),
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
    # coulomb reports its reduced constraint in t = alpha beta, the other
    # case studies the determinant in their unknown
    poly = sympy_poly(report.get("constraint") or report["determinant"])
    sqf = poly.sqf_part()
    roots = report["roots"]
    assert len(roots["intervals"]) == sqf.count_roots()
    assert roots["nonreal_count"] == sqf.degree() - sqf.count_roots()
    assert [Fraction(r) for r in roots["exact"]] == sorted(
        Fraction(int(r.p), int(r.q)) for r in poly.ground_roots())
    assert code == (0 if roots["intervals"] else 2)


# ---------------------------------------------------------------------------
# quadratic interval refinement and integer isolation against bisection

def refine(chain, lo: Fraction, hi: Fraction):
    """``_refine`` on the dyadic cell (lo, hi], given by its ends."""
    k = max(lo.denominator, hi.denominator).bit_length() - 1
    return solve._refine(chain, int(lo * 2**k), int(hi * 2**k), k)


DYADIC_ROOTS = st.builds(lambda k, e: Fraction(k, 2**e),
                         st.integers(-64, 64), st.integers(0, 12))

@st.composite
def refinement_cases(draw):
    """Products of dyadic and non-dyadic rational linear factors, some
    repeated, and irreducible quadratics, of degree at most 12."""
    p = UPoly([draw(st.integers(-9, 9).filter(bool))])
    for root in draw(st.lists(st.one_of(ROOTS, DYADIC_ROOTS), max_size=4)):
        p = p * UPoly([-root, 1]) ** draw(st.integers(1, 2))
    for quadratic in draw(st.lists(IRREDUCIBLE_QUADRATICS, max_size=2)):
        p = p * quadratic
    assume(1 <= p.degree <= 12)
    return p


@settings(max_examples=150, deadline=None)
@given(refinement_cases())
def test_isolation_and_refinement_match_the_bisection_oracle(p):
    chain = _squarefree_sequence(_remainder_sequence(p))
    bound = Fraction(2 ** _root_bound_exponent(chain))
    cells = _isolate(chain)
    intervals = tuple((Fraction(a, 2**k), Fraction(b, 2**k)) for a, b, k in cells)
    assert intervals == bisection.isolate(chain, -bound, bound)
    for cell, (a, b) in zip(cells, intervals):
        value, exact = solve._refine(chain, *cell)
        assert type(value) is float
        assert (value, exact) == bisection.refine(chain, a, b)
    # (r, b2] with r the rational root of one interval and b2 the right end
    # of the next isolates the next root, with lo itself a root
    for (a, b), (_, b2) in zip(intervals, intervals[1:]):
        root = bisection.refine(chain, a, b)[1]
        if root is not None:
            assert refine_root(p, (root, b2)) == bisection.refine(chain, root, b2)[0]


def test_a_root_on_the_grid_is_reported_as_bisection_reports_it():
    # 2^18 t - 15625 on (-2, 2], from its root bound 2^1: the root
    # 15625/2^18 is the grid point of level 20, which the refinement step
    # into level 21, that of the rational-root test, hits first; a root at
    # the upper end of an interval given to refine_root is reported as it is
    chain = [(-15625, 2**18), (1,)]
    root = Fraction(15625, 2**18)
    assert _isolate(chain) == ((-2, 2, 0),)
    lo, hi = Fraction(-2), Fraction(2)
    assert solve._refine(chain, -2, 2, 0) == bisection.refine(chain, lo, hi) == (
        float(root), root)
    assert refine_root(UPoly([-15625, 2**18]), (0, root)) == float(root)
    assert bisection.refine(chain, Fraction(0), root) == (float(root), root)


@pytest.mark.parametrize("lo, hi", [(Fraction(0), Fraction(1)),
                                    (Fraction(1), Fraction(3, 2)),
                                    (Fraction(1, 2), Fraction(1))])
def test_refining_a_cell_that_ends_on_a_root_raises(lo, hi):
    # the cells of _isolate never end on a root; refine_root takes such
    # intervals, and refines the root's own cell instead
    chain = _squarefree_sequence(_remainder_sequence(UPoly([0, -1, 1])))  # x^2 - x
    with pytest.raises(ArithmeticError):
        refine(chain, lo, hi)


@st.composite
def isolating_intervals(draw):
    """(p, (lo, hi), i): an interval (lo, hi] that isolates the i-th
    distinct real root of p, a product from ``refinement_cases``.  Its ends
    come from the cells of ``analyze_roots``, their thirds, which are not
    dyadic, and the rational roots, so that a root can sit at either end."""
    p = draw(refinement_cases())
    report = analyze_roots(p)
    assume(report.intervals)
    points = sorted({x for a, b in report.intervals
                     for x in (a, a + (b - a) / 3, b - (b - a) / 3, b)}
                    | set(report.exact_rational_roots))
    chain = _squarefree_sequence(_remainder_sequence(p))
    below = points[0] - 1
    isolating = [(lo, hi) for lo in points for hi in points
                 if lo < hi and bisection.count(chain, lo, hi) == 1]
    lo, hi = draw(st.sampled_from(isolating))
    return p, (lo, hi), bisection.count(chain, below, lo)


@settings(max_examples=100, deadline=None)
@given(isolating_intervals())
def test_refine_root_returns_the_float_that_analyze_roots_reports(case):
    p, interval, i = case
    assert refine_root(p, interval) == analyze_roots(p).refined[i]


def counting_evaluations(monkeypatch):
    """Counts of ``_refine`` calls ("roots") and of the polynomial
    evaluations made inside them: values on the grid (``_grid_value``) and
    rational-root tests (``_value_at``, "candidates")."""
    counts = {"roots": 0, "evaluations": 0, "candidates": 0}
    refining = []
    refine_cell = solve._refine

    def counted_refine(*args):
        counts["roots"] += 1
        refining.append(True)
        try:
            return refine_cell(*args)
        finally:
            refining.pop()

    def counted(kernel, *keys):
        def evaluate(*args):
            if refining:
                for key in keys:
                    counts[key] += 1
            return kernel(*args)
        return evaluate

    monkeypatch.setattr(solve, "_refine", counted_refine)
    monkeypatch.setattr(solve, "_grid_value", counted(solve._grid_value, "evaluations"))
    monkeypatch.setattr(solve, "_value_at",
                        counted(solve._value_at, "evaluations", "candidates"))
    return counts


@pytest.mark.parametrize("coeffs, lo, hi", [
    ((-1, 3 * 2**6650), Fraction(0), Fraction(1)),
    ((-2**6650, 3 * 2**6650 + 1), Fraction(0), Fraction(1)),
    ((-7 * 10**2000 - 1, 10**2001), Fraction(1, 4), Fraction(3, 4)),
])
def test_secant_guesses_are_exact_on_a_linear_polynomial(coeffs, lo, hi,
                                                         monkeypatch):
    # every subcell guess holds the root, so N squares at every step: log N
    # doubles from 2 and reaches the level of the rational-root test (about
    # 6 650, for a leading coefficient near 2^6650) in 12 steps of at most
    # two evaluations, besides the values at the two ends and the test; no
    # root is dyadic, so the test runs, once
    counts = counting_evaluations(monkeypatch)
    chain = [coeffs, (coeffs[1],)]
    root = Fraction(-coeffs[0], coeffs[1])
    assert refine(chain, lo, hi) == (float(root), root)
    assert counts["roots"] == counts["candidates"] == 1
    assert 3 <= counts["evaluations"] <= 2 + 2 * 12 + 1


def test_the_rational_root_test_runs_in_a_cell_narrower_than_one_over_lead(
        monkeypatch):
    # 3 2^6650 x - 1 on (0, 1]: the cell of level L.bit_length() = 6652 is
    # narrower than 1/L, and there the one candidate floor(L hi)/L is the
    # root, so no value is taken deeper
    levels = []
    grid_value = solve._grid_value

    def recorded(f, a, k):
        levels.append(k)
        return grid_value(f, a, k)

    monkeypatch.setattr(solve, "_grid_value", recorded)
    lead = 3 * 2**6650
    root = Fraction(1, lead)
    assert refine([(-1, lead), (lead,)], Fraction(0), Fraction(1)) == (float(root), root)
    assert max(levels) <= lead.bit_length() + 3


@st.composite
def large_denominator_roots(draw):
    """(p, rational roots): linear factors at rational roots whose
    denominators reach 2^200 and 10^60, some repeated, times irreducible
    quadratics, so that the leading coefficient of the square-free part
    has hundreds of bits."""
    denominators = st.one_of(
        st.integers(1, 2**200), st.integers(1, 10**60),
        st.builds(lambda e: 2**e, st.integers(0, 200)),
        st.builds(lambda e: 10**e, st.integers(0, 60)))
    rationals = draw(st.lists(st.builds(Fraction, st.integers(-10**60, 10**60),
                                        denominators),
                              min_size=1, max_size=3, unique=True))
    p = UPoly([1])
    for root in rationals:
        p = p * UPoly([-root, 1]) ** draw(st.integers(1, 2))
    for quadratic in draw(st.lists(IRREDUCIBLE_QUADRATICS, max_size=2)):
        p = p * quadratic
    return p, rationals


@settings(max_examples=100, deadline=None)
@given(large_denominator_roots())
def test_rational_roots_with_large_denominators_match_sympy_and_bisection(case):
    p, rationals = case
    report = analyze_roots(p)
    assert list(report.exact_rational_roots) == sorted(
        Fraction(int(r.p), int(r.q)) for r in sympy_poly(p.coeffs).ground_roots())
    assert set(report.exact_rational_roots) == set(rationals)
    chain = _squarefree_sequence(_remainder_sequence(p))
    bound = Fraction(2 ** _root_bound_exponent(chain))
    assert report.intervals == bisection.isolate(chain, -bound, bound)
    oracle = [bisection.refine(chain, lo, hi) for lo, hi in report.intervals]
    assert list(report.refined) == [value for value, _ in oracle]
    assert list(report.exact_rational_roots) == [r for _, r in oracle if r is not None]


@pytest.mark.parametrize("coeffs", [(0, -15, -9, 2), (-20, 2, 15, 30, 2),
                                    (30, 12, -19, 2)])
def test_carried_values_keep_the_secant_guesses_good(coeffs, monkeypatch):
    # all roots of each take 41-56 evaluations, where bisection makes
    # 126-193 sign tests; an end value carried with the wrong shift leaves
    # every result as it is, but takes one of them past 60
    counts = counting_evaluations(monkeypatch)
    p = UPoly(list(coeffs))
    roots = len(analyze_roots(p).refined)
    assert roots and counts["roots"] == roots
    assert 2 * roots <= counts["evaluations"] <= 60


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=10),
       st.integers(-10**40, 10**40), st.integers(0, 80))
@example([3, 0, -5, 2], -7, 0)
@example([1, -1, 0, 0, 4], -5, 7)
def test_the_grid_kernel_equals_homogenised_horner(f, a, k):
    # one product per coefficient: the value 2^(k d) f(a / 2^k), at any int
    # point a
    f = tuple(f)
    b = 1 << k
    value = _grid_value(f, a, k)
    assert value == _value_at(f, a, b)
    assert value == sum(Fraction(c) * Fraction(a, b) ** i for i, c in enumerate(f)) * b ** (len(f) - 1)


PLANTED_EXPONENTS = st.integers(-300, 300)


@st.composite
def planted_roots(draw):
    """(p, rational roots): a product of linear factors
    at dyadic roots m 2^k and non-dyadic rational roots (a/b) 10^e, and of
    quadratics with the irrational roots (c/7 +- sqrt(D)) 10^e, every root
    of magnitude between about 10^-300 and 10^300."""
    rationals = draw(st.lists(st.one_of(
        st.builds(lambda m, k: Fraction(m) * Fraction(2) ** k,
                  st.integers(-2**20, 2**20).filter(lambda m: m % 2),
                  st.integers(-975, 975)),
        st.builds(lambda a, b, e: Fraction(a, b) * Fraction(10) ** e,
                  st.integers(-999, 999).filter(bool),
                  st.integers(3, 99).filter(lambda b: b & (b - 1)),
                  PLANTED_EXPONENTS)), max_size=3))
    quadratics = []
    for c, d, e in draw(st.lists(st.tuples(
            st.integers(-20, 20), st.integers(2, 99).filter(lambda d: not _is_square(d)),
            PLANTED_EXPONENTS), max_size=2)):
        center, scale = Fraction(c, 7) * Fraction(10) ** e, Fraction(10) ** e
        quadratics.append(UPoly([center**2 - d * scale**2, -2 * center, 1]))
    assume(rationals or quadratics)
    p = UPoly([1])
    for root in rationals:
        p = p * UPoly([-root, 1])
    for quadratic in quadratics:
        p = p * quadratic
    return p, set(rationals)


@settings(max_examples=60, deadline=None)
@given(planted_roots())
def test_every_refined_root_is_the_float_nearest_the_root(case):
    # a rational root's float is Python's correctly rounded conversion; an
    # irrational root must lie strictly between the midpoints from its
    # float to the two neighbouring floats, which sympy counts exactly
    p, rationals = case
    report = analyze_roots(p)
    assert set(report.exact_rational_roots) == rationals
    assert len(report.intervals) == sympy_count(p)
    for (lo, hi), value in zip(report.intervals, report.refined):
        assert type(value) is float
        exact = [r for r in rationals if lo < r <= hi]
        if exact:
            assert value == float(exact[0])
            continue
        below = (Fraction(math.nextafter(value, -math.inf)) + Fraction(value)) / 2
        above = (Fraction(value) + Fraction(math.nextafter(value, math.inf))) / 2
        assert sympy_count(p, max(lo, below), min(hi, above)) == 1


@st.composite
def isolation_cases(draw):
    """Random integer polynomials, and products of planted factors: the
    roots 0 and +-2^j, rationals with odd denominators and quadratic
    irrationals, some repeated, of magnitude about 10^-300 to 10^300."""
    if draw(st.booleans()):
        return UPoly(draw(st.lists(st.integers(-20, 20), min_size=2, max_size=9)
                          .filter(lambda c: any(c[1:]))))
    roots = draw(st.lists(st.one_of(
        st.just(Fraction(0)),
        st.builds(lambda sign, j: sign * Fraction(2) ** j,
                  st.sampled_from([-1, 1]), st.integers(-996, 996)),
        st.builds(lambda a, b, e: Fraction(a, b) * Fraction(3) ** e,
                  st.integers(-999, 999).filter(bool),
                  st.integers(1, 49).map(lambda h: 2 * h + 1),
                  st.integers(-628, 628))), max_size=3))
    p = UPoly([draw(st.integers(-9, 9).filter(bool))])
    for root in roots:
        p = p * UPoly([-root, 1]) ** draw(st.integers(1, 3))
    for c, d, e in draw(st.lists(st.tuples(
            st.integers(-20, 20), st.integers(2, 99).filter(lambda d: not _is_square(d)),
            PLANTED_EXPONENTS), max_size=2)):
        center, scale = Fraction(c, 7) * Fraction(10) ** e, Fraction(10) ** e
        p = p * UPoly([center**2 - d * scale**2, -2 * center, 1])
    assume(p.degree >= 1)
    return p


@settings(max_examples=60, deadline=None)
@given(isolation_cases())
def test_every_interval_is_a_dyadic_cell_inside_the_bound_with_one_root(p):
    chain = _squarefree_sequence(_remainder_sequence(p))
    bound = 2 ** _root_bound_exponent(chain)
    intervals = isolate_real_roots(p).intervals
    assert len(intervals) == sympy_count(p)
    for lo, hi in intervals:
        assert all(x.denominator & (x.denominator - 1) == 0 for x in (lo, hi))
        assert -bound <= lo < hi <= bound
        assert sympy_count(p, lo, hi) == 1


@pytest.mark.parametrize("p, refined, exact", [
    (UPoly([-10**400, 1]), [None], [10**400]),
    (UPoly([10**400, 1]), [None], [-10**400]),
    (UPoly([-2 * 10**800, 0, 1]), [None, None], []),
    # the largest float, and the tie just past it, which rounds to even:
    # to 2^1024, past the largest float
    (UPoly([-(2**1024 - 2**971), 1]), [sys.float_info.max], [2**1024 - 2**971]),
    (UPoly([-(2**1024 - 2**970), 1]), [None], [2**1024 - 2**970]),
    # roots below the least float round to zero
    (UPoly([-1, 10**400]), [0.0], [Fraction(1, 10**400)]),
    (UPoly([-2, 0, 10**800]), [0.0, 0.0], []),
])
def test_roots_past_the_float_range_refine_to_none_or_zero(p, refined, exact):
    # the intervals and the exact values stay exact
    report = analyze_roots(p)
    assert list(report.refined) == refined
    assert list(report.exact_rational_roots) == exact
    assert len(report.intervals) == len(refined)


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
    p = coulomb_constraint(coulomb_problem(k), 15)
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
