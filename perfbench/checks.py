"""Output checks, run after the timed region.

Each check takes the query, the exit code and the parsed JSON report, and
returns a list of problems (empty when the output is correct).  The checks
recompute what they need from the generator's own copy of each equation
and use sympy only as an independent oracle; nothing here calls polyode.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from workloads import Query, band_rows, fraction_det

# ---------------------------------------------------------------------------
# exact helpers

def _at(eq: dict, t: Fraction) -> dict:
    """The equation with the unknown fixed to t, as plain Fractions."""
    return {key: [s[0] + s[1] * t for s in eq[key]] for key in ("a3", "a2", "tau")}


def residual_is_zero(eq: dict, coeffs: list[Fraction], t: Fraction = Fraction(0)) -> bool:
    """Substitute y = sum c_k x^k into (a3 . x^3..1) y'' + (a2 . x^2..1) y'
    - (tau . x..1) y and test that every coefficient vanishes."""
    num = _at(eq, t)
    p3, p2, p1 = num["a3"][::-1], num["a2"][::-1], num["tau"][::-1]
    residual = [Fraction(0)] * (len(coeffs) + 3)
    for k, c in enumerate(coeffs):
        if not c:
            continue
        for i, a in enumerate(p3):
            if k >= 2:
                residual[k - 2 + i] += a * k * (k - 1) * c
        for i, a in enumerate(p2):
            if k >= 1:
                residual[k - 1 + i] += a * k * c
        for i, a in enumerate(p1):
            residual[k + i] -= a * c
    return not any(residual)


def bessel_polynomial(a: int, b: int, n: int) -> list[Fraction]:
    """Closed form of the degree-n solution of x^2 y'' + (a x + b) y'
    - n(n+a-1) y = 0: c_k = C(n,k) (n+a-1)(n+a)...(n+a+k-2) / b^k."""
    coeffs, rising = [], Fraction(1)
    for k in range(n + 1):
        coeffs.append(comb(n, k) * rising / Fraction(b) ** k)
        rising *= n + a - 1 + k
    return coeffs


def proportional(u: list[Fraction], v: list[Fraction]) -> bool:
    if len(u) != len(v):
        return False
    return all(x * v[-1] == y * u[-1] for x, y in zip(u, v))


def _fractions(strings) -> list[Fraction]:
    return [Fraction(s) for s in strings]


def _scalar(value) -> tuple[Fraction, Fraction]:
    if isinstance(value, str):
        return (Fraction(value), Fraction(0))
    (coeffs,) = value.values()
    padded = _fractions(coeffs) + [Fraction(0)] * 2
    if any(padded[2:]):
        raise ValueError(f"scalar of degree > 1: {value!r}")
    return (padded[0], padded[1])


def echoed_equation(report: dict) -> dict:
    return {key: [_scalar(s) for s in report["equation"][key]]
            for key in ("a3", "a2", "tau")}


# ---------------------------------------------------------------------------
# oracle

def degrees_with_solutions(eq: dict, max_n: int) -> list[int]:
    """Degrees n <= max_n at which the degree condition holds and the
    criterion matrix is singular by sympy's determinant."""
    import sympy

    num = _at(eq, Fraction(0))
    a30, a31 = num["a3"][0], num["a3"][1]
    a20, a21 = num["a2"][0], num["a2"][1]
    t10, t11 = num["tau"]
    out = []
    for n in range(max_n + 1):
        if a30 or a20 or t10:
            cond = t10 - n * (n - 1) * a30 - n * a20
        else:
            cond = t11 - n * (n - 1) * a31 - n * a21
        if cond:
            continue
        matrix = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                               for row in band_rows(eq, n, Fraction(0))])
        if matrix.det() == 0:
            out.append(n)
    return out


def root_facts(poly: list[Fraction]) -> tuple[int, int, set]:
    """(distinct real roots, square-free degree, rational roots) by sympy."""
    import sympy

    x = sympy.Symbol("x")
    p = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(poly)], x)
    rational = {Fraction(int(r.p), int(r.q)) for r in p.ground_roots()}
    return p.count_roots(), p.sqf_part().degree(), rational


def oracle(query: Query):
    """What the checks need beyond the generator's own data; computed once
    per distinct query."""
    if query.family == "cubic":
        return degrees_with_solutions(query.equation, query.expect["max_n"])
    return None


# ---------------------------------------------------------------------------
# checks

def _check_solution(problems, sol, eq, degree, bessel=None, t=Fraction(0)):
    coeffs = _fractions(sol["coefficients"])
    nonzero = [c for c in coeffs if c]
    if (any(c.denominator != 1 for c in coeffs) or gcd(*(int(c) for c in nonzero)) != 1
            or nonzero[-1] < 0):
        problems.append("solution is not a primitive integer vector with positive lead")
    if not sol["verified"]:
        problems.append("solution not verified")
    if sol["degree"] != degree:
        problems.append(f"solution degree {sol['degree']} != {degree}")
    if not residual_is_zero(eq, coeffs, t):
        problems.append("independent residual is nonzero")
    if bessel is not None:
        trimmed = coeffs[: degree + 1]
        if not proportional(trimmed, bessel_polynomial(*bessel, degree)):
            problems.append("solution is not proportional to the Bessel polynomial")


def check_sweep(query: Query, code: int, report: dict, oracle_degrees) -> list[str]:
    problems = []
    expected = query.expect["degrees"]
    if expected is None:
        expected = oracle_degrees
    if report["degrees_with_solutions"] != expected:
        problems.append(f"degrees {report['degrees_with_solutions']} != {expected}")
    if code != (0 if expected else 2):
        problems.append(f"exit code {code}")
    if [r["n"] for r in report["sweep"]] != list(range(query.expect["max_n"] + 1)):
        problems.append("sweep does not cover 0..max-n")
    for entry in report["sweep"]:
        if entry["n"] in (query.expect["degrees"] or ()) and entry["aim"]["found_index"] is None:
            problems.append(f"the iteration test misses the degree-{entry['n']} solution")
        if not entry["exists"]:
            continue
        sols = entry["solutions"]
        if not sols:
            problems.append(f"degree {entry['n']} exists without a solution")
        for sol in sols:
            _check_solution(problems, sol, query.equation, entry["n"],
                            query.expect.get("bessel"))
    return problems


def check_construct(query: Query, code: int, report: dict, _oracle) -> list[str]:
    problems = []
    degree = query.expect["degree"]
    if code != 0 or not report["exists"]:
        problems.append(f"exit code {code}, exists {report['exists']}")
    if not report["determinant"]["is_zero"]:
        problems.append("determinant of a yes-instance is nonzero")
    if not report["solutions"]:
        problems.append("no solution")
    for sol in report["solutions"]:
        _check_solution(problems, sol, query.equation, degree, query.expect.get("bessel"))
    return problems


def _poly_value(poly: list[Fraction], x: Fraction) -> Fraction:
    value = Fraction(0)
    for c in reversed(poly):
        value = value * x + c
    return value


def check_roots(query: Query, code: int, report: dict, _oracle) -> list[str]:
    problems = []
    poly = _fractions(report["constraint"] if "constraint" in report
                      else report["determinant"])
    roots = report["roots"]
    intervals = [(Fraction(lo), Fraction(hi)) for lo, hi in roots["intervals"]]
    source = query.expect.get("equation") or query.expect.get("determinant_of")
    if source is not None:
        n = query.expect["degree"]
        if any(fraction_det(band_rows(source, n, Fraction(t))) != _poly_value(poly, Fraction(t))
               for t in range(n + 2)):
            problems.append("constraint is not the criterion determinant")
    if len(poly) > 1:
        count, sqf_degree, rational = root_facts(poly)
        if count != len(intervals):
            problems.append(f"{len(intervals)} intervals, sympy counts {count} roots")
        if roots["nonreal_count"] != sqf_degree - count:
            problems.append("nonreal count disagrees with sympy")
        if {Fraction(r) for r in roots["exact"]} != rational:
            problems.append(f"exact roots {roots['exact']}, sympy finds {sorted(rational)}")
    elif intervals:
        problems.append("intervals for a constant polynomial")
    if code != (0 if intervals else 2):
        problems.append(f"exit code {code}")
    if any(not lo < hi for lo, hi in intervals) or any(
            a[1] > b[0] for a, b in zip(intervals, intervals[1:])):
        problems.append("intervals are empty or overlap")
    if len(roots["roots"]) != len(intervals):
        problems.append("one refined root per interval expected")
    for value, (lo, hi) in zip(roots["roots"], intervals):
        if not float(lo) <= value <= float(hi):
            problems.append(f"refined root {value} outside ({lo}, {hi}]")
    for text in roots["exact"]:
        r = Fraction(text)
        if _poly_value(poly, r):
            problems.append(f"exact root {r} does not zero the constraint")
        if not any(lo < r <= hi for lo, hi in intervals):
            problems.append(f"exact root {r} lies in no interval")
    eq = query.expect.get("equation")
    if eq is not None and echoed_equation(report) != eq:
        problems.append("reported equation differs from the input")
    for sol in report["solutions"]:
        if not sol["verified"]:
            problems.append("solution not verified")
        if eq is not None and not residual_is_zero(
                eq, _fractions(sol["coefficients"]), Fraction(sol["t"])):
            problems.append("independent residual is nonzero")
    return problems


CHECKS = {"sweep": check_sweep, "construct": check_construct, "roots": check_roots}
