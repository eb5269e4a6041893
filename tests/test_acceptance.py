"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them all).  Every tolerance and time
budget is pinned here.
"""

import json
import math
import random
import time
from fractions import Fraction

from polyode.aim import aim_test_polynomial
from polyode.applications import (
    CoulombProblem,
    chhajlany_spec,
    coulomb_constraint_in_k,
    coulomb_energy,
    coulomb_spec,
    davidson_eigenvalue,
    davidson_spec,
    hyper_build,
    hyper_equation_spec,
    hyper_verify,
    krylov_robnik_analyze,
    krylov_robnik_spec,
)
from polyode.cli import main
from polyode.criteria import (
    AmbiguousNullspaceError,
    EquationSpec,
    NoNullspaceError,
    build_criterion_matrix,
    classical_polynomials,
    classical_tau,
    construct_solution,
    degree_condition,
    degree_condition_effective,
    delta_determinant,
    embed_classical,
    rational_nullspace,
    verify_solution,
)
from polyode.exactalg import UPoly
from polyode.heun import (
    biconfluent_to_spec,
    confluent_to_spec,
    general_to_spec,
)
from polyode.solve import analyze_roots

from bandforms import entries

T = UPoly([0, 1])
TOL = 1e-12


def report_line(number: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d}: {status} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def proportional(p: UPoly, q: UPoly) -> bool:
    if not p or not q:
        return (not p) == (not q)
    return p * q.leading == q * p.leading


# ---------------------------------------------------------------------------

def test_criterion_1_bessel_reproduction():
    start = time.perf_counter()
    ladder = classical_polynomials((1, 0, 0), (2, 2), 11)
    x = UPoly.x()
    ok = all(
        ladder[n + 2] == 2 * (2 * n + 3) * x * ladder[n + 1] + 4 * ladder[n]
        for n in range(9)
    )
    for n, y in enumerate(ladder):
        eq = embed_classical((1, 0, 0), (2, 2), classical_tau(1, 2, n))
        built = construct_solution(eq, build_criterion_matrix(eq, n))
        ok = ok and built.residual_is_zero
        ok = ok and proportional(built.polynomial(), y)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report_line(
        1, ok,
        f"ladder and matrix constructions agree up to scale for n <= 10 "
        f"({elapsed:.3f}s)",
    )


def test_criterion_2_cubic_oscillator_example():
    alpha = Fraction(3)
    beta1, c1 = krylov_robnik_analyze(alpha, 1)
    ok = beta1 == -alpha
    ok = ok and c1 == UPoly([-alpha * alpha, 0, 1])  # gamma^2 - alpha^2
    beta2, c2 = krylov_robnik_analyze(alpha, 2)
    ok = ok and beta2 == -2 * (alpha + 1)
    ok = ok and c2 == UPoly([0, 2 * alpha * (2 * alpha + 3), 0, -1])
    roots = analyze_roots(c2).refined
    expected = (-math.sqrt(54), 0.0, math.sqrt(54))
    ok = ok and len(roots) == 3
    ok = ok and all(abs(got - want) < TOL for got, want in zip(roots, expected))
    report_line(
        2, ok,
        "degree conditions and constraint polynomials exact; "
        "roots at alpha=3 within 1e-12 of {0, +-sqrt(54)}",
    )


def test_criterion_3_sextic_oscillator_matrix():
    p = Fraction(7)
    ok = True
    for n in range(1, 6):
        eq = chhajlany_spec(p, 2 * n, T)
        ok = ok and degree_condition(eq, n) == 0  # delta = 2n exact
        m = build_criterion_matrix(eq, n)
        for k in range(n + 1):
            for j in range(n + 1):
                if j == k - 1:
                    expect = UPoly([-2 * n + 2 * (k - 1)])
                elif j == k:
                    expect = UPoly([0, -1])
                elif j == k + 1:
                    expect = UPoly([-(k + 1) * p])
                elif j == k + 2:
                    expect = UPoly([-((k + 2) * (k + 1))])
                else:
                    expect = UPoly()
                ok = ok and m.entry(k, j) == expect
    report_line(
        3, ok,
        "banded matrix matches the closed-form entries row by row for n <= 5",
    )


DAVIDSON_LISTED = (
    lambda mu: UPoly([1]),
    lambda mu: UPoly([-3 - 2 * mu, 0, 2]),
    lambda mu: UPoly([(3 + 2 * mu) * (5 + 2 * mu), 0, -4 * (5 + 2 * mu), 0, 4]),
    lambda mu: UPoly([
        -(3 + 2 * mu) * (5 + 2 * mu) * (7 + 2 * mu), 0,
        6 * (7 + 2 * mu) * (5 + 2 * mu), 0, -12 * (7 + 2 * mu), 0, 8,
    ]),
)


def test_criterion_4_davidson_family():
    start = time.perf_counter()
    ok = True
    for n in range(4):
        ok = ok and davidson_eigenvalue(T, n) == 2 * T + UPoly([3 + 4 * n])
    for mu in (Fraction(0), Fraction(1, 2), Fraction(1)):
        for n in range(4):
            eq = davidson_spec(mu, davidson_eigenvalue(mu, n))
            sol = construct_solution(eq, build_criterion_matrix(eq, 2 * n))
            ok = ok and sol.residual_is_zero
            ok = ok and proportional(sol.polynomial(), DAVIDSON_LISTED[n](mu))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report_line(
        4, ok,
        f"eigenvalues 2mu+3+4n and the four listed polynomials reproduced "
        f"({elapsed:.3f}s)",
    )


def test_criterion_5_heun_conditions():
    ok = True
    alpha, nu = Fraction(3), Fraction(-5)
    for n in range(9):
        eq = confluent_to_spec(alpha=alpha, beta=1, gamma=2, mu=T, nu=nu)
        ok = ok and degree_condition(eq, n) == UPoly([-nu - n * alpha, -1])
    a_b = Fraction(5, 2)
    for n in range(9):
        eq = biconfluent_to_spec(alpha=a_b, beta=1, gamma=T, delta=0)
        ok = ok and degree_condition(eq, n) == UPoly([a_b + 2 + 2 * n, -1])
    beta, gamma, delta = Fraction(4), Fraction(1), Fraction(2)
    for n in range(9):
        epsilon = UPoly([1 + beta - gamma - delta, 1])
        eq = general_to_spec(
            a=3, alpha=T, beta=beta, gamma=gamma, delta=delta, epsilon=epsilon, q=5
        )
        # -(beta+n)(t+n): root alpha = -n; alpha*beta = -n(n-1) - n(g+e+d)
        ok = ok and degree_condition(eq, n) == UPoly(
            [-n * (beta + n), -(beta + n)]
        )
    report_line(
        5, ok,
        "confluent, biconfluent, and general closed-form degree conditions "
        "reproduced symbolically for n <= 8",
    )


def kp(*ascending):
    return UPoly(ascending)


COULOMB_CONSTRAINTS = {
    1: [kp(-1), kp(1)],
    2: [kp(3, 2), kp(-6, -3), kp(2, 1)],
    3: [
        -3 * kp(2, 1) * kp(3, 2),
        kp(54, 50, 11),
        -6 * kp(3, 1) * kp(2, 1),
        kp(3, 1) * kp(2, 1),
    ],
    4: [
        6 * kp(2, 1) * kp(3, 2) * kp(5, 2),
        -kp(720, 925, 381, 50),
        kp(720, 823, 300, 35),
        -10 * kp(2, 1) * kp(3, 1) * kp(4, 1),
        kp(2, 1) * kp(3, 1) * kp(4, 1),
    ],
}


def test_criterion_6_shifted_coulomb():
    ok = True
    # each listed constraint is primitive already: one UPoly in k per power
    # of t, compared term by term
    for n, expected in COULOMB_CONSTRAINTS.items():
        ok = ok and coulomb_constraint_in_k(n) == tuple(expected)
    energies = (
        (CoulombProblem(1, 1, 3, 0), 0, Fraction(-1, 2)),
        (CoulombProblem(1, 1, 3, 1), 0, Fraction(-1, 8)),
        (CoulombProblem(1, 1, 3, 0), 1, Fraction(-1, 8)),
        (CoulombProblem(2, 1, 2, 0), 0, Fraction(-8)),
        (CoulombProblem(3, 1, 5, 2), 1, Fraction(-9, 50)),
    )
    ok = ok and all(coulomb_energy(p, n) == e for p, n, e in energies)
    # generic band entries match the tridiagonal closed forms with k symbolic
    alpha, beta = Fraction(1, 2), Fraction(2)
    for n in range(1, 5):
        z = alpha * (T + UPoly([n + 1]))
        spec = EquationSpec(
            a3=(0, 1, beta, 0),
            a2=(-2 * alpha, 2 * (T + UPoly([1 - alpha * beta])),
                2 * beta * (T + UPoly([1]))),
            tau=(2 * alpha * (T + UPoly([1])) - 2 * z,
                 2 * alpha * beta * (T + UPoly([1]))),
        )
        m = build_criterion_matrix(spec, n)
        t = alpha * beta
        for j in range(n + 1):
            ok = ok and m.entry(j, j) == UPoly(
                [2 * t * (j + 1) - j * (j + 1), 2 * t - 2 * j]
            )
            if j >= 1:
                ok = ok and m.entry(j, j - 1) == UPoly([2 * alpha * (j - n - 1)])
            if j + 1 <= n:
                ok = ok and m.entry(j, j + 1) == UPoly(
                    [-(j + 1) * beta * (j + 2), -2 * (j + 1) * beta]
                )
    report_line(
        6, ok,
        "constraint polynomials n=1..4 match with symbolic k; energies and "
        "band entry formulas exact",
    )


def test_criterion_7_hypergeometric_class():
    values = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))
    ok = True
    checked = 0
    for l in (2, 3, 4):
        for m in range(1, 5):
            for n in range(0, 5):
                if l > 2 and n % (l - 1):
                    continue
                for a in values:
                    for b in values:
                        sol = hyper_build(m, n, l, a, b)
                        ok = ok and hyper_verify(sol)
                        if l == 2:
                            eq = hyper_equation_spec(m, n, l, a, b)
                            ok = ok and degree_condition(eq, n + m + 1) == 0
                            ok = ok and verify_solution(
                                eq, sol.polynomial().coeffs
                            )
                        checked += 1
    report_line(
        7, ok,
        f"terminating-series solutions verified exactly on {checked} "
        "parameter combinations, generic cross-check included for l=2",
    )


def test_criterion_8_oracle_equivalence():
    rng = random.Random(90125)
    disagreements = 0
    seen = 0
    while seen < 200:
        n = rng.randint(0, 6)
        a30, a20 = rng.randint(-3, 3), rng.randint(-3, 3)
        fields = dict(
            a3=(a30, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)),
            a2=(a20, rng.randint(-3, 3), rng.randint(-3, 3)),
            tau=(n * (n - 1) * a30 + n * a20, rng.randint(-4, 4)),
        )
        if not any(fields["a3"]) and not any(fields["a2"]):
            continue
        eq = EquationSpec(**fields)
        det_zero = delta_determinant(eq, n) == 0
        rows = entries(build_criterion_matrix(eq, n))
        has_nullspace = bool(rational_nullspace(rows))
        if det_zero != has_nullspace:
            disagreements += 1
        seen += 1
    report_line(
        8, disagreements == 0,
        f"determinant vanishing equals nontrivial nullspace on {seen} random "
        f"instances ({disagreements} disagreements)",
    )


# ---------------------------------------------------------------------------
# regression corpus shared by criterion 9

def _corpus():
    entries = []
    for n in range(7):
        entries.append((
            f"bessel tau={n*(n+1)}",
            embed_classical((1, 0, 0), (2, 2), classical_tau(1, 2, n)),
            max(n, 2), True,
        ))
    entries.append(("bessel tau=5", embed_classical((1, 0, 0), (2, 2), 5), 8, False))
    entries.append(("bessel tau=7", embed_classical((1, 0, 0), (2, 2), 7), 8, False))
    for mu in (Fraction(0), Fraction(1, 2), Fraction(1)):
        for nodes in range(4):
            entries.append((
                f"davidson mu={mu} nodes={nodes}",
                davidson_spec(mu, davidson_eigenvalue(mu, nodes)),
                max(2 * nodes, 2), True,
            ))
    entries.append(("davidson eps=5", davidson_spec(0, 5), 5, False))
    entries.append(("davidson eps=6", davidson_spec(0, 6), 5, False))
    entries.append(("chhajlany alpha=2", chhajlany_spec(2, 2, 2), 3, True))
    entries.append(("chhajlany alpha=-2", chhajlany_spec(2, 2, -2), 3, True))
    entries.append(("chhajlany alpha=1", chhajlany_spec(2, 2, 1), 3, False))
    entries.append((
        "krylov a=1/2 g=2",
        krylov_robnik_spec(Fraction(1, 2), -3, 2), 4, True,
    ))
    entries.append((
        "krylov a=1/2 g=1",
        krylov_robnik_spec(Fraction(1, 2), -3, 1), 4, False,
    ))
    entries.append((
        "krylov a=1 g=1",
        krylov_robnik_spec(1, -1, 1), 3, True,
    ))
    entries.append((
        "coulomb beta=2", coulomb_spec(CoulombProblem(1, 2, 3, 0), 1), 3, True,
    ))
    entries.append((
        "coulomb beta=3", coulomb_spec(CoulombProblem(1, 3, 3, 0), 1), 3, False,
    ))
    entries.append(("hyper m=1 n=1", hyper_equation_spec(1, 1, 2, 1, 1), 4, True))
    entries.append(("hyper m=2 n=2", hyper_equation_spec(2, 2, 2, 1, 2), 6, True))
    entries.append((
        "exponential", EquationSpec(a3=(0, 0, 0, 1), a2=(0, 0, 0), tau=(0, 1)),
        6, False,
    ))
    entries.append((
        "confluent heun n=1",
        confluent_to_spec(alpha=1, beta=1, gamma=2, mu=0, nu=-1),
        3, True,
    ))
    entries.append((
        "biconfluent heun n=0",
        biconfluent_to_spec(alpha=2, beta=4, gamma=4, delta=-12),
        3, True,
    ))
    return entries


def _determinant_sweep(eq, max_degree):
    """First degree with a fully verified solution, or None."""
    for n in range(max_degree + 1):
        _, cond = degree_condition_effective(eq, n)
        if cond != 0:
            continue
        if delta_determinant(eq, n) != 0:
            continue
        try:
            sol = construct_solution(eq, build_criterion_matrix(eq, n))
            if sol.residual_is_zero:
                return sol.reported_degree
        except AmbiguousNullspaceError as exc:
            if any(s.residual_is_zero for s in exc.solutions):
                return min(s.reported_degree for s in exc.solutions)
        except NoNullspaceError:
            continue
    return None


def test_criterion_9_aim_cross_validation():
    start = time.perf_counter()
    failures = []
    for name, eq, max_degree, expect in _corpus():
        found_degree = _determinant_sweep(eq, max_degree)
        aim_index = aim_test_polynomial(eq, max_degree)
        if (found_degree is not None) != expect:
            failures.append(f"{name}: determinant path expected {expect}")
        if (aim_index is not None) != (found_degree is not None):
            failures.append(f"{name}: paths disagree")
        if found_degree is not None and aim_index is not None:
            if aim_index > max(found_degree, 1):
                failures.append(
                    f"{name}: index {aim_index} above degree {found_degree}"
                )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report_line(
        9, ok,
        f"iteration and determinant paths agree on {len(_corpus())} corpus "
        f"equations in {elapsed:.2f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_10_scale_degree_25(tmp_path, capsys):
    tau = classical_tau(1, 2, 25)  # 650
    eq = {"a3": ["0", "1", "0", "0"], "a2": ["0", "2", "2"],
          "tau": ["0", str(tau)]}
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(eq))
    start = time.perf_counter()
    code = main(["check", str(path), "--n", "25", "--method", "both", "--json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        report = json.loads(out)
        ok = (
            code == 0
            and report["exists"]
            and report["solutions"][0]["verified"]
            and report["solutions"][0]["degree"] == 25
            and elapsed < 10.0
        )
        report_line(
            10, ok,
            f"full check at degree 25 completed in {elapsed:.2f}s",
        )
