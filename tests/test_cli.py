import ast
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyode import cli
from polyode.aim import aim_test_polynomial, default_iteration_cap
from polyode.cli import MAX_DEGREE, build_parser, main
from polyode.criteria import (
    EquationSpec,
    build_criterion_matrix,
    delta_determinant,
    rational_nullspace,
    verify_solution,
)
from polyode.exactalg import MAX_DIGITS, UPoly, bareiss_determinant
from polyode.heun import biconfluent_to_spec

from bandforms import coefficient_polynomials, entries, primitive_vector

BESSEL6 = json.dumps(
    {"a3": ["0", "1", "0", "0"], "a2": ["0", "2", "2"], "tau": ["0", "6"]}
)
BESSEL5 = json.dumps(
    {"a3": ["0", "1", "0", "0"], "a2": ["0", "2", "2"], "tau": ["0", "5"]}
)
KRYLOV_GAMMA_UNKNOWN = json.dumps(
    {
        "a3": ["1", "0", "0", "0"],
        "a2": ["1", "0", "-1"],
        "tau": ["1", {"t": ["0", "-1"]}],
        "unknown": "t",
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


@pytest.fixture
def eq_file(tmp_path):
    def write(text):
        path = tmp_path / "eq.json"
        path.write_text(text)
        return str(path)

    return write


# ---------------------------------------------------------------------------
# check

def test_check_bessel_n2_exists(eq_file, capsys):
    code, report, err = run(capsys, "check", eq_file(BESSEL6), "--n", "2")
    assert code == 0
    assert report["exists"] is True
    sols = report["solutions"]
    assert len(sols) == 1
    assert sols[0]["coefficients"] == ["1", "3", "3"]
    assert sols[0]["verified"] is True
    assert report["aim"]["found_index"] == 2
    assert "exists: true" in err


def test_check_bessel_tau5_fails_degree_condition(eq_file, capsys):
    code, report, _ = run(capsys, "check", eq_file(BESSEL5), "--n", "2")
    assert code == 2
    assert report["exists"] is False
    assert report["degree_condition"]["holds"] is False
    assert report["degree_condition"]["level"] == 0


def test_check_davidson_demo_values(eq_file, capsys):
    eq = json.dumps(
        {"a3": ["0", "0", "1", "0"], "a2": ["-2", "0", "2"], "tau": ["-4", "0"]}
    )
    code, report, _ = run(capsys, "check", eq_file(eq), "--n", "2")
    assert code == 0
    assert report["solutions"][0]["coefficients"] == ["-3", "0", "2"]


def test_check_method_aim_only(eq_file, capsys):
    # the iteration criterion never decides alone: its index certifies no
    # solution, so --method aim is a usage error
    code, report, err = run(
        capsys, "check", eq_file(BESSEL6), "--n", "2", "--method", "aim"
    )
    assert code == 1
    assert report is None
    assert "invalid choice: 'aim'" in err and "Traceback" not in err


def test_analyze_check_takes_only_the_two_methods():
    eq = EquationSpec.from_json_dict(json.loads(BESSEL6))
    with pytest.raises(ValueError, match="'determinant' or 'both', got 'aim'"):
        cli.analyze_check(eq, [2], "aim")


DISAGREE = "criterion paths disagree at this degree"

# (x^3 - x^2 - 3x) y'' + (-3x^2 + 3x) y' + 3x y = 0: its level-1 condition
# -(n-1)(n-3) holds at 1 and 3, AIM qualifies at index 1, and the one
# solution, x - 1, has degree 1
TWO_CONDITION_ROOTS = {"a3": ["1", "-1", "-3", "0"], "a2": ["-3", "3", "0"], "tau": ["-3", "0"]}


def test_check_method_aim_needs_the_degree_condition(eq_file, capsys):
    # the iteration index and the degree condition both hold at degree 3,
    # yet no degree-3 solution exists: ``both`` answers "no" with a note
    path = eq_file(json.dumps(TWO_CONDITION_ROOTS))
    code, report, _ = run(capsys, "check", path, "--n", "3")
    assert report["degree_condition"] == {"level": 1, "polynomial": [], "holds": True}
    assert report["aim"] == {"found_index": 1, "cap": 10}
    assert report["solutions"] == [] and report["exists"] is False
    assert any(DISAGREE in note for note in report["notes"])
    assert code == 2
    code, report, _ = run(capsys, "check", path, "--max-n", "4")
    assert report["degrees_with_solutions"] == [1]
    assert code == 0
    assert run(capsys, "check", path, "--n", "3", "--method", "aim")[0] == 1


def test_both_criteria_agree_where_the_degree_condition_fails(eq_file, capsys):
    # README's Bessel equation at degree 0: AIM's index 2 is within cap(0),
    # but the degree condition fails, so both answers are "no"
    code, report, err = run(capsys, "check", eq_file(BESSEL6), "--n", "0")
    assert report["aim"]["found_index"] == 2
    assert report["degree_condition"]["holds"] is False
    assert report["exists"] is False
    assert not any(DISAGREE in note for note in report["notes"])
    assert DISAGREE not in err
    assert code == 2


def test_both_criteria_note_a_real_disagreement(eq_file, capsys, monkeypatch):
    # without an iteration index, the determinant's verified degree-2
    # solution is the only "yes"
    monkeypatch.setattr("polyode.cli.aim_test_polynomial", lambda eq, cap: None)
    code, report, _ = run(capsys, "check", eq_file(BESSEL6), "--n", "2")
    assert report["aim"]["found_index"] is None
    assert report["exists"] is True
    assert any(DISAGREE in note for note in report["notes"])
    assert code == 0


def test_check_sweep(eq_file, capsys):
    code, report, _ = run(
        capsys, "check", eq_file(BESSEL6), "--max-n", "4", "--method", "determinant"
    )
    assert code == 0
    assert report["degrees_with_solutions"] == [2]


# y'' = 0 and x^3 y'' = 0: no y' or y term, and the solutions 1 and x
ONLY_SECOND_ORDER = [
    {"a3": ["0", "0", "0", "1"], "a2": ["0", "0", "0"], "tau": ["0", "0"]},
    {"a3": ["1", "0", "0", "0"], "a2": ["0", "0", "0"], "tau": ["0", "0"]},
]
NO_LOWER_TERM = "y' and y coefficients are identically zero"


def check_sweep(equation: dict, max_n: int, method: str):
    """``check --max-n`` in-process: (exit code, report, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "eq.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(equation, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", path, "--max-n", str(max_n), "--method", method])
    text = out.getvalue()
    return code, json.loads(text) if text else None, err.getvalue()


def assert_sweep_matches_per_degree_oracles(equation: dict, max_n: int, method: str):
    """Every degree of one ``check --max-n`` pass against oracles run for
    that degree alone: the Bareiss determinant of the dense degree-n matrix
    (its rational entries) and its Gauss-Jordan nullspace, whose whole
    basis is the answer exactly when its last vector has degree n, and with
    ``both`` AIM to the degree's own cap, which a note contradicts where
    its index and the degree condition disagree with that answer.  Without
    a y' or a y term AIM cannot answer, and ``both`` answers as
    ``determinant``."""
    code, report, _ = check_sweep(equation, max_n, method)
    eq = EquationSpec.from_json_dict(equation)
    _, p2, p1 = coefficient_polynomials(eq)
    if not (p2 or p1):
        method = "determinant"
    assert [entry["n"] for entry in report["sweep"]] == list(range(max_n + 1))
    degrees = []
    for n, entry in enumerate(report["sweep"]):
        rows = entries(build_criterion_matrix(eq, n))
        det = bareiss_determinant(rows)
        assert entry["determinant"] == {
            "coefficients": [str(det)] if det else [], "is_zero": det == 0}
        expected = []
        if entry["degree_condition"]["holds"] and det == 0:
            basis = [primitive_vector(v) for v in rational_nullspace(rows)]
            if basis[-1][-1]:
                expected = [[str(c) for c in v] for v in basis]
        assert [s["coefficients"] for s in entry["solutions"]] == expected
        exists = bool(expected)
        if method == "determinant":
            assert "aim" not in entry
        else:
            cap = default_iteration_cap(n)
            index = aim_test_polynomial(eq, cap)
            assert entry["aim"] == {"found_index": index, "cap": cap}
            aim_says = index is not None and entry["degree_condition"]["holds"]
            assert any(DISAGREE in note for note in entry["notes"]) is (aim_says != exists)
        assert entry["exists"] is exists
        if exists:
            degrees.append(n)
    assert report["degrees_with_solutions"] == degrees
    assert code == (0 if degrees else 2)
    return report


coefficient = st.integers(-3, 3)
rational_coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def cubic_equations(draw, coefficient=coefficient):
    """Random equations with a nonzero y'' coefficient; half of them meet
    the degree condition at some degree, so solutions get constructed."""
    a3 = draw(st.tuples(*[coefficient] * 4).filter(any))
    a2 = draw(st.tuples(*[coefficient] * 3))
    tau = draw(st.tuples(coefficient, coefficient))
    if draw(st.booleans()):
        m = draw(st.integers(0, 4))
        tau = (m * (m - 1) * a3[0] + m * a2[0], tau[1])
    return {"a3": [str(v) for v in a3], "a2": [str(v) for v in a2],
            "tau": [str(v) for v in tau]}


# Bessel with its degree-6 solution: AIM first qualifies at index 6, past
# cap(0) = 4, so degree 0 must report no index although degree 8's run finds it
BESSEL_DEGREE_6 = {"a3": ["0", "1", "0", "0"], "a2": ["0", "2", "2"], "tau": ["0", "42"]}


@settings(max_examples=80, deadline=None)
@given(cubic_equations(), st.integers(0, 5), st.sampled_from(["both", "determinant"]))
@example(BESSEL_DEGREE_6, 8, "both")
@example(BESSEL_DEGREE_6, 8, "determinant")
@example(TWO_CONDITION_ROOTS, 4, "both")
# x^2 y'' + y' = 0: the determinant vanishes at n = 1 through the constant
@example({"a3": ["0", "1", "0", "0"], "a2": ["0", "0", "1"], "tau": ["0", "0"]},
         2, "determinant")
@example(ONLY_SECOND_ORDER[0], 3, "both")
@example(ONLY_SECOND_ORDER[1], 3, "determinant")
def test_sweep_matches_per_degree_oracles(equation, max_n, method):
    assert_sweep_matches_per_degree_oracles(equation, max_n, method)


@settings(max_examples=60, deadline=None)
@given(cubic_equations(rational_coefficient), st.integers(0, 5),
       st.sampled_from(["both", "determinant"]))
@example({"a3": ["0", "1/2", "0", "0"], "a2": ["0", "1", "1/3"], "tau": ["0", "5/6"]},
         4, "determinant")  # D = 6
@example({"a3": ["1/4", "0", "-2/7", "1"], "a2": ["3/5", "1", "0"], "tau": ["-1/2", "9"]},
         4, "determinant")  # D = 140
def test_sweep_of_rational_equations_matches_per_degree_oracles(equation, max_n, method):
    # unlike denominators: the band is the integer band of the equation
    # times D, and the reported minors must be the unscaled ones
    assert_sweep_matches_per_degree_oracles(equation, max_n, method)


X = sympy.Symbol("x")


def sympy_residual(equation: dict, y):
    """P3 y'' + P2 y' - P1 y of the equation's dict, expanded by sympy."""
    a3, a2, tau = ([sympy.Rational(v) for v in equation[key]] for key in ("a3", "a2", "tau"))
    p3, p2, p1 = (sum(c * X ** (len(cs) - 1 - i) for i, c in enumerate(cs))
                  for cs in (a3, a2, tau))
    return sympy.expand(p3 * y.diff(X, 2) + p2 * y.diff(X) - p1 * y)


def has_solution_of_degree(equation: dict, n: int) -> bool:
    """Whether y = x^n + sum_(k<n) c_k x^k solves the equation for some
    rationals c_k: the residual's coefficients in x, solved by sympy."""
    unknowns = sympy.symbols(f"c0:{n}")
    y = X ** n + sum(c * X ** k for k, c in enumerate(unknowns))
    residual = sympy_residual(equation, y)
    if not n:
        return residual == 0
    return sympy.linsolve(sympy.Poly(residual, X).all_coeffs(), unknowns) != sympy.EmptySet


def _numbers(*values) -> dict:
    a3, a2, tau = values[:4], values[4:7], values[7:]
    return {"a3": [str(v) for v in a3], "a2": [str(v) for v in a2],
            "tau": [str(v) for v in tau]}


@st.composite
def classical_equations(draw):
    """(a20 x^2 + a21 x + a22) y'' + (a10 x + a11) y' - t00 y = 0 with t00
    on its ladder at a drawn degree m, embedded in the cubic form."""
    a20, a21, a22, a10, a11 = draw(st.tuples(*[coefficient] * 5).filter(any))
    m = draw(st.integers(0, 12))
    return _numbers(0, a20, a21, a22, 0, a10, a11, 0, m * (m - 1) * a20 + m * a10)


@st.composite
def euler_equations(draw):
    """x^2 y'' + (1 - r - s) x y' + r s y = 0, solved by x^r and x^s."""
    r, s = sorted(draw(st.integers(0, 12)) for _ in range(2))
    return _numbers(0, 1, 0, 0, 0, 1 - r - s, 0, 0, -r * s)


# x y'' + c y' = 0, solved by 1 and x^(1-c)
x_ypp_plus_c_yp = st.integers(-12, 3).map(lambda c: _numbers(0, 0, 1, 0, 0, 0, c, 0, 0))

# a dense cubic whose one solution is the constant 1
CONSTANT_ONLY = {"a3": ["1", "2", "-1", "3"], "a2": ["-3", "1", "2"], "tau": ["0", "0"]}


@settings(max_examples=30, deadline=None)
@given(st.one_of(cubic_equations(), classical_equations(), euler_equations(),
                 x_ypp_plus_c_yp))
@example(CONSTANT_ONLY)
@example(_numbers(0, 0, 1, 0, 0, 0, -2, 0, 0))  # x y'' - 2y' = 0: 1 and x^3
@example(_numbers(0, 0, 0, 1, 0, 0, 0, 0, 0))  # y'' = 0: 1 and x
@example(TWO_CONDITION_ROOTS)  # AIM and the condition hold at 3; only x - 1 solves
def test_check_answers_every_degree_as_the_linear_system_does(equation):
    # degree n is a "yes" exactly when a monic degree-n polynomial solves
    # the equation, whatever the solutions of lower degree, with either
    # method; ``both`` notes exactly where AIM's index, with the degree
    # condition holding, says otherwise
    degrees = [n for n in range(13) if has_solution_of_degree(equation, n)]
    reports = {}
    for method in ("determinant", "both"):
        code, report, _ = check_sweep(equation, 12, method)
        assert report["degrees_with_solutions"] == degrees
        assert code == (0 if degrees else 2)
        for n, entry in enumerate(report["sweep"]):
            solutions = entry["solutions"]
            assert bool(solutions) is entry["exists"] is (n in degrees)
            if solutions:
                assert solutions[-1]["degree"] == n
            for sol in solutions:
                y = sum(sympy.Rational(c) * X ** k for k, c in enumerate(sol["coefficients"]))
                assert sympy_residual(equation, y) == 0
            disagree = any(DISAGREE in note for note in entry["notes"])
            if "aim" in entry:
                aim_says = (entry["aim"]["found_index"] is not None
                            and entry["degree_condition"]["holds"])
                assert disagree is (aim_says != (n in degrees))
            else:
                assert not disagree
        reports[method] = [entry["solutions"] for entry in report["sweep"]]
    assert reports["both"] == reports["determinant"]


def test_a_lower_degree_solution_answers_no(eq_file, capsys):
    code, report, _ = run(capsys, "check", eq_file(json.dumps(CONSTANT_ONLY)), "--n", "4",
                          "--method", "determinant")
    assert report["determinant"]["is_zero"] is True
    assert report["solutions"] == [] and report["exists"] is False
    assert report["notes"] == [
        "no degree-4 solution: the nullspace holds only solutions of degree 0"]
    assert code == 2


def coulomb_band_builds(monkeypatch, capsys, n: int):
    """``demo coulomb --n n`` with every band build that ``cli`` and
    ``applications`` make recorded as (degree, unknown or None)."""
    builds = []

    def counting(build):
        def wrapper(eq, n):
            builds.append((n, None if eq.is_numeric else eq.unknown))
            return build(eq, n)
        return wrapper

    from polyode import applications, cli
    for module in (applications, cli):
        monkeypatch.setattr(module, "build_criterion_matrix",
                            counting(module.build_criterion_matrix))
    code, report, _ = run(capsys, "demo", "coulomb", "--Z", "1", "--d", "3",
                          "--l", "0", "--n", str(n))
    assert code == 0
    return report, builds


def test_demo_coulomb_builds_each_band_once(monkeypatch, capsys):
    report, builds = coulomb_band_builds(monkeypatch, capsys, 1)
    assert report["beta_values"] == ["2"]
    assert report["solutions"][0]["verified"] and report["solutions"][0]["beta"] == "2"
    # one numeric band, for the solution at the one admissible shift; the
    # equation in beta is only substituted into
    assert builds == [(1, None)]


def test_demo_coulomb_without_a_rational_shift_builds_no_band(monkeypatch, capsys):
    # three irrational roots: no shift to solve at, so no band is built
    report, builds = coulomb_band_builds(monkeypatch, capsys, 3)
    assert len(report["roots"]["intervals"]) == 3 and report["beta_values"] == []
    assert builds == []


def test_every_parametric_report_builds_its_solutions_in_one_step(
        monkeypatch, eq_file, capsys):
    calls = []

    def recording(eq, n, values, notes):
        calls.append((eq.unknown, n, list(values)))
        return solutions_at(eq, n, values, notes)

    solutions_at = cli._solutions_at
    monkeypatch.setattr(cli, "_solutions_at", recording)
    named = json.dumps({"a3": ["3", "-2", "5", "0"], "a2": ["-4", "7", "0"],
                        "tau": ["-2", {"s": ["0", "1"]}], "unknown": "s"})
    cases = [
        (["constraints", eq_file(named), "--n", "2"], "s"),
        (["heun", "biconfluent", "--n", "0", "--params",
          '{"alpha": "2", "beta": "4", "gamma": "4", "delta": {"t": ["0", "1"]}}'], "t"),
        (["demo", "krylov", "--alpha", "1", "--n", "4"], "gamma"),
        (["demo", "chhajlany", "--p", "2", "--n", "1"], "alpha"),
        (["demo", "coulomb", "--n", "1"], "beta"),
    ]
    for argv, unknown in cases:
        calls.clear()
        code, report, _ = run(capsys, *argv, "--json")
        assert code == 0
        (name, n, values), = calls
        assert name == unknown and n == report["n"] and values
        assert [s[unknown] for s in report["solutions"]] == [str(v) for v in values]
        assert all(s["verified"] for s in report["solutions"])


def test_sweep_reports_no_index_below_the_degrees_cap():
    report = assert_sweep_matches_per_degree_oracles(BESSEL_DEGREE_6, 8, "both")
    found = [entry["aim"]["found_index"] for entry in report["sweep"]]
    assert default_iteration_cap(0) < 6 <= default_iteration_cap(1)
    assert found == [None] + [6] * 8
    assert report["degrees_with_solutions"] == [6]


@pytest.mark.parametrize("method", ["aim"])
def test_sweep_without_a_second_order_term_is_an_input_error(method):
    # no method lets the iteration criterion answer alone, whatever the
    # equation; ``both`` answers as ``determinant`` here
    equation = {"a3": ["0", "0", "0", "0"], "a2": ["1", "2", "3"], "tau": ["2", "1"]}
    code, report, err = check_sweep(equation, 4, method)
    assert code == 1
    assert report is None
    assert f"invalid choice: '{method}'" in err
    code, report, _ = check_sweep(equation, 4, "both")
    assert "needs a y'' term" in report["sweep"][0]["notes"][0]
    assert "aim" not in report["sweep"][0]


# x y' - 2y = 0: no y'' term, and the solution x^2
FIRST_ORDER = {"a3": ["0", "0", "0", "0"], "a2": ["0", "1", "0"], "tau": ["0", "2"]}


@pytest.mark.parametrize("degrees", [["--n", "2"], ["--max-n", "3"]],
                         ids=["--n", "--max-n"])
def test_first_order_equation_gets_the_determinant_answer(degrees, eq_file, capsys):
    path = eq_file(json.dumps(FIRST_ORDER))
    code, report, _ = run(capsys, "check", path, *degrees, "--json")
    determinant = run(capsys, "check", path, *degrees, "--method", "determinant")[1]
    assert code == 0
    entries = report.get("sweep", [report])
    assert any(s["polynomial"] == "x^2" and s["verified"]
               for entry in entries for s in entry["solutions"])
    # the default method answers as --method determinant, with one note more
    for entry, alone in zip(entries, determinant.get("sweep", [determinant])):
        note, *entry["notes"] = entry["notes"]
        assert "the iteration criterion needs a y'' term" in note
        entry.pop("timing_seconds"), alone.pop("timing_seconds")
    assert report == determinant


@pytest.mark.parametrize("equation", ONLY_SECOND_ORDER, ids=["y''", "x^3 y''"])
def test_without_a_first_or_zeroth_order_term_the_determinant_answers_alone(equation):
    # every lambda_n of AIM is zero, so its guard would reject every index:
    # ``both`` says so and answers as ``determinant``
    code, report, _ = check_sweep(equation, 4, "both")
    alone = check_sweep(equation, 4, "determinant")[1]
    assert code == 0 and report["degrees_with_solutions"] == [0, 1]
    for entry, single in zip(report["sweep"], alone["sweep"]):
        note, *entry["notes"] = entry["notes"]
        assert note.startswith(NO_LOWER_TERM) and "needs a y'' term" not in note
        assert note.endswith("so the determinant answers alone")
        entry.pop("timing_seconds"), single.pop("timing_seconds")
    assert report == alone


def test_check_malformed_json(eq_file, capsys):
    code, _, err = run(capsys, "check", eq_file("{oops"), "--n", "1")
    assert code == 1
    assert "line 1" in err and "column" in err


def test_a_malformed_exponent_is_quoted_whole(eq_file, capsys):
    bad = json.dumps({"a3": ["0", "1", "0", "0"], "a2": ["0", "5e-1/2", "1"],
                      "tau": ["0", "0"]})
    code, report, err = run(capsys, "check", eq_file(bad), "--n", "1")
    assert code == 1
    assert report is None
    assert "a2[1]: Invalid literal for Fraction: '5e-1/2'" in err


def test_check_undeclared_unknown(eq_file, capsys):
    bad = json.dumps(
        {"a3": ["0", "0", "0", "1"], "a2": ["0", "0", "0"],
         "tau": ["0", {"t": ["0", "1"]}]}
    )
    code, _, err = run(capsys, "check", eq_file(bad), "--n", "1")
    assert code == 1
    assert "unknown" in err


def test_check_parametric_needs_constraints(eq_file, capsys):
    code, _, err = run(capsys, "check", eq_file(KRYLOV_GAMMA_UNKNOWN), "--n", "1")
    assert code == 1
    assert "constraints" in err


def test_check_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(BESSEL6))
    code = main(["check", "-", "--n", "2", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert json.loads(captured.out)["exists"] is True


# ---------------------------------------------------------------------------
# constraints

def test_constraints_krylov_alpha1(eq_file, capsys):
    code, report, _ = run(
        capsys, "constraints", eq_file(KRYLOV_GAMMA_UNKNOWN), "--n", "1"
    )
    assert code == 0
    assert report["determinant"] == ["-1", "0", "1"]
    assert report["roots"]["exact"] == ["-1", "1"]
    assert len(report["solutions"]) == 2
    assert all(s["verified"] for s in report["solutions"])


def test_constraints_numeric_input_rejected(eq_file, capsys):
    code, _, err = run(capsys, "constraints", eq_file(BESSEL6), "--n", "2")
    assert code == 1
    assert "unknown" in err


def test_constraints_declared_but_unused_unknown_is_input_error(eq_file, capsys):
    eq = json.dumps(
        {
            "a3": ["0", "0", "0", "1"],
            "a2": ["0", "0", "0"],
            "tau": ["0", "1"],
            "unknown": "t",
        }
    )
    code, _, err = run(capsys, "constraints", eq_file(eq), "--n", "1")
    assert code == 1


def test_constraints_constant_determinant_exits_2(eq_file, capsys):
    # the unknown sits in the second superdiagonal slot, which never enters
    # the 2x2 determinant: constraint is the nonzero constant 25 - 4
    eq = json.dumps(
        {
            "a3": ["1", "0", "0", {"t": ["0", "1"]}],
            "a2": ["2", "0", "-2"],
            "tau": ["2", "-5"],
            "unknown": "t",
        }
    )
    code, report, _ = run(capsys, "constraints", eq_file(eq), "--n", "1")
    assert code == 2
    assert report["determinant"] == ["21"]
    assert report["roots"]["intervals"] == []
    assert report["exists"] is False


def test_constraints_identically_zero_determinant(eq_file, capsys):
    # x^2 y'' + (x + t) y' - y = 0 at n = 1: upper triangular matrix with a
    # vanishing corner, so the determinant is zero for every t
    eq = json.dumps(
        {
            "a3": ["0", "1", "0", "0"],
            "a2": ["0", "1", {"t": ["0", "1"]}],
            "tau": ["0", "1"],
            "unknown": "t",
        }
    )
    code, report, _ = run(capsys, "constraints", eq_file(eq), "--n", "1")
    assert code == 0
    assert report["determinant"] == []
    assert report["exists"] is True
    assert any("identically" in note for note in report["notes"])


def test_constraints_no_real_roots(eq_file, capsys):
    # x^2 y'' + x y' - (t) y: diagonal entries -t, 1-t: det has roots 0,1 -> pick
    # an equation with nonreal constraint roots instead: chhajlany with p = -1
    # at n=1 gives t^2 + 2 = 0
    eq = json.dumps(
        {
            "a3": ["0", "0", "0", "1"],
            "a2": ["-2", "0", "-1"],
            "tau": ["-2", {"t": ["0", "-1"]}],
            "unknown": "t",
        }
    )
    code, report, _ = run(capsys, "constraints", eq_file(eq), "--n", "1")
    assert code == 2
    assert report["roots"]["intervals"] == []
    assert report["roots"]["nonreal_count"] == 2


def test_constraints_skips_a_root_that_leaves_no_differential_part(eq_file, capsys):
    # t x^3 y'' = 0: the degree condition -2t at n = 2 pins t = 0, where the
    # equation is 0 = 0; the pin is named in a note, gets no solution and so
    # no "yes", and no root is reported
    eq = json.dumps({"a3": [{"t": ["0", "1"]}, "0", "0", "0"], "a2": ["0", "0", "0"],
                     "tau": ["0", "0"], "unknown": "t"})
    code, report, _ = run(capsys, "constraints", eq_file(eq), "--n", "2")
    assert report["degree_condition"]["required_value"] == "0"
    assert report["roots"]["exact"] == []
    assert report["solutions"] == []
    assert report["notes"] == ["t = 0 leaves no y'' or y' term; no solution there"]
    assert report["exists"] is False
    assert code == 2


@pytest.mark.parametrize("equation, n, solutions", [
    # x y'' + t y' = 0 has the solutions 1 and x^(1-t): the level -1
    # condition -4(3 + t) pins t = -3, where the basis is 1, x^4
    ({"a3": ["0", "0", "1", "0"], "a2": ["0", "0", {"t": ["0", "1"]}],
      "tau": ["0", "0"], "unknown": "t"}, 4, ["1", "x^4"]),
    # t y'' = 0: the level -2 condition -2t pins t = 0, which leaves no
    # y'' term
    ({"a3": ["0", "0", "0", {"t": ["0", "1"]}], "a2": ["0", "0", "0"],
      "tau": ["0", "0"], "unknown": "t"}, 2, []),
    # x + t solves x^2 y'' + (x + t) y' - y = 0 for every t
    ({"a3": ["0", "1", "0", "0"], "a2": ["0", "1", {"t": ["0", "1"]}],
      "tau": ["0", "1"], "unknown": "t"}, 1, ["x"]),
])
def test_a_vanishing_determinant_answers_yes_only_with_a_solution_at_zero(
        equation, n, solutions, eq_file, capsys):
    # the determinant vanishes for every t when a lower-degree solution
    # exists for every t, so it certifies nothing at degree n: only a
    # verified degree-n solution answers yes, at the value the degree
    # condition pins, or at t = 0 where it holds for every t, and then
    # other values stay undecided
    code, report, _ = run(capsys, "constraints", eq_file(json.dumps(equation)),
                          "--n", str(n))
    assert report["determinant"] == []
    value = report["degree_condition"].get("required_value", "0")
    assert [s["polynomial"] for s in report["solutions"]] == solutions
    assert all(s["t"] == value for s in report["solutions"])
    assert not solutions or report["solutions"][-1]["degree"] == n
    assert report["exists"] is bool(solutions)
    assert code == (0 if solutions else 2)
    [note] = report["notes"]
    assert "every parameter value works" not in note
    if report["degree_condition"]["polynomial"] == []:
        assert note.startswith("determinant vanishes identically;") and "undecided" in note


def test_constraints_round_trip_verification(eq_file, capsys):
    code, report, _ = run(
        capsys, "constraints", eq_file(KRYLOV_GAMMA_UNKNOWN), "--n", "1"
    )
    assert code == 0
    eq = EquationSpec.from_json_dict(report["equation"])
    for sol in report["solutions"]:
        fixed = eq.substitute(Fraction(sol["t"]))
        coeffs = [Fraction(c) for c in sol["coefficients"]]
        assert verify_solution(fixed, coeffs)


# ---------------------------------------------------------------------------
# demos

def test_demo_davidson(capsys):
    code, report, _ = run(capsys, "demo", "davidson", "--mu", "0", "--n", "2")
    assert code == 0
    assert report["eigenvalue"] == "11"
    assert report["solutions"][0]["coefficients"] == ["15", "0", "-20", "0", "4"]


def test_demo_coulomb(capsys):
    code, report, _ = run(
        capsys, "demo", "coulomb", "--Z", "1", "--d", "3", "--l", "0", "--n", "1"
    )
    assert code == 0
    assert report["alpha"] == "1/2"
    assert report["constraint"] == ["-1", "1"]
    assert report["beta_values"] == ["2"]
    assert report["energy"] == "-1/8"
    assert report["solutions"] and report["solutions"][0]["verified"]


def test_demo_hyper(capsys):
    code, report, _ = run(
        capsys, "demo", "hyper", "--m", "1", "--n", "1", "--l", "2",
        "--a", "1", "--b", "1",
    )
    assert code == 0
    assert report["verified"] is True
    assert report["coefficients"] == ["0", "0", "1", "1/4"]


def test_demo_krylov(capsys):
    code, report, _ = run(capsys, "demo", "krylov", "--alpha", "1", "--n", "1")
    assert code == 0
    assert report["beta"] == "-1"
    assert report["roots"]["exact"] == ["-1", "1"]


def test_demo_chhajlany(capsys):
    code, report, _ = run(capsys, "demo", "chhajlany", "--p", "2", "--n", "1")
    assert code == 0
    assert report["delta"] == "2"
    assert report["roots"]["exact"] == ["-2", "2"]
    assert len(report["solutions"]) == 2


def test_demo_bessel(capsys):
    code, report, _ = run(capsys, "demo", "bessel", "--n", "2")
    assert code == 0
    assert report["tau00"] == "6"
    assert report["ladder_solves_equation"] is True
    assert report["solutions"][0]["coefficients"] == ["1", "3", "3"]


def test_demo_hyper_default_l_is_readmes_example(capsys):
    # a bare ``demo hyper`` runs m = 1, n = 1, l = 2, a = b = 1
    code, report, _ = run(capsys, "demo", "hyper")
    assert code == 0
    assert (code, report) == run(capsys, "demo", "hyper", "--l", "2")[:2]


@pytest.mark.parametrize("flag, ceiling, degree", [
    ("--m", MAX_DEGREE, "2"),
    # the largest l whose l - 1 divides a degree up to MAX_DEGREE
    ("--l", MAX_DEGREE + 1, str(MAX_DEGREE)),
])
def test_demo_hyper_bounds_m_and_l_as_the_degree(flag, ceiling, degree, monkeypatch, capsys):
    code, report, _ = run(capsys, "demo", "hyper", "--n", degree, flag, str(ceiling))
    assert code == 0 and report["verified"] is True
    # past the ceiling nothing is built, however large the value
    monkeypatch.setattr(cli.apps, "hyper_build", None)
    for value in (ceiling + 1, 2 * 10**6):
        code, report, err = run(capsys, "demo", "hyper", "--n", degree, flag, str(value))
        assert code == 1 and report is None
        assert f"polyode: error: {flag} is at most {ceiling}, got {value}" in err


def test_demo_coulomb_takes_an_angular_momentum_past_the_hyper_ceiling(capsys):
    code, report, _ = run(capsys, "demo", "coulomb", "--n", "1", "--l", str(MAX_DEGREE + 10))
    assert code in (0, 2) and report["l"] == MAX_DEGREE + 10


def test_demo_unknown_name(capsys):
    code, _, err = run(capsys, "demo", "nosuch")
    assert code == 1
    assert "davidson" in err and "coulomb" in err


#: the options each case study reads, besides --json and --n
STUDY_OPTIONS = {
    "davidson": ["--mu", "--eps"],
    "coulomb": ["--Z", "--d", "--l"],
    "krylov": ["--alpha"],
    "chhajlany": ["--p"],
    "hyper": ["--m", "--l", "--a", "--b"],
    "bessel": ["--tau00"],
}
OTHER_OPTIONS = sorted({flag for flags in STUDY_OPTIONS.values() for flag in flags}
                       | {"--params", "--max-n", "--method", "--unknown", "--beta",
                          "--tolerance"})


@pytest.mark.parametrize("study, flag", [
    (study, flag) for study, flags in STUDY_OPTIONS.items()
    for flag in OTHER_OPTIONS if flag not in flags
])
def test_case_study_rejects_an_option_it_does_not_read(study, flag, capsys):
    # exact option names only: --m is not --mu, nor --a --alpha
    code, report, err = run(capsys, "demo", study, "--n", "1", flag, "2")
    assert code == 1
    assert report is None
    assert f"unrecognized arguments: {flag} 2" in err


@pytest.mark.parametrize("study", sorted(STUDY_OPTIONS))
def test_case_study_takes_each_of_its_options(study, capsys):
    values = {"--mu": "1/2", "--eps": "3", "--Z": "1", "--d": "3", "--l": "2",
              "--alpha": "2", "--p": "2", "--m": "1",
              "--a": "1", "--b": "1", "--tau00": "6"}
    argv = ["demo", study, "--n", "1", "--json"]
    for flag in STUDY_OPTIONS[study]:
        argv += [flag, values[flag]]
    code, report, err = run(capsys, *argv)
    assert code in (0, 2), err
    assert report["name"] == study


@pytest.mark.parametrize("value", ["-1/2", "-5e-1"])
@pytest.mark.parametrize("study, flag", [
    (study, flag) for study, flags in STUDY_OPTIONS.items() for flag in flags
    if flag not in ("--d", "--l", "--m")
])
def test_a_rational_option_takes_a_negative_fraction_or_exponent(
        study, flag, value, capsys):
    # argparse alone takes "-1/2" and "-5e-1" for options, not values; each
    # must reach its case study, as "--flag=-1/2" always did
    def outcome(*option):
        code, report, err = run(capsys, "demo", study, "--n", "1", *option, "--json")
        if report is not None:
            report.pop("timing_seconds", None)
        return code, report, err

    code, report, err = outcome(flag, value)
    assert "expected one argument" not in err
    assert (code, report, err) == outcome(f"{flag}=-1/2")
    if flag == "--Z":
        assert code == 1 and "charge Z must be positive" in err
    else:
        assert code in (0, 2), err


@pytest.mark.parametrize("family", ["confluent", "biconfluent", "general"])
def test_the_heun_demo_aliases_are_gone(family, capsys):
    code, report, err = run(capsys, "demo", f"heun-{family}", "--params", "{}",
                            "--n", "0")
    assert code == 1
    assert report is None
    assert "invalid choice" in err


def test_demo_max_n_is_a_usage_error(capsys):
    # no demo sweeps degrees, so the flag is not accepted
    code, report, err = run(capsys, "demo", "davidson", "--max-n", "5")
    assert code == 1
    assert report is None
    assert "usage:" in err and "unrecognized arguments: --max-n 5" in err


def test_demo_beta_is_a_usage_error(capsys):
    # each Coulomb solution takes its own shift beta = root / alpha
    code, report, err = run(capsys, "demo", "coulomb", "--beta", "2")
    assert code == 1
    assert report is None
    assert "usage:" in err and "unrecognized arguments: --beta 2" in err


# ---------------------------------------------------------------------------
# heun command

def test_heun_biconfluent(capsys):
    params = json.dumps(
        {"alpha": "2", "beta": "4", "gamma": "4", "delta": {"t": ["0", "1"]}}
    )
    code, report, _ = run(
        capsys, "heun", "biconfluent", "--params", params, "--n", "0"
    )
    assert code == 0
    assert report["roots"]["exact"] == ["-12"]  # delta = -(alpha+1) beta


def test_heun_confluent_numeric(capsys):
    params = json.dumps(
        {"alpha": "1", "beta": "1", "gamma": "2", "mu": "0", "nu": "-1"}
    )
    code, report, _ = run(capsys, "heun", "confluent", "--params", params, "--n", "1")
    assert code == 0
    assert report["exists"] is True


def test_heun_general_fuchsian_violation(capsys):
    params = json.dumps(
        {"a": "2", "alpha": "1", "beta": "1", "gamma": "1", "delta": "1",
         "epsilon": "2", "q": "0"}
    )
    code, _, err = run(capsys, "heun", "general", "--params", params, "--n", "1")
    assert code == 1
    assert "residual" in err


def test_heun_biconfluent_names_a_product_that_leaves_the_linear_unknown(capsys):
    # alpha = beta = t makes (alpha + 1) beta = t^2 + t in the y coefficient
    params = json.dumps({"alpha": {"t": ["0", "1"]}, "beta": {"t": ["0", "1"]},
                         "gamma": "1", "delta": "0"})
    code, report, err = run(capsys, "heun", "biconfluent", "--params", params, "--n", "1")
    assert code == 1
    assert report is None
    assert "(alpha + 1) * beta must stay linear in the unknown" in err
    assert "UPoly(" not in err and "Fraction(" not in err


def test_heun_rejects_float_params(capsys):
    params = json.dumps({"alpha": 0.5, "beta": "1", "gamma": "1", "delta": "1"})
    code, _, err = run(capsys, "heun", "biconfluent", "--params", params, "--n", "0")
    assert code == 1
    assert "exact strings" in err


# ---------------------------------------------------------------------------
# argument handling

def test_bad_flag_exits_1(capsys):
    assert main(["check", "nothere.json"]) == 1  # missing --n and file
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--tolerance", "1/3"], ["--unknown", "t"]])
def test_check_takes_no_tolerance_or_unknown(flag, eq_file, capsys):
    # check refines no roots and rejects every equation with an unknown
    code, report, err = run(capsys, "check", eq_file(BESSEL6), "--n", "2", *flag)
    assert code == 1
    assert report is None
    assert f"unrecognized arguments: {flag[0]}" in err


@pytest.mark.parametrize("argv", [
    ["constraints", "KRYLOV", "--n", "1"],
    ["heun", "biconfluent", "--n", "0", "--params",
     '{"alpha": "2", "beta": "4", "gamma": "4", "delta": {"t": ["0", "1"]}}'],
])
def test_root_reports_take_no_tolerance(argv, eq_file, capsys):
    # every refined root is the float nearest it, which nothing can set; the
    # case studies are covered by the options table's tests
    argv = [eq_file(KRYLOV_GAMMA_UNKNOWN) if a == "KRYLOV" else a for a in argv]
    code, report, err = run(capsys, *argv, "--tolerance", "1/3")
    assert code == 1
    assert report is None
    assert "unrecognized arguments: --tolerance 1/3" in err


@pytest.mark.parametrize("argv, equation", [
    (["demo", "krylov", "--alpha", "1e400", "--n", "2"], None),
    (["constraints", "EQ", "--n", "0"],
     {"a3": ["0", "0", "0", "1"], "a2": ["0", "0", "0"],
      "tau": ["0", {"t": ["-1e400", "1"]}], "unknown": "t"}),
])
def test_a_root_past_the_largest_float_refines_to_null(argv, equation, eq_file,
                                                       capsys):
    # such a root has no nearest float; its interval and exact value are
    # still reported, and the report exits as usual
    if equation is not None:
        argv = [eq_file(json.dumps(equation)) if a == "EQ" else a for a in argv]
    code, report, err = run(capsys, *argv)
    assert code == 0
    assert "Traceback" not in err
    roots = report["roots"]
    big = [i for i, value in enumerate(roots["roots"]) if value is None]
    assert big
    for i in big:
        lo, hi = map(Fraction, roots["intervals"][i])
        assert max(abs(lo), abs(hi)) > 10**308
    assert all(any(Fraction(lo) < Fraction(r) <= Fraction(hi)
                   for lo, hi in roots["intervals"]) for r in roots["exact"])
    if equation is not None:
        assert roots["exact"] == ["1" + "0" * 400]


def test_the_summary_writes_the_refined_roots_as_json(capsys):
    # a root past the largest float is null on stderr, as in the report
    code, report, err = run(capsys, "demo", "krylov", "--alpha", "1e400", "--n", "2")
    assert report["roots"]["roots"] == [None, 0.0, None]
    assert "parameter roots: [null, 0.0, null]\n" in err


def test_the_summary_writes_booleans_as_json(capsys):
    # as the report does: true, not Python's True
    code, report, err = run(capsys, "demo", "krylov", "--alpha", "-1/2", "--n", "2")
    assert code == 0 and report["solutions"][0]["verified"] is True
    assert "solution: x^2 + 1 (verified=true)\n" in err
    assert "exists: true\n" in err
    assert "True" not in err


def test_constraints_takes_no_unknown(eq_file, capsys):
    # the equation's own "unknown" field names the unknown
    code, report, err = run(capsys, "constraints", eq_file(KRYLOV_GAMMA_UNKNOWN),
                            "--n", "1", "--unknown", "t")
    assert code == 1
    assert report is None
    assert "unrecognized arguments: --unknown t" in err


@pytest.mark.parametrize("flags", [[], ["--n", "1", "--max-n", "3"]])
def test_check_takes_exactly_one_of_n_and_max_n(flags, eq_file, capsys):
    code, report, err = run(capsys, "check", eq_file(BESSEL6), *flags)
    assert code == 1
    assert report is None
    assert "usage:" in err and "--max-n" in err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_stdout_is_one_compact_json_line(eq_file, capsys):
    code = main(["check", eq_file(BESSEL6), "--n", "2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_cli_examples():
    """The files that the heredocs of the README's ``sh`` blocks write, and
    the arguments of every ``polyode`` line there, continuations joined and
    any pipe dropped."""
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"```sh\n(.*?)```", handle.read(), re.S)
    files, commands = {}, []
    for block in blocks:
        lines = iter(block.replace("\\\n", " ").splitlines())
        for line in lines:
            heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
            if heredoc:
                body = []
                for inner in lines:
                    if inner == "EOF":
                        break
                    body.append(inner)
                files[heredoc[1]] = "\n".join(body)
            elif line.startswith("polyode "):
                commands.append(shlex.split(line.split(" | ")[0], comments=True)[1:])
    return files, commands


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    files, commands = readme_cli_examples()
    assert sorted(files) == ["bessel.json", "krylov.json"]
    assert len(commands) >= 12
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 2), argv
        assert out.count("\n") == 1 and isinstance(json.loads(out), dict), argv


def readme_case_study_options():
    """Each case study's row of the README's options table: its flags, and
    the documented default of each flag that shows one."""
    with open(README, encoding="utf-8") as handle:
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", handle.read(), re.M)
    return {name: re.findall(r"`(--\w+)(?: ([^`]+))?`", cell) for name, cell in rows}


def test_readme_lists_each_case_studys_options_and_defaults(capsys):
    table = readme_case_study_options()
    assert {name: [flag for flag, _ in options] for name, options in table.items()} \
        == STUDY_OPTIONS

    def untimed(*argv):
        code, report, _ = run(capsys, "demo", *argv, "--n", "2")
        report.pop("timing_seconds", None)
        return code, report

    for name, options in table.items():
        for flag, default in options:
            if default:
                assert untimed(name, flag, default) == untimed(name)


def readme_library_block():
    """The source of the README's Python block."""
    with open(README, encoding="utf-8") as handle:
        return re.search(r"^## Library\n\n```python\n(.*?)```", handle.read(),
                         re.S | re.M)[1]


def test_readme_library_prints_what_its_comments_say():
    # each ``print(...)  # comment`` line must print a prefix of its comment
    source = readme_library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
        line = lines[statement.end_lineno - 1]
        call = getattr(statement, "value", None)
        if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print"
                and "  # " in line):
            comment = line.split("  # ", 1)[1].strip()
            assert comment.startswith(out.getvalue().strip()), line
            checked += 1
    assert checked >= 9


@pytest.mark.parametrize("argv", [
    ["check", "EQ", "--n", "-1"],
    ["check", "EQ", "--max-n", "-1"],
    ["demo", "davidson", "--n", "-1"],
    ["demo", "krylov", "--n", "-1"],
    ["demo", "krylov", "--n", "0"],
    ["demo", "coulomb", "--n", "1", "--Z", "0"],
    ["demo", "coulomb", "--n", "1", "--Z", "-1"],
])
def test_out_of_range_numbers_are_input_errors(argv, eq_file, capsys):
    argv = [eq_file(BESSEL6) if a == "EQ" else a for a in argv]
    code, report, err = run(capsys, *argv)
    assert code == 1
    assert report is None
    assert "polyode: error:" in err and "Traceback" not in err


def test_the_degree_ceiling_covers_every_documented_degree():
    # degree 25 is the largest that the tests, the benchmark workloads and
    # the README ask of the command line
    assert MAX_DEGREE >= 25


@pytest.mark.parametrize("argv", [
    ["check", "EQ", "--n"],
    ["check", "EQ", "--max-n"],
    ["constraints", "KRYLOV", "--n"],
    ["demo", "davidson", "--n"],
    ["demo", "coulomb", "--n"],
    ["heun", "confluent", "--params",
     '{"alpha": 1, "beta": 0, "gamma": 0, "mu": 0, "nu": -1}', "--n"],
])
def test_degrees_above_the_ceiling_are_input_errors(argv, eq_file, capsys):
    files = {"EQ": BESSEL6, "KRYLOV": KRYLOV_GAMMA_UNKNOWN}
    argv = [eq_file(files[a]) if a in files else a for a in argv]
    code, report, err = run(capsys, *argv, str(MAX_DEGREE + 1))
    assert code == 1
    assert report is None
    assert f"is at most {MAX_DEGREE}, got {MAX_DEGREE + 1}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--n", "--max-n"])
def test_the_ceiling_itself_is_accepted(flag, eq_file, capsys):
    code, report, _ = run(capsys, "check", eq_file(BESSEL6), flag, str(MAX_DEGREE),
                          "--method", "determinant")
    assert code == (0 if flag == "--max-n" else 2)
    assert report is not None


@pytest.mark.parametrize("command, text", [
    ("check", "[]"),
    ("check", "null"),
    ("check", json.dumps({"a3": ["1/0", "1", "0", "0"], "a2": ["0", "2", "2"],
                          "tau": ["0", "6"]})),
    ("check", json.dumps({"a3": "0123", "a2": ["0", "2", "2"],
                          "tau": ["0", "6"]})),
    ("constraints", json.dumps({"a3": ["0", "1", "0", "0"], "a2": ["0", "2", "2"],
                                "tau": ["0", {"t": "12"}], "unknown": "t"})),
    pytest.param("check", json.dumps({"a3": ["0", 6.0, "0", "0"], "a2": ["0", "2", "2"],
                                      "tau": ["0", "6"]}), id="check-float"),
    pytest.param("constraints", json.dumps({"a3": ["0", "1", "0", "0"], "a2": ["0", "2", "2"],
                                            "tau": ["0", {"": ["0", "1"]}], "unknown": ""}),
                 id="constraints-empty-unknown"),
    pytest.param("check", json.dumps({"a3": ["0", "1", "0", "0"], "a2": ["0", "2", "2"],
                                      "tau": ["0", "6"], "unknown": 7}), id="check-unknown-7"),
])
def test_malformed_equation_shapes_are_input_errors(command, text, eq_file, capsys):
    code, report, err = run(capsys, command, eq_file(text), "--n", "1")
    assert code == 1
    assert report is None
    assert "polyode: error:" in err and "Traceback" not in err


def scalar_inputs(scalar):
    """An equation file's text holding ``scalar`` as t11, and a ``heun
    biconfluent --params`` text holding it as delta."""
    equation = {"a3": ["0", "1", "0", "0"], "a2": ["0", "2", "2"],
                "tau": ["0", scalar], "unknown": "t"}
    params = {"alpha": "2", "beta": "4", "gamma": "4", "delta": scalar}
    return json.dumps(equation), json.dumps(params)


@pytest.mark.parametrize("scalar, value", [
    (0, UPoly()),
    (-12, UPoly([-12])),
    ("-3/4", UPoly([Fraction(-3, 4)])),
    ("1.5e-3", UPoly([Fraction(3, 2000)])),
    ([1, -2], UPoly([1, -2])),
    (["1/2", 3], UPoly([Fraction(1, 2), 3])),
    ({"t": ["0", "1"]}, UPoly([0, 1])),
    ({"t": [5]}, UPoly([5])),
])
def test_files_and_params_read_each_scalar_form_alike(scalar, value, eq_file):
    # one reader serves both inputs, so each form means the same in each
    text, params = scalar_inputs(scalar)
    from_file = cli._parse_equation(cli._read_input(eq_file(text)))
    args = build_parser().parse_args(["heun", "biconfluent", "--params", params,
                                      "--n", "0"])
    from_params = cli._params_dict(args)
    assert from_file.tau[1] == from_params["delta"] == value
    assert biconfluent_to_spec(**from_params) == biconfluent_to_spec(
        alpha=2, beta=4, gamma=4, delta=from_file.tau[1])


def test_params_scalar_shape_is_input_error(eq_file, capsys):
    # every shape that is not an integer, an exact string or [c0, c1] (bare
    # or under the unknown's name) exits 1 from an equation file and from
    # --params alike, and the message names where it is
    for scalar in (0.5, 6.0, True, None, [["1", "2"]], [{"t": ["1"]}], ["1", 0.5],
                   {"t": "12"}, {"t": True}, ["1", "2", "3"], ["1", "2", "0"],
                   {"s": ["0", "1"]}, {"t": ["0", "1"], "s": ["1"]}, {}):
        text, params = scalar_inputs(scalar)
        for argv, where in (
                (["constraints", eq_file(text), "--n", "1"], "tau[1]"),
                (["heun", "biconfluent", "--params", params, "--n", "0"],
                 "params['delta']")):
            code, report, err = run(capsys, *argv)
            assert code == 1, (scalar, argv[0])
            assert report is None
            assert f"polyode: error: {where}: " in err, (scalar, argv[0])
            assert "Traceback" not in err


DEEP = "[" * 2000 + "]" * 2000


@pytest.mark.parametrize("argv, data", [
    (["check", "EQ", "--n", "1"], b"\xff\xfe"),
    (["check", "EQ", "--n", "1"], ('{"a3": ' + DEEP + "}").encode()),
    (["heun", "biconfluent", "--n", "0", "--params", '{"delta": ' + DEEP + "}"], None),
], ids=["file-not-utf8", "file-deeply-nested", "params-deeply-nested"])
def test_unreadable_or_deeply_nested_input_exits_1(argv, data, tmp_path, capsys):
    # a file that is not UTF-8, and JSON nested past the interpreter's
    # recursion limit, are input errors both in process and from the shell
    path = tmp_path / "eq.json"
    if data is not None:
        path.write_bytes(data)
    argv = [str(path) if a == "EQ" else a for a in argv]
    code, report, err = run(capsys, *argv)
    assert (code, report) == (1, None)
    assert "polyode: error:" in err and "Traceback" not in err
    proc = subprocess.run(
        [sys.executable, "-m", "polyode.cli", *argv], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(os.path.abspath(cli.__file__)))})
    assert proc.returncode == 1 and proc.stdout == ""
    assert "polyode: error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, text", [
    (["check", "EQ", "--n", "2"],
     json.dumps({"a3": ["0", "1e3000000", "0", "0"], "a2": ["0", "2", "2"],
                 "tau": ["0", "6"]})),
    (["check", "EQ", "--n", "2"],
     '{"a3": [1' + "0" * 5000 + ', "1", "0", "0"], "a2": ["0", "2", "2"],'
     ' "tau": ["0", "6"]}'),
    (["demo", "krylov", "--n", "2", "--alpha", "1e9999"], None),
    (["heun", "biconfluent", "--n", "0", "--params",
      json.dumps({"alpha": "1e-9999", "beta": "4", "gamma": "4", "delta": "1"})],
     None),
    (["heun", "biconfluent", "--n", "0", "--params",
      '{"alpha": 1' + "0" * 5000 + ', "beta": "4", "gamma": "4", "delta": "1"}'],
     None),
])
def test_rationals_past_the_digit_limit_exit_1_promptly(argv, text, eq_file, capsys):
    argv = [eq_file(text) if a == "EQ" else a for a in argv]
    start = time.perf_counter()
    code, report, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert report is None
    assert "error:" in err and "4300 digits" in err  # argparse names the subcommand


@contextlib.contextmanager
def unlimited_int_strings():
    """Lift the interpreter's limit on int <-> str conversion, as ``main``
    does while it computes and writes a report."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def hundred_digit(i: int) -> str:
    return f"{10**99 + 7 * i + 1}/{10**99 + 3 * i + 2}"


@pytest.mark.parametrize("argv, equation, exit_code", [
    # every coefficient is inside the input limit, but the determinant is
    # not
    (["check", "EQ", "--n", "3", "--method", "determinant"],
     {"a3": ["0", "1" + "0" * 4000, "1", "0"], "a2": ["0", "1", "1"],
      "tau": ["0", "3"]}, 2),
    # nine 100-digit rationals, one of them times the unknown: a
    # determinant coefficient of about 12 300 digits, and no real root
    (["constraints", "EQ", "--n", "10"],
     {"a3": [hundred_digit(i) for i in range(4)],
      "a2": [hundred_digit(i) for i in range(4, 7)],
      "tau": [hundred_digit(7), {"t": ["0", hundred_digit(8)]}], "unknown": "t"}, 2),
])
def test_a_report_value_past_the_digit_limit_is_written(argv, equation, exit_code,
                                                        eq_file, capsys):
    # the limit bounds input only; the answer is written in full, and the
    # interpreter's limit is back in place afterwards
    limit = sys.get_int_max_str_digits()
    code, report, err = run(capsys, *[eq_file(json.dumps(equation)) if a == "EQ" else a
                                      for a in argv])
    assert code == exit_code and report["exists"] is False
    assert "error" not in err
    assert sys.get_int_max_str_digits() == limit
    eq = EquationSpec.from_json_dict(equation)
    with unlimited_int_strings():
        if argv[0] == "check":
            det, = build_criterion_matrix(eq, 3).leading_minors([4])
            assert report["determinant"]["coefficients"] == [str(det)]
            assert len(str(det)) > MAX_DIGITS
        else:
            det = delta_determinant(eq, 10)
            assert report["determinant"] == det.to_strings()
            assert max(map(len, det.to_strings())) > MAX_DIGITS


@pytest.mark.parametrize("text", [
    # a million-digit exponent, which takes seconds to convert
    json.dumps({"a3": ["0", "1e" + "1" * 10**6, "0", "0"], "a2": ["0", "2", "2"],
                "tau": ["0", "6"]}),
    '{"a3": ["0", "1", "0", "0"], "a2": ["0", "2", "2"], "tau": ["0", -6' + "0" * 4300 + "]}",
], ids=["million-digit-exponent", "integer-literal"])
def test_input_stays_bounded_while_the_conversion_limit_is_lifted(text, eq_file, capsys):
    start = time.perf_counter()
    code, report, err = run(capsys, "check", eq_file(text), "--n", "2")
    assert time.perf_counter() - start < 1
    assert code == 1 and report is None
    assert "4300 digits" in err


def test_other_value_errors_are_not_reported_as_input_errors(monkeypatch, eq_file):
    from polyode import cli

    def broken(eq, n, method):
        raise ValueError("a defect")

    monkeypatch.setattr(cli, "analyze_check", broken)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError, match="a defect"):
        main(["check", eq_file(BESSEL6), "--n", "2"])
    assert sys.get_int_max_str_digits() == limit
