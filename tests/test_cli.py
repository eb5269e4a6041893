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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyode.aim import aim_test_polynomial, default_iteration_cap
from polyode.cli import MAX_DEGREE, build_parser, main
from polyode.criteria import (
    EquationSpec,
    build_criterion_matrix,
    rational_nullspace,
    verify_solution,
)
from polyode.exactalg import bareiss_determinant

from bandforms import entries, primitive_vector

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
    assert "exists: True" in err


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
    code, report, _ = run(
        capsys, "check", eq_file(BESSEL6), "--n", "2", "--method", "aim"
    )
    assert code == 0
    assert report["aim"]["found_index"] == 2
    assert report["solutions"] == []


def test_check_sweep(eq_file, capsys):
    code, report, _ = run(
        capsys, "check", eq_file(BESSEL6), "--max-n", "4", "--method", "determinant"
    )
    assert code == 0
    assert report["degrees_with_solutions"] == [2]


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
    that degree alone: AIM to the degree's own cap, the Bareiss determinant
    of the dense degree-n matrix (its rational entries) and its Gauss-Jordan
    nullspace."""
    code, report, _ = check_sweep(equation, max_n, method)
    eq = EquationSpec.from_json_dict(equation)
    assert [entry["n"] for entry in report["sweep"]] == list(range(max_n + 1))
    degrees = []
    for n, entry in enumerate(report["sweep"]):
        index = None
        if method == "determinant":
            assert "aim" not in entry
        else:
            cap = default_iteration_cap(n)
            index = aim_test_polynomial(eq, cap)
            assert entry["aim"] == {"found_index": index, "cap": cap}
        expected = []
        if method == "aim":
            assert "determinant" not in entry
        else:
            rows = entries(build_criterion_matrix(eq, n))
            det = bareiss_determinant(rows)
            assert entry["determinant"] == {
                "coefficients": [str(det)] if det else [], "is_zero": det == 0}
            if entry["degree_condition"]["holds"] and det == 0:
                expected = [[str(c) for c in primitive_vector(v)]
                            for v in rational_nullspace(rows)]
        assert [s["coefficients"] for s in entry["solutions"]] == expected
        exists = index is not None if method == "aim" else bool(expected)
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
@given(cubic_equations(), st.integers(0, 5),
       st.sampled_from(["both", "aim", "determinant"]))
@example(BESSEL_DEGREE_6, 8, "both")
@example(BESSEL_DEGREE_6, 8, "aim")
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
    # one band in beta, checked against its closed forms, then one numeric
    # band for the solution at the one admissible shift
    assert builds == [(1, "beta"), (1, None)]


def test_demo_coulomb_without_a_rational_shift_builds_no_band(monkeypatch, capsys):
    # three irrational roots: the band in beta is neither built nor checked
    report, builds = coulomb_band_builds(monkeypatch, capsys, 3)
    assert len(report["roots"]["intervals"]) == 3 and report["beta_values"] == []
    assert builds == []


def test_every_parametric_report_builds_its_solutions_in_one_step(
        monkeypatch, eq_file, capsys):
    from polyode import cli
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
    equation = {"a3": ["0", "0", "0", "0"], "a2": ["1", "2", "3"], "tau": ["2", "1"]}
    code, report, err = check_sweep(equation, 4, method)
    assert code == 1
    assert report is None
    assert "polyode: error: y'' coefficient is identically zero" in err


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


def test_check_malformed_json(eq_file, capsys):
    code, _, err = run(capsys, "check", eq_file("{oops"), "--n", "1")
    assert code == 1
    assert "line 1" in err and "column" in err


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
    # equation is 0 = 0; that root is reported, named in a note, and gets no
    # solution, and the exit code still follows "exists"
    eq = json.dumps({"a3": [{"t": ["0", "1"]}, "0", "0", "0"], "a2": ["0", "0", "0"],
                     "tau": ["0", "0"], "unknown": "t"})
    code, report, _ = run(capsys, "constraints", eq_file(eq), "--n", "2")
    assert report["degree_condition"]["required_value"] == "0"
    assert report["roots"]["exact"] == ["0"]
    assert report["solutions"] == []
    assert "t = 0 leaves no y'' or y' term; no solution there" in report["notes"]
    assert report["exists"] is True
    assert code == 0


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


def test_demo_unknown_name(capsys):
    code, _, err = run(capsys, "demo", "nosuch")
    assert code == 1
    assert "davidson" in err and "coulomb" in err


#: the options each case study reads, besides --json and --n
STUDY_OPTIONS = {
    "davidson": ["--mu", "--eps"],
    "coulomb": ["--Z", "--d", "--l", "--tolerance"],
    "krylov": ["--alpha", "--tolerance"],
    "chhajlany": ["--p", "--tolerance"],
    "hyper": ["--m", "--l", "--a", "--b"],
    "bessel": ["--tau00"],
}
OTHER_OPTIONS = sorted({flag for flags in STUDY_OPTIONS.values() for flag in flags}
                       | {"--params", "--max-n", "--method", "--unknown", "--beta"})


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
              "--tolerance": "1/1000", "--alpha": "2", "--p": "2", "--m": "1",
              "--a": "1", "--b": "1", "--tau00": "6"}
    argv = ["demo", study, "--n", "1", "--json"]
    for flag in STUDY_OPTIONS[study]:
        argv += [flag, values[flag]]
    code, report, err = run(capsys, *argv)
    assert code in (0, 2), err
    assert report["name"] == study


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
])
def test_malformed_equation_shapes_are_input_errors(command, text, eq_file, capsys):
    code, report, err = run(capsys, command, eq_file(text), "--n", "1")
    assert code == 1
    assert report is None
    assert "polyode: error:" in err


def test_params_scalar_shape_is_input_error(capsys):
    # a --params scalar is an int, an exact string, or a list of those,
    # bare or under the key "t"
    for delta in ({"t": True}, {"t": "12"}, {"s": ["0", "1"]},
                  {"t": ["0", "1"], "s": ["1"]}, [["1", "2"]], [{"t": ["1"]}],
                  ["1", 0.5], None):
        params = json.dumps({"alpha": "2", "beta": "4", "gamma": "4", "delta": delta})
        code, report, err = run(capsys, "heun", "biconfluent", "--params", params,
                                "--n", "0")
        assert code == 1, delta
        assert report is None
        assert "polyode: error: params['delta']" in err, delta


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


def test_report_value_past_the_digit_limit_exits_1(eq_file, capsys):
    # every coefficient is inside the input limit, but the determinant is
    # not, so the report cannot be written out
    big = "1" + "0" * 4000
    text = json.dumps({"a3": ["0", big, "1", "0"], "a2": ["0", "1", "1"],
                       "tau": ["0", "3"]})
    code, report, err = run(capsys, "check", eq_file(text), "--n", "3",
                            "--method", "determinant")
    assert code == 1
    assert report is None
    assert "polyode: error:" in err and "4300 digits" in err


def test_other_value_errors_are_not_reported_as_input_errors(monkeypatch, eq_file):
    from polyode import cli

    def broken(eq, n, method):
        raise ValueError("a defect")

    monkeypatch.setattr(cli, "analyze_check", broken)
    with pytest.raises(ValueError, match="a defect"):
        main(["check", eq_file(BESSEL6), "--n", "2"])


@pytest.mark.parametrize("tolerance", ["0", "-1/2"])
def test_nonpositive_tolerance_exits_1_promptly(tolerance):
    # run in a child process: the unfixed program bisects forever
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "polyode.cli", "demo", "krylov", "--alpha", "3",
         "--n", "2", f"--tolerance={tolerance}"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "polyode: error: --tolerance must be positive" in proc.stderr
