"""Golden outputs: fixed command lines whose JSON report (without
``timing_seconds``) and exit code must not change.

The cases cover the kinds of band the numeric path meets (upper-triangular,
zero diagonal, nonzero subdiagonal, rational coefficients, nullity two),
a first-order equation, and the parametric reports.  Each case's expected output is a file under
``tests/golden``; after a deliberate change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from polyode.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

BESSEL_24 = {"a3": ["0", "1", "0", "0"], "a2": ["0", "2", "2"], "tau": ["0", "600"]}
# Davidson at mu = 1/4, degree 6: a zero diagonal, and D = 2
DAVIDSON_QUARTER = {"a3": ["0", "0", "1", "0"], "a2": ["-2", "0", "5/2"],
                    "tau": ["-12", "0"]}
# Euler equation x^2 y'' - 3 x y' + 3 y = 0: solutions x and x^3
EULER_1_3 = {"a3": ["0", "1", "0", "0"], "a2": ["0", "-3", "0"], "tau": ["0", "-3"]}
# x y' - 2y = 0, first order: AIM cannot run, the determinant finds x^2
FIRST_ORDER = {"a3": ["0", "0", "0", "0"], "a2": ["0", "1", "0"], "tau": ["0", "2"]}
DENSE_CUBIC = {"a3": ["3", "-2", "5", "1"], "a2": ["-4", "7", "2"], "tau": ["-2", "3"]}
# the dense cubic with t11 = t, the degree condition holding at n = 2, and
# a22 = a33 = 0, which makes t = 0 a rational root
PARAMETRIC_CUBIC = {"a3": ["3", "-2", "5", "0"], "a2": ["-4", "7", "0"],
                    "tau": ["-2", {"t": ["0", "1"]}], "unknown": "t"}
# determinant (t - 1)^2 at n = 1: the root report takes the repeated-root
# branch, where the square-free part differs from the constraint
REPEATED_ROOT = {"a3": ["0", "1", "0", "0"], "a2": ["1", "2", "1"],
                 "tau": ["1", {"t": ["0", "1"]}], "unknown": "t"}
# determinant 27t^3 - 126t^2 + 84t + 80 at n = 2: three irrational roots and
# L = 27, so at tolerance 1/3 the refined cell is coarser than the cell of
# the exact-root test
COARSE = {"a3": ["0", "1", "-1", "0"], "a2": ["-2", "4", "2"],
          "tau": ["-4", {"t": ["0", "3"]}], "unknown": "t"}
# degree condition t - 15625/2^18 at n = 1, with a determinant that vanishes
# identically: its root -10^6 + (2^24 + 1) 2 10^6 / 2^25 is a grid point of
# level 25 of the search range (-10^6, 10^6], two levels finer than the
# refined cell that tolerance 1/3 asks for
GRID_ROOT = {"a3": ["0", "1", "0", "0"], "a2": ["15625/262144", "1", "0"],
             "tau": [{"t": ["0", "1"]}, "0"], "unknown": "t"}
HEUN_GENERAL = json.dumps({"a": 2, "alpha": -3, "beta": 1, "gamma": 0,
                           "delta": 1, "epsilon": -2, "q": 0})
HEUN_GENERAL_Q = json.dumps({"a": 2, "alpha": -3, "beta": 1, "gamma": 1,
                             "delta": 1, "epsilon": -3, "q": {"t": ["0", "1"]}})

# name -> (argv, equation written to the file that "{file}" stands for)
CASES = {
    "bessel-n24": (["check", "{file}", "--n", "24"], BESSEL_24),
    "bessel-n24-wrong-degree": (
        ["check", "{file}", "--n", "23", "--method", "determinant"], BESSEL_24),
    "davidson-zero-diagonal": (
        ["check", "{file}", "--n", "6", "--method", "determinant"], DAVIDSON_QUARTER),
    "demo-davidson": (["demo", "davidson", "--mu", "1/2", "--n", "3"], None),
    "heun-general": (["heun", "general", "--params", HEUN_GENERAL, "--n", "3"], None),
    "heun-general-q": (["heun", "general", "--params", HEUN_GENERAL_Q, "--n", "3"], None),
    "nullity-two-whole-basis": (["check", "{file}", "--n", "3"], EULER_1_3),
    "sweep-dense-cubic": (["check", "{file}", "--max-n", "5"], DENSE_CUBIC),
    "first-order-both": (["check", "{file}", "--n", "2"], FIRST_ORDER),
    "constraints-rational-roots": (["constraints", "{file}", "--n", "2"], PARAMETRIC_CUBIC),
    "constraints-repeated-root": (["constraints", "{file}", "--n", "1"], REPEATED_ROOT),
    "constraints-coarse-tolerance": (
        ["constraints", "{file}", "--n", "2", "--tolerance", "1/3"], COARSE),
    "constraints-root-on-the-grid": (
        ["constraints", "{file}", "--n", "1", "--tolerance", "1/3"], GRID_ROOT),
    "demo-krylov": (["demo", "krylov", "--alpha", "1", "--n", "4"], None),
    "demo-chhajlany": (["demo", "chhajlany", "--p", "2", "--n", "3"], None),
    "demo-coulomb": (["demo", "coulomb", "--Z", "1", "--d", "3", "--l", "0", "--n", "3"],
                     None),
    # the rational root t = 1 gives the shift beta = 2 and a verified solution
    "demo-coulomb-rational-root": (
        ["demo", "coulomb", "--Z", "1", "--d", "3", "--l", "0", "--n", "1"], None),
    # the three parametric demos at the degree ceiling, where the band's
    # minors reach their largest degree in the unknown
    "demo-coulomb-n30": (
        ["demo", "coulomb", "--Z", "2", "--d", "3", "--l", "1", "--n", "30"], None),
    "demo-chhajlany-n30": (["demo", "chhajlany", "--p", "1/2", "--n", "30"], None),
    "demo-krylov-n30": (["demo", "krylov", "--alpha", "1/3", "--n", "30"], None),
    "demo-bessel": (["demo", "bessel", "--n", "5"], None),
    "demo-hyper": (["demo", "hyper", "--m", "1", "--n", "2", "--l", "2"], None),
}


def without_timing(value):
    if isinstance(value, dict):
        return {k: without_timing(v) for k, v in value.items() if k != "timing_seconds"}
    if isinstance(value, list):
        return [without_timing(v) for v in value]
    return value


def run_case(name: str, directory: pathlib.Path) -> dict:
    argv, equation = CASES[name]
    if equation is not None:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(equation))
        argv = [str(path) if a == "{file}" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--json"])
    return {"exit_code": code, "report": without_timing(json.loads(out.getvalue()))}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_the_golden_file(name, tmp_path):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert run_case(name, tmp_path) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            result = run_case(case, pathlib.Path(scratch))
            (GOLDEN / f"{case}.json").write_text(json.dumps(result, indent=1) + "\n")
            print(case, result["exit_code"], file=sys.stderr)
