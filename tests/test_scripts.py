import os
import subprocess
import sys

import pytest

from polyode.cli import MAX_DEGREE

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )


@pytest.mark.parametrize("name, args", [
    ("davidson_families.py", ["--mu", "1e5000", "--max-nodes", "0"]),
    ("coulomb_conditions.py", ["--Z", "1e5000", "--max-n", "0"]),
])
def test_a_rational_past_the_digit_limit_is_a_usage_error(name, args):
    # the scripts read rationals with the library's parser, which rejects
    # the value before building it
    proc = run_script(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage:")
    assert "exceeds 4300 digits" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, args", [
    ("bessel_ladder.py", ["--max-n", "-2"]),
    ("davidson_families.py", ["--max-nodes", "-1"]),
    ("coulomb_conditions.py", ["--max-n", "-3"]),
])
def test_a_negative_range_is_a_usage_error(name, args):
    # a negative bound once printed a table (the n = 0 row, or the headers)
    # and exited 0
    proc = run_script(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage:")
    assert f"{args[0]} must be nonnegative, got {args[1]}" in proc.stderr


@pytest.mark.parametrize("name, args", [
    ("bessel_ladder.py", ["--max-n", "31"]),
    ("davidson_families.py", ["--max-nodes", "31"]),
    ("coulomb_conditions.py", ["--max-n", "31"]),
])
def test_a_range_past_the_degree_ceiling_is_a_usage_error(name, args):
    # every command stops at MAX_DEGREE; past it a script once ran on, for
    # a time that grows steeply with the degree
    proc = run_script(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage:")
    assert f"{args[0]} is at most {MAX_DEGREE}, got {args[1]}" in proc.stderr


def test_davidson_families_prints_its_table():
    proc = run_script("davidson_families.py", "--mu", "1/2", "--max-nodes", "1")
    assert proc.returncode == 0
    assert "nodes=1 degree=2 eps=8 aim_index=2: x^2 - 2" in proc.stdout


def expected_output(name):
    with open(os.path.join(ROOT, "tests", "script_output", name), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("mu", ["-3/2", "-1e0", "-.5"])
def test_davidson_families_takes_a_negative_rational_after_a_space(mu):
    # as ``polyode demo davidson --mu -3/2`` does: "-3/2" is a value, not a flag
    spaced = run_script("davidson_families.py", "--mu", mu, "--max-nodes", "2")
    joined = run_script("davidson_families.py", f"--mu={mu}", "--max-nodes", "2")
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout


@pytest.mark.parametrize("args, expected", [
    ([], "davidson_families-default.txt"),
    (["--mu=-3/2", "--max-nodes", "4"], "davidson_families-mu--3-2-max-nodes-4.txt"),
])
def test_davidson_families_prints_its_pinned_table(args, expected):
    proc = run_script("davidson_families.py", *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected_output(expected)


@pytest.mark.parametrize("args, expected", [
    ([], "bessel_ladder-default.txt"),
    (["--max-n", "14"], "bessel_ladder-max-n-14.txt"),
])
def test_bessel_ladder_prints_its_pinned_table(args, expected):
    # every line but the last, which carries the run's wall time
    proc = run_script("bessel_ladder.py", *args)
    assert proc.returncode == 0, proc.stderr
    *table, timing = proc.stdout.splitlines(keepends=True)
    assert "".join(table) == expected_output(expected)
    assert timing.startswith("all degrees agree up to scale (")


@pytest.mark.parametrize("args, expected", [
    (["--max-n", "5"], "coulomb_conditions-max-n-5.txt"),
    (["--d", "2", "--l", "1", "--Z", "3"], "coulomb_conditions-d-2-l-1-Z-3.txt"),
    (["--d", "5", "--Z", "2", "--max-n", "6"], "coulomb_conditions-d-5-Z-2-max-n-6.txt"),
])
def test_coulomb_conditions_prints_its_table(args, expected):
    # the symbolic table (one polynomial in k per power of t), the numeric
    # constraints, their roots and the verified solutions, byte for byte
    proc = run_script("coulomb_conditions.py", *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected_output(expected)
