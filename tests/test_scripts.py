import os
import subprocess
import sys

import pytest

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


def test_davidson_families_prints_its_table():
    proc = run_script("davidson_families.py", "--mu", "1/2", "--max-nodes", "1")
    assert proc.returncode == 0
    assert "nodes=1 degree=2 eps=8 aim_index=2: x^2 - 2" in proc.stdout


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
    with open(os.path.join(ROOT, "tests", "script_output", expected), encoding="utf-8") as handle:
        assert proc.stdout == handle.read()
