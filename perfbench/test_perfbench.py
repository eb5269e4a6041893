"""Smoke tests of the benchmark at tiny size.

Each benchmark run is a subprocess started from the repository root, as a
user would start it; the checks are also fed deliberately wrong reports to
show that they catch them.
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        name, value, unit = line.split()
        printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    printed, result = result_of(bench(workload, 0))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert printed[name] == (result["metrics"][name]["value"], unit)
        assert result["metrics"][name]["value"] > 0
    assert result["correct"] and result["failed"] == 0
    assert printed["failed_ratio"] == (0.0, "ratio")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = (result_of(bench(workload, 1))[1] for _ in range(2))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in (first, second):
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    counts = [{k: r["metrics"][k]["value"] for k in tracing.EXACT} for r in (first, second)]
    assert counts[0] == counts[1]
    assert first["metrics"]["cli.main.calls"]["value"] > 0


def test_declared_metrics_match_the_code():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(tracing.METRICS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("construct", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# the checks reject wrong answers

@pytest.fixture(scope="module")
def cli():
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return importlib.import_module("polyode.cli")


def reports(cli, workload, tmp_path):
    queries = workloads.generate(workload, 5, "tiny")
    workloads.write_inputs(queries, str(tmp_path))
    out, meter = [], run.Speedometer()
    for query in queries:
        _, code, text = run.call(cli, query.argv, meter)
        report = json.loads(text)
        oracle = checks.oracle(query)
        assert checks.CHECKS[workload](query, code, report, oracle) == []
        out.append((query, code, report, oracle))
    return out


def test_construct_check_rejects_a_wrong_solution(cli, tmp_path):
    query, code, report, oracle = reports(cli, "construct", tmp_path)[0]
    bad = copy.deepcopy(report)
    coeffs = bad["solutions"][0]["coefficients"]
    coeffs[0] = str(int(coeffs[0]) + 1)
    assert checks.check_construct(query, code, bad, oracle)


def test_sweep_check_rejects_wrong_degrees(cli, tmp_path):
    for query, code, report, oracle in reports(cli, "sweep", tmp_path):
        bad = copy.deepcopy(report)
        bad["degrees_with_solutions"] = bad["degrees_with_solutions"][1:] or [0]
        assert checks.check_sweep(query, code, bad, oracle)


def test_roots_check_rejects_a_lost_root(cli, tmp_path):
    rooted = [r for r in reports(cli, "roots", tmp_path) if r[2]["roots"]["intervals"]]
    assert rooted
    for query, code, report, oracle in rooted:
        bad = copy.deepcopy(report)
        bad["roots"]["intervals"].pop()
        bad["roots"]["roots"].pop()
        assert checks.check_roots(query, code, bad, oracle)


def test_roots_check_rejects_a_lost_rational_root(cli, tmp_path):
    exact = [r for r in reports(cli, "roots", tmp_path) if r[2]["roots"]["exact"]]
    assert exact
    for query, code, report, oracle in exact:
        bad = copy.deepcopy(report)
        bad["roots"]["exact"].pop()
        assert checks.check_roots(query, code, bad, oracle)


def test_roots_check_rejects_a_wrong_constraint(cli, tmp_path):
    for query, code, report, oracle in reports(cli, "roots", tmp_path):
        if "determinant_of" not in query.expect and "equation" not in query.expect:
            continue
        bad = copy.deepcopy(report)
        key = "constraint" if "constraint" in bad else "determinant"
        bad[key][0] = str(Fraction(bad[key][0]) + 1)
        assert checks.check_roots(query, code, bad, oracle)
