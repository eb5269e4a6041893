"""Command-line interface.

Commands
--------
check        decide whether a numeric equation has a degree-n polynomial
             solution by the determinant criterion and construct it, with
             the iteration criterion as a cross-check unless --method
             determinant; --max-n sweeps all degrees up to a cap
constraints  for an equation with one unknown parameter, emit the degree
             condition, the determinant constraint polynomial, its real
             roots, and verified solutions at every exact rational root
demo         run one case study end to end: davidson, coulomb, krylov,
             chhajlany, hyper or bessel, each with its own options
heun         map a Heun-family equation onto the generic form and emit its
             polynomial-solution conditions

Machine-readable JSON goes to stdout as one compact line (pipe it through
``python -m json.tool`` to indent it); a short human summary goes to stderr
unless --json is given.  Exact values are serialized as strings ("p/q");
only refined roots are floats, each the float nearest its root (null for a
root past the largest float).  Exit codes: 0 when a verified
solution (or admissible parameter value) exists, 2 when not, 1 on input
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction
from typing import Sequence

from . import applications as apps
from . import heun as heun_mod
from .aim import aim_test_polynomial, default_iteration_cap
from .criteria import (
    AmbiguousNullspaceError,
    CriterionMatrix,
    EquationSpec,
    PolySolution,
    build_criterion_matrix,
    classical_polynomials,
    classical_tau,
    construct_solution,
    degree_condition_effective,
    delta_determinant,
    embed_classical,
    scalar_from_json,
    verify_solution,
)
from .exactalg import format_polynomial, parse_rational
from .solve import analyze_roots


#: Largest value of ``--n`` and ``--max-n``, in every command.  Exact cost
#: grows steeply with the degree: at 30 the slowest small-integer inputs
#: measured (``check --max-n 30`` on a dense cubic, ``constraints --n 30``,
#: ``demo davidson --n 30``, whose degree is 60) take 3 to 4 s on one 2.1 GHz
#: Xeon vCPU under Python 3.11, and ``check --max-n 40`` takes about 10 s.
MAX_DEGREE = 30

#: The values of ``check --method``: the determinant decides with either;
#: ``both`` also runs the iteration criterion and notes where it disagrees.
METHODS = ("determinant", "both")


class CliError(Exception):
    """Input problem; maps to exit code 1."""


class RationalParser(argparse.ArgumentParser):
    """Reads every "-" before a digit or a "." as the start of a negative
    value, so that a rational option takes every form ``parse_rational``
    reads ("-1/2", "-1e2", "-.5"); argparse itself counts only "-2" and
    "-0.5" as negative numbers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


class _Parser(RationalParser):
    """Exits 1 on a usage error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def fraction(text: str) -> Fraction:
    """The option type of an exact rational: every form ``parse_rational``
    reads."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, since parsing leaves no
    state in it.  Every command and case study has its own parser, holding
    exactly the options it reads, and names its function as ``run``."""
    parser = _Parser(prog="polyode")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, run, **kwargs):
        p = parent.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--json", action="store_true",
                       help="suppress the human summary on stderr")
        return p

    p_check = command(sub, "check", cmd_check, help="test one equation")
    p_check.add_argument("input", help="equation JSON file, or - for stdin")
    degrees = p_check.add_mutually_exclusive_group(required=True)
    degrees.add_argument("--n", type=int, help="target polynomial degree")
    degrees.add_argument("--max-n", type=int, dest="max_n",
                         help="sweep degrees 0..max-n instead of a single n")
    p_check.add_argument("--method", choices=METHODS, default="both")

    p_con = command(sub, "constraints", cmd_constraints,
                    help="solve for the unknown parameter")
    p_con.add_argument("input", help="equation JSON file, or - for stdin")
    p_con.add_argument("--n", type=int, required=True)

    studies = sub.add_parser("demo", help="run a named case study").add_subparsers(
        dest="name", required=True)

    def study(name, run, *options):
        # no abbreviations: another study's option (--m, --a) must not pass
        # for a prefix of this one's (--mu, --alpha)
        p = command(studies, name, run, allow_abbrev=False)
        p.add_argument("--n", type=int, default=1)
        for flag, kind, default in options:
            p.add_argument(flag, type=kind, default=default)

    study("davidson", _demo(_davidson), ("--mu", fraction, Fraction(0)),
          ("--eps", fraction, None))
    study("coulomb", _demo_coulomb, ("--Z", fraction, Fraction(1)), ("--d", int, 3),
          ("--l", int, 0))
    study("krylov", _demo(_krylov), ("--alpha", fraction, Fraction(1)))
    study("chhajlany", _demo(_chhajlany), ("--p", fraction, Fraction(1)))
    study("hyper", _demo_hyper, ("--m", int, 1), ("--l", int, 2),
          ("--a", fraction, Fraction(1)), ("--b", fraction, Fraction(1)))
    study("bessel", _demo(_bessel), ("--tau00", fraction, None))

    p_heun = command(sub, "heun", cmd_heun,
                     help="Heun-family polynomial conditions")
    p_heun.add_argument("family", choices=tuple(_HEUN_FAMILIES))
    p_heun.add_argument("--params", required=True,
                        help="JSON object of family parameters")
    p_heun.add_argument("--n", type=int, required=True)

    return parser


# ---------------------------------------------------------------------------
# shared report pieces

def _solution_dict(sol: PolySolution) -> dict:
    coefficients = [str(c) for c in sol.coefficients]
    return {
        "coefficients": coefficients,
        "degree": sol.reported_degree,
        "verified": True,
        "polynomial": format_polynomial(coefficients),
    }


def _construct_solutions(eq: EquationSpec, matrix: CriterionMatrix,
                         notes: list[str]) -> list[PolySolution]:
    """The verified nullspace basis of the degree-n matrix when its last
    vector, that of the last free column, has degree n; else none."""
    try:
        solutions = [construct_solution(eq, matrix)]
    except AmbiguousNullspaceError as exc:
        solutions = list(exc.solutions)
    if solutions[-1].reported_degree != matrix.n:
        degrees = ", ".join(str(s.reported_degree) for s in solutions)
        notes.append(f"no degree-{matrix.n} solution: the nullspace holds only "
                     f"solutions of degree {degrees}")
        return []
    if len(solutions) > 1:
        notes.append("nullspace dimension exceeds one; reporting the whole basis")
    return solutions


def _solutions_at(eq: EquationSpec, n: int, values, notes: list[str]) -> list[dict]:
    """Verified degree-n solutions of ``eq``, an equation in one unknown, at
    each of the exact ``values`` of that unknown; each solution carries the
    value under the unknown's name."""
    entries = []
    for value in values:
        try:
            fixed = eq.substitute(value)
        except ValueError:  # the equation loses its y'' and y' terms there
            notes.append(f"{eq.unknown} = {value} leaves no y'' or y' term; no solution there")
            continue
        found: list[str] = []
        for sol in _construct_solutions(fixed, build_criterion_matrix(fixed, n), found):
            entries.append({**_solution_dict(sol), eq.unknown: str(value)})
        notes += [f"{eq.unknown} = {value}: {note}" for note in found]
    return entries


def _aim_obstacle(eq: EquationSpec) -> str | None:
    """Why AIM cannot decide ``eq``, or None.  It iterates on y'' only, and
    with neither a y' nor a y term every lambda_n is zero, so its guard
    lambda_n lambda_(n-1) != 0 rejects every index.  It reads the nine
    ints of the integer form, as AIM does."""
    _, (part,) = eq.integer_form
    if not any(part[:4]):
        return "y'' coefficient is identically zero: the iteration criterion needs a y'' term"
    if not any(part[4:]):
        return ("y' and y coefficients are identically zero: every lambda_n of the "
                "iteration criterion vanishes")
    return None


def analyze_check(eq: EquationSpec, degrees: Sequence[int], method: str) -> list[dict]:
    """One report per degree of the ascending ``degrees``.

    The determinant decides: degree n is a "yes" only with a verified
    solution of degree n.  With ``method`` "both" the iteration criterion
    runs as a cross-check, and a report notes where it disagrees; where it
    cannot answer (``_aim_obstacle``), a note says why and it does not run.
    Neither criterion depends on the target degree, so each runs once, for
    the top degree, and serves them all.  AIM's first qualifying index f
    answers degree n exactly when f <= cap(n), since no smaller index
    qualifies.  The degree-n criterion matrix is the leading (n+1) x (n+1)
    block of the top one, so its determinant is a running minor of the top
    band, and only the minors of ``degrees`` are divided back by D^m.  A
    report's ``timing_seconds`` covers its own stages; the top degree's
    report also carries the shared ones, which are its own.
    """
    if method not in METHODS:
        raise ValueError(f"method must be {' or '.join(map(repr, METHODS))}, got {method!r}")
    start = time.monotonic()
    top = degrees[-1]
    equation = eq.to_json_dict()
    matrix = build_criterion_matrix(eq, top)
    minors = dict(zip(degrees, matrix.leading_minors([n + 1 for n in degrees])))
    obstacle = _aim_obstacle(eq) if method == "both" else None
    skipped = [f"{obstacle}, so the determinant answers alone"] if obstacle else []
    use_aim = method == "both" and not obstacle
    if use_aim:
        found = aim_test_polynomial(eq, default_iteration_cap(top))
    shared = time.monotonic() - start
    reports = []
    for n in degrees:
        start = time.monotonic()
        notes: list[str] = list(skipped)
        level, cond = degree_condition_effective(eq, n)
        cond_holds = cond == 0
        det = minors[n]
        report: dict = {
            "equation": equation,
            "n": n,
            "degree_condition": {
                "level": level,
                "polynomial": cond.to_strings(),
                "holds": cond_holds,
            },
            "determinant": {"coefficients": [str(det)] if det else [], "is_zero": not det},
        }
        solutions: list[PolySolution] = []
        if cond_holds and not det:
            solutions = _construct_solutions(eq, matrix.leading(n), notes)
        if use_aim:
            cap = default_iteration_cap(n)
            aim_index = found if found is not None and found <= cap else None
            report["aim"] = {"found_index": aim_index, "cap": cap}
            # the degree condition is necessary, and the index alone can come
            # from a solution of another degree
            if (cond_holds and aim_index is not None) != bool(solutions):
                notes.append(
                    "criterion paths disagree at this degree; the iteration index "
                    "tracks the solution degree, not the requested one"
                )
        report["solutions"] = [_solution_dict(s) for s in solutions]
        report["exists"] = bool(solutions)
        report["notes"] = notes
        report["timing_seconds"] = time.monotonic() - start
        reports.append(report)
    reports[-1]["timing_seconds"] += shared
    return reports


def analyze_constraints(eq: EquationSpec, n: int) -> dict:
    start = time.monotonic()
    notes: list[str] = []
    level, cond = degree_condition_effective(eq, n)
    det = delta_determinant(eq, n)
    report: dict = {
        "equation": eq.to_json_dict(),
        "n": n,
        "unknown": eq.unknown,
        "degree_condition": {"level": level, "polynomial": cond.to_strings()},
        "determinant": det.to_strings(),
    }
    root_report = None
    solutions: list[dict] = []
    exists = False
    if cond == 0:
        if not det:
            # a lower-degree solution for every value makes the determinant
            # vanish identically too, so only a verified degree-n solution at
            # a sample value, 0, answers yes
            solutions = _solutions_at(eq, n, [0], [])
            exists = bool(solutions)
            notes.append(
                f"determinant vanishes identically; {eq.unknown} = 0 gives "
                f"{'a' if exists else 'no'} degree-{n} solution, and other values "
                "are undecided until an elimination over Z[t] decides them"
            )
        elif det.is_constant:
            notes.append("determinant is a nonzero constant; no parameter value works")
        else:
            root_report = analyze_roots(det)
            exists = bool(root_report.intervals)
            solutions = _solutions_at(eq, n, root_report.exact_rational_roots, notes)
    elif cond.degree == 1:
        required = -cond.coeffs[0] / cond.coeffs[1]
        report["degree_condition"]["required_value"] = str(required)
        if det(required):
            notes.append("the degree condition pins the parameter but the "
                         "determinant does not vanish there")
        else:
            solutions = _solutions_at(eq, n, [required], notes)
        exists = bool(solutions)
        if exists:  # the linear condition's one root is exactly ``required``
            root_report = analyze_roots(cond)
    else:
        notes.append("degree condition cannot be satisfied for any parameter value")
    report["roots"] = {"intervals": [], "roots": [], "exact": [], "nonreal_count": 0}
    if root_report is not None:
        report["roots"] = root_report.to_json_dict()
    report["solutions"] = solutions
    report["exists"] = exists
    report["notes"] = notes
    report["timing_seconds"] = time.monotonic() - start
    return report


# ---------------------------------------------------------------------------
# input plumbing

def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _json_int(text: str) -> int:
    """A JSON integer literal, read by ``parse_rational``, which bounds its
    digits before building it."""
    return int(parse_rational(text))


def _json_object(text: str, what: str) -> dict:
    try:
        data = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise CliError(
            f"malformed JSON at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal that parse_rational rejects
        raise CliError(f"{what}: {exc}") from exc
    except RecursionError as exc:
        raise CliError(f"{what} nests too deeply") from exc
    if not isinstance(data, dict):
        raise CliError(f"{what} must be a JSON object")
    return data


def _parse_equation(text: str) -> EquationSpec:
    try:
        return EquationSpec.from_json_dict(_json_object(text, "the equation"))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _params_dict(args) -> dict:
    params = {}
    for name, value in _json_object(args.params, "--params").items():
        try:
            params[name] = scalar_from_json(value, "t")
        except ValueError as exc:
            raise CliError(f"params[{name!r}]: {exc}") from exc
    return params


# ---------------------------------------------------------------------------
# commands

def cmd_check(args) -> dict:
    eq = _parse_equation(_read_input(args.input))
    if not eq.is_numeric:
        raise CliError(
            "check needs a fully numeric equation; use `constraints` to solve "
            "for the unknown parameter"
        )
    if args.max_n is not None:
        reports = analyze_check(eq, range(args.max_n + 1), args.method)
        return {
            "sweep": reports,
            "degrees_with_solutions": [r["n"] for r in reports if r["exists"]],
            "exists": any(r["exists"] for r in reports),
        }
    return analyze_check(eq, [args.n], args.method)[0]


def cmd_constraints(args) -> dict:
    eq = _parse_equation(_read_input(args.input))
    if eq.is_numeric:
        raise CliError("constraints needs exactly one unknown parameter")
    return analyze_constraints(eq, args.n)


_HEUN_FAMILIES = {"confluent": heun_mod.confluent_to_spec,
                  "biconfluent": heun_mod.biconfluent_to_spec,
                  "general": heun_mod.general_to_spec}


def _heun_equation(family: str, params: dict) -> EquationSpec:
    try:
        return _HEUN_FAMILIES[family](**params)
    except TypeError as exc:
        raise CliError(f"bad parameters for {family}: {exc}") from exc
    except ValueError as exc:  # a FuchsianViolationError among them
        raise CliError(str(exc)) from exc


def _report(eq: EquationSpec, n: int) -> dict:
    """The degree-n report on the equation of a Heun family or a case
    study: that of ``check`` for a numeric equation, else that of
    ``constraints``."""
    if eq.is_numeric:
        return analyze_check(eq, [n], "both")[0]
    return analyze_constraints(eq, n)


def cmd_heun(args) -> dict:
    report = _report(_heun_equation(args.family, _params_dict(args)), args.n)
    report["family"] = args.family
    return report


def _demo(build):
    """The run function of a case study whose ``build(args)`` gives its
    equation, degree and header: the degree report with the study's name and
    that header added.  A ValueError from the build is an input error."""
    def run(args) -> dict:
        try:
            eq, degree, header = build(args)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        return {**_report(eq, degree), "name": args.name, **header}
    return run


def _davidson(args):
    mu, n = args.mu, args.n
    eps = args.eps if args.eps is not None else apps.davidson_eigenvalue(mu, n)
    header = {"mu": str(mu), "node_count": n, "degree": 2 * n, "eigenvalue": str(eps)}
    return apps.davidson_spec(mu, eps), 2 * n, header


def _krylov(args):
    eq = apps.krylov_robnik_equation(args.alpha, args.n)
    return eq, args.n, {"alpha": str(args.alpha), "beta": str(-eq.tau[0].constant_value())}


def _chhajlany(args):
    eq = apps.chhajlany_equation(args.p, args.n)
    return eq, args.n, {"p": str(args.p), "delta": str(2 * args.n)}


def _bessel(args):
    n = args.n
    tau00 = args.tau00 if args.tau00 is not None else classical_tau(1, 2, n)
    eq = embed_classical((1, 0, 0), (2, 2), tau00)
    ladder = classical_polynomials((1, 0, 0), (2, 2), n + 1)[n]
    return eq, n, {
        "tau00": str(tau00),
        "ladder_polynomial": ladder.format(),
        "ladder_solves_equation": (tau00 == classical_tau(1, 2, n)
                                   and verify_solution(eq, list(ladder.coeffs))),
    }


def coulomb_report(problem: apps.CoulombProblem, n: int) -> dict:
    """The shifted-Coulomb report at degree n >= 1: alpha, the energy, the
    constraint in t = alpha beta with its real roots, and the verified
    solutions at each positive rational shift beta = t / alpha."""
    constraint = apps.coulomb_constraint(problem, n)
    alpha = apps.coulomb_alpha(problem, n)
    roots = analyze_roots(constraint)
    # the constraint is in t = alpha beta; only a positive shift is physical
    shifts = [root / alpha for root in roots.exact_rational_roots if root / alpha > 0]
    notes: list[str] = []
    solutions = _solutions_at(apps.coulomb_equation(problem, n), n, shifts, notes)
    return {
        "name": "coulomb",
        "Z": str(problem.Z),
        "d": problem.d,
        "l": problem.l,
        "k": str(problem.k),
        "n": n,
        "alpha": str(alpha),
        "energy": str(apps.coulomb_energy(problem, n)),
        "constraint": constraint.to_strings(),
        "roots": roots.to_json_dict(),
        "beta_values": [str(beta) for beta in shifts],
        "solutions": solutions,
        "notes": notes,
        "exists": bool(roots.intervals),
    }


def _demo_coulomb(args) -> dict:
    try:
        return coulomb_report(apps.CoulombProblem(Z=args.Z, d=args.d, l=args.l), args.n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _demo_hyper(args) -> dict:
    # the check's dense lists hold l + 2 coefficients and the polynomial has
    # degree n + m + 1, so m and l get ceilings as the degree does; past
    # l = MAX_DEGREE + 1, l - 1 divides no positive degree up to MAX_DEGREE
    for flag, value, ceiling in (("--m", args.m, MAX_DEGREE), ("--l", args.l, MAX_DEGREE + 1)):
        if value > ceiling:
            raise CliError(f"{flag} is at most {ceiling}, got {value}")
    try:
        sol = apps.hyper_build(args.m, args.n, args.l, args.a, args.b)
    except ValueError as exc:  # BadDegreeError and DegenerateParametersError too
        raise CliError(str(exc)) from exc
    verified = apps.hyper_verify(sol)
    return {
        "name": "hyper",
        "m": args.m,
        "n": args.n,
        "l": args.l,
        "a": str(sol.a),
        "b": str(sol.b),
        "prefactor_exponent": sol.prefactor_exponent,
        "series": [str(c) for c in sol.series],
        "polynomial": sol.polynomial().format(),
        "coefficients": [str(c) for c in sol.polynomial().coeffs],
        "verified": verified,
        "exists": verified,
    }


# ---------------------------------------------------------------------------
# human summaries

def _summarize(report: dict) -> list[str]:
    lines = []
    if "sweep" in report:
        degrees = report["degrees_with_solutions"]
        lines.append(
            f"degrees admitting polynomial solutions: {degrees or 'none'}"
        )
        return lines
    if "degree_condition" in report:
        cond = report["degree_condition"]
        if "holds" in cond:
            lines.append(f"degree condition: {'holds' if cond['holds'] else 'fails'}")
        elif "required_value" in cond:
            lines.append(f"degree condition requires parameter = {cond['required_value']}")
    if "determinant" in report and isinstance(report["determinant"], dict):
        lines.append(
            "criterion determinant: "
            + ("zero" if report["determinant"]["is_zero"] else "nonzero")
        )
    if "roots" in report and report["roots"].get("roots"):
        lines.append(f"parameter roots: {json.dumps(report['roots']['roots'])}")
    if report.get("aim"):
        idx = report["aim"]["found_index"]
        lines.append(
            "iteration criterion: "
            + (f"vanishes at index {idx}" if idx is not None else "not found")
        )
    for sol in report.get("solutions", []):
        lines.append(f"solution: {sol['polynomial']} "
                     f"(verified={json.dumps(sol['verified'])})")
    if "polynomial" in report and "verified" in report:
        lines.append(f"solution: {report['polynomial']} "
                     f"(verified={json.dumps(report['verified'])})")
    if "exists" in report:
        lines.append(f"exists: {json.dumps(report['exists'])}")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    return lines


def _check_ranges(args) -> None:
    """Range checks that the argument types leave to the commands."""
    for name in ("n", "max_n"):
        value = getattr(args, name, None)
        if value is None:
            continue
        flag = name.replace("_", "-")
        if value < 0:
            raise CliError(f"--{flag} must be nonnegative, got {value}")
        if value > MAX_DEGREE:
            raise CliError(f"--{flag} is at most {MAX_DEGREE}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # every input number is bounded before it is built (``parse_rational``
    # and ``_json_int``), so the interpreter's own limit on int <-> str
    # conversion is lifted while the report is computed and written: a
    # computed value of any size reaches the user
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        _check_ranges(args)
        report = args.run(args)
        sys.stdout.write(json.dumps(report, separators=(",", ":")) + "\n")
    except CliError as exc:
        print(f"polyode: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)
    if not args.json:
        for line in _summarize(report):
            print(line, file=sys.stderr)
    return 0 if report["exists"] else 2


if __name__ == "__main__":
    sys.exit(main())
