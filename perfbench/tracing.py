"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of the polyode modules with
wrappers that record one span per call (name, start, end, parent span,
query id) and a few exact counts of the values the call returned.  It only
runs in the traced pass; ``Tracer.remove`` puts every original back.

Wrapper placement follows how each name is looked up at its call site:
names that ``cli.py`` or ``applications.py`` bind with ``from ... import``
are wrapped in that module, names called through their own module's
globals are wrapped there.  Several sites may share one metric name.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _bits(values) -> int:
    """Largest numerator or denominator bit length among Fractions."""
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def _poly_bits(poly) -> int:
    return _bits(poly.coeffs)


def _degree(poly) -> int:
    return len(poly.coeffs) - 1


# observers: (tracer, result) -> None, run after the span closes
def _matrix_order(tr, m):
    tr.maximum("criteria.matrix_order.max", m.n + 1)


def _det(tr, det):
    tr.maximum("criteria.det_bits.max", _poly_bits(det))


def _solution(tr, sol):
    tr.maximum("criteria.solution_bits.max", _bits(sol.coefficients))


def _aim_found(tr, index):
    tr.count("aim.found", index is not None)


def _aim_state(tr, state):
    tr.maximum("aim.numerator_degree.max", max(_degree(state.L), _degree(state.S)))
    tr.maximum("aim.numerator_bits.max", max(_poly_bits(state.L), _poly_bits(state.S)))


def _sturm(tr, chain):
    tr.maximum("solve.sturm_chain.length.max", len(chain))


def _roots(tr, report):
    tr.maximum("solve.poly_degree.max", _degree(report.polynomial))
    tr.maximum("solve.poly_bits.max", _poly_bits(report.polynomial))
    tr.count("solve.exact_roots", len(report.exact_rational_roots))
    tr.count("solve.isolated_roots", len(report.intervals))


# (module, attribute, metric name, observer)
SITES = (
    ("cli", "main", "cli.main", None),
    ("cli", "delta_determinant", "criteria.delta_determinant", _det),
    ("applications", "delta_determinant", "criteria.delta_determinant", _det),
    ("cli", "construct_solution", "criteria.construct_solution", _solution),
    ("cli", "verify_solution", "criteria.verify_solution", None),
    ("criteria", "verify_solution", "criteria.verify_solution", None),
    ("criteria", "build_criterion_matrix", "criteria.build_criterion_matrix", _matrix_order),
    ("applications", "build_criterion_matrix", "criteria.build_criterion_matrix", _matrix_order),
    ("criteria", "rational_nullspace", "criteria.rational_nullspace", None),
    ("criteria", "bareiss_determinant", "exactalg.bareiss_determinant", None),
    ("solve", "squarefree_part", "exactalg.squarefree_part", None),
    ("cli", "aim_test_polynomial", "aim.aim_test_polynomial", _aim_found),
    ("aim", "aim_iterate", "aim.aim_iterate", _aim_state),
    ("cli", "analyze_roots", "solve.analyze_roots", _roots),
    ("solve", "isolate_real_roots", "solve.isolate_real_roots", None),
    ("solve", "refine_root", "solve.refine_root", None),
    ("solve", "rational_roots", "solve.rational_roots", None),
    ("solve", "sturm_chain", "solve.sturm_chain", _sturm),
    ("applications", "krylov_robnik_analyze", "applications.constraint", None),
    ("applications", "chhajlany_analyze", "applications.constraint", None),
    ("applications", "coulomb_constraint", "applications.constraint", None),
)

LAYERS = ("cli", "criteria", "exactalg", "aim", "solve", "applications")

# (metric, unit, better) reported by a traced run, in output order
METRICS = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("criteria.build_criterion_matrix.busy_s", "s", "lower"),
    ("criteria.delta_determinant.calls", "count", "lower"),
    ("criteria.delta_determinant.busy_s", "s", "lower"),
    ("criteria.construct_solution.calls", "count", "lower"),
    ("criteria.construct_solution.busy_s", "s", "lower"),
    ("criteria.rational_nullspace.busy_s", "s", "lower"),
    ("criteria.verify_solution.busy_s", "s", "lower"),
    ("criteria.matrix_order.max", "count", "lower"),
    ("criteria.det_bits.max", "bits", "lower"),
    ("criteria.solution_bits.max", "bits", "lower"),
    ("criteria.self_s", "s", "lower"),
    ("exactalg.bareiss_determinant.calls", "count", "lower"),
    ("exactalg.bareiss_determinant.busy_s", "s", "lower"),
    ("exactalg.squarefree_part.busy_s", "s", "lower"),
    ("exactalg.self_s", "s", "lower"),
    ("aim.aim_test_polynomial.calls", "count", "lower"),
    ("aim.aim_test_polynomial.busy_s", "s", "lower"),
    ("aim.aim_iterate.calls", "count", "lower"),
    ("aim.numerator_degree.max", "count", "lower"),
    ("aim.numerator_bits.max", "bits", "lower"),
    ("aim.found_ratio", "ratio", "higher"),
    ("aim.self_s", "s", "lower"),
    ("solve.analyze_roots.calls", "count", "lower"),
    ("solve.analyze_roots.busy_s", "s", "lower"),
    ("solve.isolate_real_roots.busy_s", "s", "lower"),
    ("solve.refine_root.calls", "count", "lower"),
    ("solve.refine_root.busy_s", "s", "lower"),
    ("solve.rational_roots.busy_s", "s", "lower"),
    ("solve.sturm_chain.calls", "count", "lower"),
    ("solve.sturm_chain.length.max", "count", "lower"),
    ("solve.poly_degree.max", "count", "lower"),
    ("solve.poly_bits.max", "bits", "lower"),
    ("solve.exact_root_ratio", "ratio", "higher"),
    ("solve.self_s", "s", "lower"),
    ("applications.constraint.busy_s", "s", "lower"),
    ("applications.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# metrics that must repeat exactly for one seed
EXACT = tuple(name for name, unit, _ in METRICS if unit != "s"
              and name != "trace.overhead_ratio")


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.query = None
        self._stack: list[int] = []
        self._counts: dict[str, int] = defaultdict(int)
        self._maxima: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []

    def count(self, key: str, amount: int) -> None:
        self._counts[key] += amount

    def maximum(self, key: str, value: int) -> None:
        self._maxima[key] = max(self._maxima[key], value)

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, self.query]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, observe in SITES:
            target = self.modules[module]
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original, observe))

    def remove(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def metrics(self, overhead_ratio: float) -> dict:
        """Every name in METRICS, from the recorded spans and counts."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            calls[name] += 1
            busy[name] += end - start
            self_time[name] += end - start - covered
        out = {}
        for metric, _, _ in METRICS:
            stem, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[stem]
            elif kind == "busy_s":
                out[metric] = busy[stem]
            elif kind == "max":
                out[metric] = self._maxima[metric]
        out["cli.main.self_s"] = self_time["cli.main"]
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_time.items() if k.startswith(layer + "."))
        aim_calls = calls["aim.aim_test_polynomial"]
        out["aim.found_ratio"] = self._counts["aim.found"] / aim_calls if aim_calls else 0.0
        isolated = self._counts["solve.isolated_roots"]
        out["solve.exact_root_ratio"] = (
            self._counts["solve.exact_roots"] / isolated if isolated else 0.0)
        out["trace.overhead_ratio"] = overhead_ratio
        return out
