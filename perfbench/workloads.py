"""Seeded inputs for the three benchmark workloads.

Every query is one ``polyode`` command line.  Equations travel to the
program only as JSON files written by ``write_inputs``; the generator keeps
its own exact copy of each equation (and of what a correct answer must
contain) for the output checks in ``checks.py``.

An equation is kept in the generic form of ``polyode.criteria``: nine
scalars a3 = (a30..a33), a2 = (a20..a22), tau = (t10, t11), each a pair
(c0, c1) meaning c0 + c1 t in the single unknown t.

Workloads
---------
sweep      ``check FILE --max-n M``: half yes-instances with one known
           solution degree d (generalised Bessel and Laguerre classical
           embeddings, Davidson, hypergeometric class; M = d + 2), half
           random full four-band cubics whose degree condition holds at one
           degree but whose determinant is not expected to vanish.
construct  ``check FILE --n N --method determinant`` on yes-instances of
           five families (upper-triangular classical embeddings, Davidson
           with a zero diagonal, hypergeometric and general Heun with a
           nonzero subdiagonal) over a fixed spread of degrees.
roots      ``constraints FILE --n N`` on random one-unknown cubics, the
           parametric Heun families, and a fixed catalog of the
           ``krylov``/``chhajlany``/``coulomb`` case studies.

The seed draws every coefficient; the degree schedules and the case-study
catalog are fixed, so the cost of one pass changes little from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

WORKLOADS = ("sweep", "construct", "roots")
SIZES = ("full", "tiny")


@dataclass
class Query:
    """One command line.  ``argv`` holds the literal ``{file}`` where the
    equation file path goes; ``expect`` carries what the checks need."""

    family: str
    argv: list
    equation: Optional[dict] = None
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# scalars and equations

def _c(value) -> tuple[Fraction, Fraction]:
    """A numeric scalar."""
    return (Fraction(value), Fraction(0))


T = (Fraction(0), Fraction(1))


def _add(*terms):
    return (sum(t[0] for t in terms), sum(t[1] for t in terms))


def _scale(k, s):
    return (Fraction(k) * s[0], Fraction(k) * s[1])


def equation(a3, a2, tau) -> dict:
    """Generic-form equation with every coefficient coerced to a pair."""
    pairs = lambda seq: [s if isinstance(s, tuple) else _c(s) for s in seq]
    return {"a3": pairs(a3), "a2": pairs(a2), "tau": pairs(tau)}


def equation_json(eq: dict) -> dict:
    """The program's wire format: "p/q" strings, {"t": [c0, c1]} for the
    parametric coefficients."""
    def encode(s):
        return str(s[0]) if not s[1] else {"t": [str(s[0]), str(s[1])]}

    out = {key: [encode(s) for s in eq[key]] for key in ("a3", "a2", "tau")}
    if any(s[1] for key in ("a3", "a2", "tau") for s in eq[key]):
        out["unknown"] = "t"
    return out


def band_rows(eq: dict, n: int, t: Fraction) -> list[list[Fraction]]:
    """Criterion matrix of degree n at parameter value t, from the
    recurrence coefficients A_k, B_k, C_k, D_k."""
    at = lambda s: s[0] + s[1] * t
    a30, a31, a32, a33 = (at(s) for s in eq["a3"])
    a20, a21, a22 = (at(s) for s in eq["a2"])
    t10, t11 = (at(s) for s in eq["tau"])
    rows = []
    for k in range(n + 1):
        row = [Fraction(0)] * (n + 1)
        entries = (
            (k - 1, t10 - (k - 2) * (k - 1) * a30 - (k - 1) * a20),
            (k, t11 - k * ((k - 1) * a31 + a21)),
            (k + 1, -(k + 1) * (k * a32 + a22)),
            (k + 2, -(k + 2) * (k + 1) * a33),
        )
        for col, value in entries:
            if 0 <= col <= n:
                row[col] = value
        rows.append(row)
    return rows


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination with row swaps."""
    m = [list(r) for r in rows]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((i for i in range(col, size) if m[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, size):
            if m[i][col]:
                f = m[i][col] / m[col][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


# ---------------------------------------------------------------------------
# random draws

def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _positive_half(rng: random.Random, bound: int) -> Fraction:
    """A positive multiple of 1/2 up to ``bound``."""
    return Fraction(rng.randint(1, 2 * bound), 2)


# ---------------------------------------------------------------------------
# yes-instance families (solution degree known by construction)

def bessel_type(rng, degree):
    """x^2 y'' + (a x + b) y' - d(d+a-1) y = 0, the generalised Bessel
    equation; upper-triangular criterion matrix."""
    a, b = rng.randint(2, 5), rng.randint(1, 4)
    eq = equation((0, 1, 0, 0), (0, a, b), (0, degree * (degree + a - 1)))
    return eq, {"bessel": [a, b]}


def laguerre_type(rng, degree):
    """x y'' + (alpha+1 - c x) y' + c d y = 0; upper-triangular."""
    alpha, c = _positive_half(rng, 4), rng.randint(1, 3)
    eq = equation((0, 0, 1, 0), (0, -c, alpha + 1), (0, -c * degree))
    return eq, {}


def davidson(rng, degree):
    """x f'' - (2x^2 - 2(mu+1)) f' - (2mu + 3 - eps) x f = 0 at
    eps = 2mu + 3 + 2d; tridiagonal with a zero diagonal (d even)."""
    mu = _positive_half(rng, 4) - Fraction(1, 2)
    eq = equation((0, 0, 1, 0), (-2, 0, 2 * (mu + 1)), (-2 * degree, 0))
    return eq, {}


def hyper(rng, degree):
    """x^2 (b s + a x) y'' - s a x^2 y' - s m(m+1) b y = 0 with s = m + n,
    solved by x^(m+1) times a degree-n series; lower-bidiagonal."""
    m = rng.randint(1, min(3, degree - 1))
    s = degree - 1
    a, b = _nonzero(rng, 5), rng.randint(1, 5)
    eq = equation((a, b * s, 0, 0), (-s * a, 0, 0), (0, s * m * (m + 1) * b))
    return eq, {}


def heun_general(rng, degree):
    """General Heun at alpha = -d, gamma = 0, q = 0: row 0 of the criterion
    matrix vanishes, so a degree-d solution exists; the subdiagonal is
    nonzero."""
    a = rng.choice([v for v in range(-4, 6) if v not in (0, 1)])
    beta, delta = rng.randint(1, 4), rng.randint(1, 4)
    alpha, gamma, q = -degree, 0, 0
    epsilon = 1 + alpha + beta - gamma - delta
    eq = equation(
        (1, -(1 + a), a, 0),
        (gamma + epsilon + delta, -(a * (delta + gamma) + epsilon + gamma), a * gamma),
        (-alpha * beta, q),
    )
    return eq, {}


YES_FAMILIES = {
    "bessel": bessel_type,
    "laguerre": laguerre_type,
    "davidson": davidson,
    "hyper": hyper,
    "heun_general": heun_general,
}


def random_cubic(rng, n0):
    """Full four-band cubic (every coefficient a nonzero integer in
    [-9, 9]) whose degree condition holds at degree n0."""
    while True:
        a3 = [_nonzero(rng, 9) for _ in range(4)]
        a2 = [_nonzero(rng, 9) for _ in range(3)]
        t10 = n0 * (n0 - 1) * a3[0] + n0 * a2[0]
        if t10:
            return equation(a3, a2, (t10, _nonzero(rng, 9)))


# ---------------------------------------------------------------------------
# workloads

# (family, degree) pairs of one pass; the seed draws the coefficients
SWEEP_YES = {
    "full": [(f, d) for f in ("bessel", "laguerre", "hyper") for d in range(3, 10)
             for _ in range(2)] + [("davidson", d) for d in (2, 4, 6, 8) for _ in range(2)],
    "tiny": [("bessel", 2), ("davidson", 2), ("hyper", 3), ("laguerre", 2)],
}
# --max-n of the random cubics
SWEEP_NO = {"full": [2] * 14 + [3] * 18 + [4] * 18, "tiny": [2, 2, 3, 3]}

# per shape: a low spread, a plateau at 14 holding the median and one at 24
# holding the 90th percentile, so neither quantile sits on a steep slope
CONSTRUCT_DEGREES = [*range(4, 11), *[14] * 7, 18, 20, *[24] * 5]
CONSTRUCT = {
    "full": [(f, d + d % 2 if f == "davidson" else d)
             for f in ("bessel", "laguerre", "davidson", "hyper", "heun_general")
             for d in CONSTRUCT_DEGREES],
    "tiny": [("bessel", 4), ("laguerre", 3), ("davidson", 4), ("hyper", 4),
             ("heun_general", 3)],
}


def sweep(rng, size):
    queries = []
    for family, degree in SWEEP_YES[size]:
        eq, extra = YES_FAMILIES[family](rng, degree)
        queries.append(Query(
            family, ["check", "{file}", "--max-n", str(degree + 2), "--json"],
            eq, {"degrees": [degree], "max_n": degree + 2, **extra},
        ))
    for max_n in SWEEP_NO[size]:
        eq = random_cubic(rng, rng.randint(1, max_n))
        # the expected degrees come from the oracle in checks.py
        queries.append(Query(
            "cubic", ["check", "{file}", "--max-n", str(max_n), "--json"],
            eq, {"degrees": None, "max_n": max_n},
        ))
    return queries


def construct(rng, size):
    queries = []
    for family, degree in CONSTRUCT[size]:
        eq, extra = YES_FAMILIES[family](rng, degree)
        queries.append(Query(
            family,
            ["check", "{file}", "--n", str(degree), "--method", "determinant", "--json"],
            eq, {"degree": degree, **extra},
        ))
    return queries


# case studies: the same every seed except the charge Z, which leaves the
# Coulomb constraint polynomial unchanged
DEMOS = {
    "full": [
        ("krylov", ["--alpha", "1", "--n", "10"]),
        ("krylov", ["--alpha", "1/2", "--n", "10"]),
        ("krylov", ["--alpha", "1", "--n", "9"]),
        ("krylov", ["--alpha", "2", "--n", "8"]),
        ("chhajlany", ["--p", "1", "--n", "10"]),
        ("chhajlany", ["--p", "3", "--n", "10"]),
        ("chhajlany", ["--p", "-1", "--n", "10"]),
        ("chhajlany", ["--p", "2", "--n", "10"]),
        ("chhajlany", ["--p", "4", "--n", "10"]),
        ("chhajlany", ["--p", "1/2", "--n", "10"]),
        ("chhajlany", ["--p", "2", "--n", "9"]),
        ("chhajlany", ["--p", "5", "--n", "10"]),
        ("chhajlany", ["--p", "-2", "--n", "10"]),
        ("coulomb", ["--n", "15", "--d", "3", "--l", "0"]),
        ("coulomb", ["--n", "15", "--d", "3", "--l", "0"]),
        ("coulomb", ["--n", "15", "--d", "3", "--l", "0"]),
        ("coulomb", ["--n", "14", "--d", "3", "--l", "0"]),
        ("coulomb", ["--n", "13", "--d", "3", "--l", "0"]),
        ("coulomb", ["--n", "12", "--d", "3", "--l", "0"]),
        ("coulomb", ["--n", "7", "--d", "3", "--l", "1"]),
        ("coulomb", ["--n", "6", "--d", "4", "--l", "0"]),
    ],
    "tiny": [
        ("krylov", ["--alpha", "1", "--n", "4"]),
        ("chhajlany", ["--p", "1", "--n", "4"]),
        ("coulomb", ["--n", "4", "--d", "3", "--l", "0"]),
    ],
}
# (degree, count) of random one-unknown cubics, and of each Heun family
CONSTRAINTS = {"full": [(d, 10) for d in (3, 4, 5, 6)], "tiny": [(2, 2), (3, 2)]}
HEUN = {"full": [(3, 3), (4, 10), (5, 3)], "tiny": [(2, 1)]}
# largest bit length of the constraint polynomial's value at t = 0; it
# bounds the rational-root search, whose cost grows with its square root
CONSTANT_BITS = {"full": 36, "tiny": 24}


def _bounded(rng, size, degree, draw):
    """Redraw until the determinant at t = 0 is nonzero and at most
    CONSTANT_BITS long."""
    while True:
        eq, params = draw(rng, degree)
        value = fraction_det(band_rows(eq, degree, Fraction(0)))
        if value and _bits(value) <= CONSTANT_BITS[size]:
            return eq, params


def parametric_cubic(rng, degree):
    """Random full-band cubic, unknown t added to t11, degree condition
    holding at ``degree``.  Half the draws have a22 = a33 = 0, which makes
    t = -t11 an exact rational root."""
    a3 = [_nonzero(rng, 5) for _ in range(4)]
    a2 = [_nonzero(rng, 5) for _ in range(3)]
    if rng.random() < 0.5:
        a3[3], a2[2] = 0, 0
    t10 = degree * (degree - 1) * a3[0] + degree * a2[0]
    t11 = _nonzero(rng, 5)
    return equation(a3, a2, (t10, _add(_c(t11), T))), None


def heun_confluent(rng, degree):
    """mu = t, nu = -d alpha - t: the degree condition holds for every t."""
    alpha, beta, gamma = _nonzero(rng, 3), rng.randint(0, 3), rng.randint(0, 3)
    params = {"alpha": alpha, "beta": beta, "gamma": gamma,
              "mu": T, "nu": _add(_c(-degree * alpha), _scale(-1, T))}
    mu, nu = params["mu"], params["nu"]
    eq = equation(
        (0, 1, -1, 0),
        (alpha, gamma + beta - alpha + 2, 1 - alpha),
        (_scale(-1, _add(mu, nu)), mu),
    )
    return eq, params


def heun_biconfluent(rng, degree):
    """delta = t, gamma = alpha + 2(d+1)."""
    alpha, beta = rng.randint(0, 3), _nonzero(rng, 3)
    gamma = alpha + 2 * (degree + 1)
    params = {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": T}
    eq = equation(
        (0, 0, 1, 0),
        (-2, -beta, alpha + 1),
        (-(gamma - alpha - 2), _scale(Fraction(1, 2), _add(T, _c((alpha + 1) * beta)))),
    )
    return eq, params


def heun_general_q(rng, degree):
    """Accessory parameter q = t at alpha = -d; epsilon from the regularity
    condition."""
    a = rng.choice([v for v in range(-3, 5) if v not in (0, 1)])
    beta, gamma, delta = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    alpha = -degree
    epsilon = 1 + alpha + beta - gamma - delta
    params = {"a": a, "alpha": alpha, "beta": beta, "gamma": gamma,
              "delta": delta, "epsilon": epsilon, "q": T}
    eq = equation(
        (1, -(1 + a), a, 0),
        (gamma + epsilon + delta, -(a * (delta + gamma) + epsilon + gamma), a * gamma),
        (-alpha * beta, T),
    )
    return eq, params


HEUN_FAMILIES = {
    "confluent": heun_confluent,
    "biconfluent": heun_biconfluent,
    "general": heun_general_q,
}


def _param_json(value):
    if isinstance(value, tuple):
        return {"t": [str(value[0]), str(value[1])]}
    return str(value)


def roots(rng, size):
    queries = []
    for degree, count in CONSTRAINTS[size]:
        for _ in range(count):
            eq, _ = _bounded(rng, size, degree, parametric_cubic)
            queries.append(Query(
                "constraints", ["constraints", "{file}", "--n", str(degree), "--json"],
                eq, {"equation": eq, "degree": degree},
            ))
    for degree, count in HEUN[size]:
        for family, draw in HEUN_FAMILIES.items():
            for _ in range(count):
                eq, params = _bounded(rng, size, degree, draw)
                text = json.dumps({k: _param_json(v) for k, v in params.items()})
                queries.append(Query(
                    "heun_" + family,
                    ["heun", family, "--params", text, "--n", str(degree), "--json"],
                    None, {"equation": eq, "degree": degree},
                ))
    for name, flags in DEMOS[size]:
        argv = ["demo", name, *flags, "--json"]
        if name == "coulomb":
            argv[-1:-1] = ["--Z", str(rng.randint(1, 4))]
        queries.append(Query(name, argv, None, demo_expectation(name, flags)))
    return queries


def demo_expectation(name: str, flags: list) -> dict:
    """For the krylov and chhajlany case studies, the equation whose
    criterion determinant is the reported constraint polynomial."""
    values = dict(zip(flags[::2], flags[1::2]))
    n = int(values["--n"])
    if name == "krylov":
        alpha = Fraction(values["--alpha"])
        beta = -n * n - (alpha - 1) * n
        eq = equation((1, 0, 0, 0), (alpha, 0, -alpha), (-beta, _scale(-1, T)))
    elif name == "chhajlany":
        eq = equation((0, 0, 0, 1), (-2, 0, Fraction(values["--p"])), (-2 * n, _scale(-1, T)))
    else:
        return {}
    return {"determinant_of": eq, "degree": n}


GENERATORS = {"sweep": sweep, "construct": construct, "roots": roots}


def generate(workload: str, seed: int, size: str = "full") -> list[Query]:
    """The queries of one pass, in a seeded order."""
    rng = random.Random(f"polyode-bench:{workload}:{seed}")
    queries = GENERATORS[workload](rng, size)
    rng.shuffle(queries)
    return queries


def write_inputs(queries: list[Query], directory: str) -> None:
    """Write each equation to its own file and point the argv at it."""
    os.makedirs(directory, exist_ok=True)
    for index, query in enumerate(queries):
        if query.equation is None:
            continue
        path = os.path.join(directory, f"q{index:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(equation_json(query.equation), handle)
        query.argv = [path if a == "{file}" else a for a in query.argv]
