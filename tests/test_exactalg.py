import contextlib
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyode import exactalg
from polyode.exactalg import (
    MAX_DIGITS,
    NEG_INFINITY,
    NotDivisibleError,
    UPoly,
    banded_minors,
    bareiss_determinant,
    format_polynomial,
    parse_rational,
    poly_gcd,
    squarefree_part,
)

from bandforms import bands_of, tridiagonal_continuant

# ---------------------------------------------------------------------------
# strategies

small_fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=6
)

polys = st.lists(small_fractions, max_size=5).map(UPoly)
nonzero_polys = polys.filter(bool)


def cofactor_determinant(rows):
    """Independent determinant oracle: Laplace expansion along row 0."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_determinant(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# canonical forms

def test_zero_polynomial_is_empty():
    assert UPoly([0, 0, 0]).coeffs == ()
    assert UPoly().degree == NEG_INFINITY
    assert not UPoly()
    assert UPoly() == UPoly([Fraction(0)])


def test_trailing_zeros_stripped():
    p = UPoly([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1


def test_rational_coercion_and_float_rejection():
    p = UPoly(["1/2", 3])
    assert p.coeffs == (Fraction(1, 2), Fraction(3))
    with pytest.raises(TypeError):
        UPoly([0.5])


def test_serialization_round_trip():
    p = UPoly([Fraction(-3, 4), 0, Fraction(5)])
    assert p.to_strings() == ["-3/4", "0", "5"]
    assert UPoly(map(parse_rational, p.to_strings())) == p


# ---------------------------------------------------------------------------
# addition

def test_add_inverse():
    assert UPoly([1, 1]) + UPoly([-1, -1]) == UPoly()


def test_add_identity():
    assert UPoly([2, 2]) + UPoly() == UPoly([2, 2])


def test_add_disjoint_supports():
    assert UPoly([0, 0, 1]) + UPoly([2, 2]) == UPoly([2, 2, 1])


# ---------------------------------------------------------------------------
# multiplication

def test_mul_simple():
    assert UPoly([-1, 1]) * UPoly([0, 1]) == UPoly([0, -1, 1])


def test_mul_hand_convolution():
    assert UPoly([0, 6]) * UPoly([2, 2]) == UPoly([0, 12, 12])


def test_mul_annihilator():
    assert UPoly([3, 1, 4]) * UPoly() == UPoly()


def test_scalar_mul_and_pow():
    assert 2 * UPoly([1, 1]) == UPoly([2, 2])
    assert UPoly([0, 1]) ** 3 == UPoly([0, 0, 0, 1])
    assert UPoly([2, 1]) ** 0 == UPoly.one()


# ---------------------------------------------------------------------------
# derivative

def test_derivative():
    assert UPoly([2, 2]).derivative() == UPoly([2])
    assert UPoly([0, 0, 0, 1]).derivative() == UPoly([0, 0, 3])
    assert UPoly([7]).derivative() == UPoly()


# ---------------------------------------------------------------------------
# exact division

def test_exact_div():
    assert UPoly([-1, 0, 1]) / UPoly([-1, 1]) == UPoly([1, 1])


def test_exact_div_scalar():
    assert UPoly([4, 12, 12]) / 4 == UPoly([1, 3, 3])


def test_exact_div_not_divisible():
    with pytest.raises(NotDivisibleError):
        UPoly([1, 0, 1]) / UPoly([-1, 1])


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        UPoly([1]) / UPoly()
    with pytest.raises(ZeroDivisionError):
        UPoly([1]) / 0


# ---------------------------------------------------------------------------
# determinants

def test_bareiss_2x2_constants():
    # det [[-g, a], [a, -g]] = g^2 - a^2, here with g, a as fixed numbers
    g, a = Fraction(3), Fraction(2)
    m = [[UPoly([-g]), UPoly([a])], [UPoly([a]), UPoly([-g])]]
    assert bareiss_determinant(m) == UPoly([g * g - a * a])


def test_bareiss_identity():
    eye = [[UPoly([int(i == j)]) for j in range(3)] for i in range(3)]
    assert bareiss_determinant(eye) == UPoly.one()


def test_bareiss_3x3_symbolic():
    # det [[-g, a, 0], [-b, -g, 2a], [0, -b-a, -g]] = -g(2a^2 + 3ab + g^2)
    # with g symbolic (the unknown) and a, b fixed numbers
    a, b = Fraction(2), Fraction(5)
    g = UPoly([0, 1])
    za = UPoly([a])
    m = [
        [-g, za, UPoly()],
        [UPoly([-b]), -g, UPoly([2 * a])],
        [UPoly(), UPoly([-b - a]), -g],
    ]
    expected = -g * (UPoly([2 * a * a + 3 * a * b]) + g * g)
    assert bareiss_determinant(m) == expected


def test_bareiss_zero_column():
    m = [[UPoly(), UPoly([1])], [UPoly(), UPoly([2])]]
    assert bareiss_determinant(m) == UPoly()


def test_bareiss_needs_row_swap():
    m = [[UPoly(), UPoly([1])], [UPoly([1]), UPoly()]]
    assert bareiss_determinant(m) == UPoly([-1])


@settings(max_examples=60)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(
                st.lists(small_fractions, max_size=3).map(UPoly),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
def test_bareiss_matches_cofactor_expansion(rows):
    assert bareiss_determinant(rows) == cofactor_determinant(rows)


def test_bareiss_matches_cofactor_on_5x5():
    import random

    rng = random.Random(7)
    for _ in range(5):
        rows = [
            [
                UPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))])
                for _ in range(5)
            ]
            for _ in range(5)
        ]
        assert bareiss_determinant(rows) == cofactor_determinant(rows)


def test_bareiss_keeps_integer_entries_integers():
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert type(bareiss_determinant([[1, 2], [3, 4]])) is int
    assert type(bareiss_determinant([[0, 1], [0, 2]])) is int


def test_bareiss_is_exact_past_float_precision():
    # a float quotient would round this to 1e+51
    big = 10 ** 17 + 1
    rows = [[big, 1, 0], [1, big, 1], [0, 1, big]]
    det = bareiss_determinant(rows)
    assert det == big ** 3 - 2 * big
    assert type(det) is int


@settings(max_examples=100)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_bareiss_on_integers_matches_the_fraction_result(rows):
    det = bareiss_determinant(rows)
    assert type(det) is int
    assert det == bareiss_determinant([[Fraction(v) for v in row] for row in rows])
    assert det == cofactor_determinant(rows)


def test_inexact_integer_quotient_raises():
    assert exactalg._exact_quotient(-12, 4) == -3
    with pytest.raises(ArithmeticError, match="not divisible"):
        exactalg._exact_quotient(7, 2)


def test_banded_determinant_matches_bareiss():
    import random

    rng = random.Random(11)
    for n in range(1, 6):
        rows = [[UPoly() for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for j in range(max(0, k - 1), min(n, k + 3)):
                rows[k][j] = UPoly([rng.randint(-4, 4), rng.randint(-2, 2)])
        assert banded_minors(bands_of(rows))[-1] == bareiss_determinant(rows)


def test_tridiagonal_continuant_matches_bareiss():
    import random

    rng = random.Random(13)
    for n in range(1, 6):
        diag = [UPoly([rng.randint(-4, 4), rng.randint(-2, 2)]) for _ in range(n)]
        sub = [UPoly([rng.randint(-3, 3)]) for _ in range(n - 1)]
        sup = [UPoly([rng.randint(-3, 3)]) for _ in range(n - 1)]
        rows = [[UPoly() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] = diag[i]
        for i in range(n - 1):
            rows[i + 1][i] = sub[i]
            rows[i][i + 1] = sup[i]
        products = [sub[i] * sup[i] for i in range(n - 1)]
        assert tridiagonal_continuant(diag, products) == bareiss_determinant(rows)


# ---------------------------------------------------------------------------
# ring axioms (property-based)

@given(polys, polys, polys)
def test_add_associative_commutative(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p


@given(polys, polys, polys)
def test_mul_associative_commutative(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p


@given(polys, polys, polys)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, nonzero_polys)
def test_exact_div_inverts_mul(p, q):
    assert (p * q) / q == p


@given(polys, polys)
def test_results_are_canonical(p, q):
    for result in (p + q, p - q, p * q, p.derivative()):
        if result.coeffs:
            assert result.coeffs[-1] != 0
        for c in result.coeffs:
            assert isinstance(c, Fraction)
            assert c.denominator > 0
            # Fraction keeps lowest terms; re-normalizing must be a no-op
            assert Fraction(c.numerator, c.denominator) == c


@given(polys, polys)
def test_degree_of_product(p, q):
    if p and q:
        assert (p * q).degree == p.degree + q.degree
    else:
        assert (p * q).degree == NEG_INFINITY


# ---------------------------------------------------------------------------
# gcd and square-free part

def test_poly_gcd_basic():
    p = UPoly([-1, 0, 1])  # (x-1)(x+1)
    q = UPoly([-1, 1])
    assert poly_gcd(p, q) == UPoly([-1, 1])
    assert poly_gcd(p, UPoly([1])) == UPoly.one()
    assert poly_gcd(UPoly(), UPoly()) == UPoly()


def test_squarefree_part():
    p = UPoly([0, 0, 1])  # x^2
    assert squarefree_part(p).degree == 1
    g = poly_gcd(squarefree_part(p), squarefree_part(p).derivative())
    assert g.is_constant


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    assert (p % g) == UPoly() if g else True
    if g:
        assert p % g == UPoly()
        assert q % g == UPoly()


# ---------------------------------------------------------------------------
# evaluation, content, formatting

def test_eval():
    p = UPoly([1, 3, 3])
    assert p(Fraction(2)) == 1 + 6 + 12
    assert UPoly()(Fraction(5)) == 0


def test_content_and_primitive_part():
    p = UPoly([Fraction(4), Fraction(12), Fraction(12)])
    assert p.content() == 4
    assert p.primitive_part() == UPoly([1, 3, 3])
    q = UPoly([Fraction(-1, 2), 0, Fraction(-3, 2)])
    assert q.primitive_part() == UPoly([1, 0, 3])


def test_format():
    assert UPoly([1, 3, 3]).format(var="t") == "3*t^2 + 3*t + 1"
    assert UPoly([-4, 0, 1]).format() == "x^2 - 4"
    assert UPoly().format() == "0"


def rendered(coefficients, var):
    """Independent rendering from the values themselves, highest power
    first: a unit magnitude is dropped before a power of ``var``."""
    terms = []
    for i in reversed(range(len(coefficients))):
        c = coefficients[i]
        if c:
            power = "" if i == 0 else var if i == 1 else f"{var}^{i}"
            magnitude = "" if abs(c) == 1 and power else str(abs(c))
            terms.append(("-" if c < 0 else "+", "*".join(filter(None, (magnitude, power)))))
    if not terms:
        return "0"
    (sign, first), *rest = terms
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {t}" for s, t in rest)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(small_fractions, st.integers(-3, 3),
                          st.integers(-10**30, 10**30)), max_size=7),
       st.sampled_from(["x", "t", "k"]))
def test_format_reads_the_strings_str_writes(coefficients, var):
    # the coefficient strings are all format_polynomial reads, zeros and
    # trailing zeros included (a solution vector may end in zeros)
    text = format_polynomial([str(c) for c in coefficients], var)
    assert text == rendered(coefficients, var)
    assert UPoly(coefficients).format(var) == text


def test_a_polynomial_coefficient_is_rejected():
    # every coefficient is a rational: a polynomial over polynomials is not
    # representable
    with pytest.raises(TypeError, match="UPoly"):
        UPoly([UPoly([1])])


# ---------------------------------------------------------------------------
# rational input parsing

@pytest.mark.parametrize("text, value", [
    ("1/2", Fraction(1, 2)),
    (" -3 ", Fraction(-3)),
    ("1.25e-2", Fraction(1, 80)),
    ("1_000", Fraction(1000)),
    ("9" * MAX_DIGITS, Fraction(int("9" * MAX_DIGITS))),
    ("1" * MAX_DIGITS + "/" + "3" * MAX_DIGITS,
     Fraction(int("1" * MAX_DIGITS), int("3" * MAX_DIGITS))),
    (f"1e{MAX_DIGITS - 1}", Fraction(10 ** (MAX_DIGITS - 1))),
    (f"1e-{MAX_DIGITS - 1}", Fraction(1, 10 ** (MAX_DIGITS - 1))),
])
def test_parse_rational_accepts_up_to_the_digit_limit(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", [
    "9" * (MAX_DIGITS + 1),
    "1/" + "3" * (MAX_DIGITS + 1),
    f"1e{MAX_DIGITS}",
    f"1e-{MAX_DIGITS}",
    "1e3000000",
    "0." + "1" * MAX_DIGITS,  # numerator of MAX_DIGITS digits over 10^MAX_DIGITS
    "1e" + "9" * 5000,
    "abc",
    "1/0",
    "",
    5,
    None,
])
def test_parse_rational_rejects_malformed_and_oversized_text(text):
    with pytest.raises(ValueError):
        parse_rational(text)


# ---------------------------------------------------------------------------
# parse_rational against its general path

def parse_rational_oracle(text) -> Fraction:
    """``parse_rational`` without its fast path for plain ASCII "p" and
    "p/q": every string takes the general parse, digit bound included."""
    if not isinstance(text, str):
        raise ValueError(f"not an exact rational: {text!r}")
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, decimals = mantissa.partition(".")
    digits = [sum(c.isdigit() for c in part) for part in (*whole.split("/"), decimals)]
    shift = int(exponent or 0)
    if max(*digits, digits[0] + digits[-1] + max(shift, 0),
           digits[-1] - min(shift, 0) + 1) > MAX_DIGITS:
        raise ValueError(f"a rational exceeds {MAX_DIGITS} digits: {text[:40]!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def parse_outcome(parse, text):
    """The value ``parse`` returns for ``text``, or ValueError if it raises
    one; any other exception propagates."""
    try:
        value = parse(text)
    except ValueError:
        return ValueError
    assert type(value) is Fraction
    return value


# non-ASCII digits (Arabic-Indic, Devanagari, fullwidth, ...), which
# ``Fraction`` reads as digits, and look-alike signs
OTHER_DIGITS = "٠٣۵०৭੦௯๒０９"
rational_soup = st.text(alphabet="0123456789" + "0123456789" + "+-/._eE \t\n"
                        + OTHER_DIGITS + "−", max_size=14)


@st.composite
def rational_like(draw):
    """Strings close to the plain "p" and "p/q" forms: signs, leading zeros,
    whitespace, underscores, non-ASCII digits, zero denominators, decimals
    and exponents."""
    digits = st.text(alphabet="0123456789", min_size=1, max_size=6)
    text = draw(st.sampled_from(["", "-", "+", "--", "-+", " -", "−"]))
    text += "0" * draw(st.integers(0, 3)) + draw(digits)
    tail = draw(st.sampled_from(["", "/", "/0", "/00", "/-", ".", "e", "e-", "_"]))
    if tail:
        text += tail + draw(st.sampled_from(["", "0", "00"])) + draw(
            st.one_of(st.just(""), digits))
    if draw(st.booleans()):
        position = draw(st.integers(0, len(text)))
        text = (text[:position] + draw(st.sampled_from([" ", "\n", "_", "٣", "０"]))
                + text[position:])
    return text


@st.composite
def rationals_at_the_digit_limit(draw):
    """A numerator and maybe a denominator of MAX_DIGITS - 1, MAX_DIGITS or
    MAX_DIGITS + 1 digits, leading zeros counted."""
    def part():
        size = draw(st.sampled_from([MAX_DIGITS - 1, MAX_DIGITS, MAX_DIGITS + 1]))
        zeros = draw(st.sampled_from([0, 1, size]))
        return "0" * zeros + draw(st.sampled_from("123456789")) * (size - zeros)

    text = draw(st.sampled_from(["", "-", "+"])) + part()
    if draw(st.booleans()):
        text += "/" + (part() if draw(st.booleans())
                       else draw(st.sampled_from(["1", "7", "0"])))
    return text


@settings(max_examples=600, deadline=None)
@given(st.one_of(rational_soup, rational_like()))
def test_parse_rational_agrees_with_the_general_parse(text):
    assert parse_outcome(parse_rational, text) == parse_outcome(parse_rational_oracle, text)


@contextlib.contextmanager
def unlimited_int_strings():
    """Lift the interpreter's own limit on int <-> str conversion, so that
    only the parser's bound can reject a number past MAX_DIGITS digits."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@settings(max_examples=60, deadline=None)
@given(rationals_at_the_digit_limit())
def test_parse_rational_agrees_with_the_general_parse_at_the_digit_limit(text):
    with unlimited_int_strings():
        assert (parse_outcome(parse_rational, text)
                == parse_outcome(parse_rational_oracle, text))


@pytest.mark.parametrize("text, value", [
    ("-0", Fraction(0)),
    ("007/014", Fraction(1, 2)),
    ("-12/8", Fraction(-3, 2)),
    ("0" * MAX_DIGITS, Fraction(0)),
    ("-" + "1" * MAX_DIGITS, -Fraction("1" * MAX_DIGITS)),
])
def test_parse_rational_reads_plain_text_exactly(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", [
    "1/000", "0/0", "-7/0", "0" * (MAX_DIGITS + 1), "-1/" + "0" * MAX_DIGITS + "1",
])
def test_parse_rational_rejects_plain_text_out_of_bounds(text):
    with unlimited_int_strings(), pytest.raises(ValueError):
        parse_rational(text)


# ---------------------------------------------------------------------------
# parse_rational against its earlier form

EARLIER_PLAIN_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def earlier_parse_rational(text) -> Fraction:
    """``parse_rational`` as it was when a regular expression picked out
    the plain "p" and "p/q" forms: the reference for every value and every
    error message."""
    if not isinstance(text, str):
        raise ValueError(f"not an exact rational: {text!r}")
    too_long = ValueError(f"a rational exceeds {MAX_DIGITS} digits: {text[:40]!r}")
    plain = EARLIER_PLAIN_RATIONAL.fullmatch(text)
    if plain is not None:
        sign, numerator, denominator = plain.groups("1")
        if max(len(numerator), len(denominator)) > MAX_DIGITS:
            raise too_long
        if not denominator.strip("0"):
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(sign + numerator), int(denominator))
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, decimals = mantissa.partition(".")
    digits = [sum(c.isdigit() for c in part) for part in (*whole.split("/"), decimals)]
    if len(exponent) > MAX_DIGITS:
        raise too_long
    shift = int(exponent or 0)
    if max(*digits, digits[0] + digits[-1] + max(shift, 0),
           digits[-1] - min(shift, 0) + 1) > MAX_DIGITS:
        raise too_long
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def parse_result(parse, text):
    """The Fraction ``parse`` returns for ``text``, or the message of the
    ValueError it raises."""
    try:
        value = parse(text)
    except ValueError as exc:
        return "ValueError", str(exc)
    assert type(value) is Fraction
    return value


BEHAVIOUR_CASES = [
    "0", "-0", "+0", "7", "-7", "+7", "--7", "-+7", "007", "-007", "0/7", "-0/7",
    "007/014", "-12/8", "3/0", "3/00", "-0/0", "3/-4", "3/+4", "-3/4", "1/2/3",
    "1/", "/2", "-", "", " 3", "3 ", "3\n", "1_000", "1.5", "-1.25e-2", ".5",
    "5.", "2E3", "1e", "1/2e3", "٣", "-٣", "3/٣", "٣/0", "²", "1²", "3/²", "½",
    "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1), "-" + "9" * MAX_DIGITS,
    "-" + "9" * (MAX_DIGITS + 1), "1/" + "7" * MAX_DIGITS, "1/" + "7" * (MAX_DIGITS + 1),
    "0" * (MAX_DIGITS + 1) + "/1", "1/" + "0" * (MAX_DIGITS + 1),
    f"1e{MAX_DIGITS - 1}", f"1e{MAX_DIGITS}", 5, None,
]


@pytest.mark.parametrize("text", BEHAVIOUR_CASES,
                         ids=[repr(t)[:24] for t in BEHAVIOUR_CASES])
@pytest.mark.parametrize("lifted", [False, True], ids=["int-limit", "no-int-limit"])
def test_parse_rational_behaves_as_before(text, lifted):
    with unlimited_int_strings() if lifted else contextlib.nullcontext():
        assert parse_result(parse_rational, text) == parse_result(earlier_parse_rational, text)


def test_parse_rational_reads_non_ascii_digits_as_fraction_does():
    # "٣" is a decimal digit, which Fraction's parser reads; "²" is a digit
    # to str.isdigit, but int() and Fraction reject it
    assert parse_rational("٣") == Fraction(3)
    assert "²".isdigit()
    with pytest.raises(ValueError):
        parse_rational("²")
    with pytest.raises(ValueError):
        parse_rational("-²/3")


@settings(max_examples=400, deadline=None)
@given(st.one_of(rational_soup, rational_like(), rationals_at_the_digit_limit()))
def test_parse_rational_gives_the_earlier_values_and_messages(text):
    with unlimited_int_strings():
        assert parse_result(parse_rational, text) == parse_result(earlier_parse_rational, text)
