"""Property tests: the field identities of RatFunc, its kernels against the
Fraction-content reference, the ring axioms of every element type, the skew
Euclidean division, the value of printed skew text, the exit codes of the
CLI on arbitrary text and the parser's values against element products, over
inputs drawn by hypothesis.

Every test runs a fixed, derandomized set of examples, so the suite stays
reproducible and takes a few seconds.
"""

import contextlib
import io
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from intdiffop import (  # noqa: E402
    B1Element,
    CalB1Element,
    DiffMon,
    HMon,
    I1Element,
    InElement,
    IntMon,
    MatUnit,
    PolyH,
    RatFunc,
    cli,
    gen_e,
    gen_h,
    gen_integ,
    gen_partial,
    gen_x,
    left_divide,
    length,
    opparser,
    project_modulo_prime,
    right_divide,
)
from intdiffop.errors import (  # noqa: E402
    IndexOutOfRange,
    IntDiffOpError,
    LimitExceeded,
    OperatorSyntaxError,
)
from intdiffop.sparse import MAX_POWER_BITS, Sparse, _bounded_product  # noqa: E402

from conftest import matrix_oracle_agrees  # noqa: E402
from test_polyh import (  # noqa: E402
    reference_ratfunc,
    reference_ratfunc_add,
    reference_ratfunc_mul,
    reference_shift,
    typed,
    typed_ratfunc,
)

FIXED = settings(derandomize=True, deadline=None, max_examples=20)

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def polys(draw, max_degree=3):
    return PolyH(dict(enumerate(draw(st.lists(coeffs, max_size=max_degree + 1)))))


@st.composite
def ratfuncs(draw, max_degree=3):
    return RatFunc(draw(polys(max_degree)), draw(polys(max_degree).filter(bool)))


@st.composite
def skew(draw, max_span):
    lo = draw(st.integers(-2, 1))
    span = draw(st.integers(0, max_span))
    return CalB1Element({d: draw(ratfuncs(2)) for d in range(lo, lo + span + 1)})


@FIXED
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@FIXED
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@FIXED
@given(ratfuncs(), ratfuncs())
def test_sum_difference_and_quotient_round_trips(a, b):
    assert (a + b) - b == a
    assume(not b.is_zero())
    assert a / b * b == a


@FIXED
@given(ratfuncs(), ratfuncs(), polys())
def test_agreement_with_the_normaliser(a, b, p):
    n1, d1, n2, d2 = a.num, a.den, b.num, b.den
    assert a + b == RatFunc(n1 * d2 + n2 * d1, d1 * d2)
    assert a - b == RatFunc(n1 * d2 - n2 * d1, d1 * d2)
    assert a * b == RatFunc(n1 * n2, d1 * d2)
    # a + p has the denominator of a, so this sum takes the equal-denominator case
    c = a + p
    assert c.den == d1
    assert a + c == RatFunc(n1 + c.num, d1)
    for r in (a + b, a * b, a + c):
        assert r.den.leading_coeff() == 1
        assert r.num.gcd(r.den) == 1 or r.is_zero()


@st.composite
def polynomial_skew(draw, max_span=3):
    """A B1Element whose coefficients are polynomials of up to four terms."""
    lo = draw(st.integers(-2, 1))
    span = draw(st.integers(0, max_span))
    return B1Element({d: draw(polys()) for d in range(lo, lo + span + 1)})


def text_value(text: str, h: Fraction, d: Fraction) -> Fraction:
    """The printed text of a skew element evaluated exactly at H = h and
    D = d: every integer literal is read as a Fraction and `^` as `**`."""
    expr = re.sub(r"\d+", r"Fraction(\g<0>)", text).replace("^", "**")
    return eval(expr, {"Fraction": Fraction, "H": h, "D": d})


def coefficient_value(x, h: Fraction, d: Fraction) -> Fraction:
    """The coefficient map of x evaluated at H = h with D commuting."""
    total = Fraction(0)
    for k, c in x.terms.items():
        v = c(h) if isinstance(c, PolyH) else c.num(h) / c.den(h)
        total += v * d ** k
    return total


POINTS = st.fractions(min_value=-7, max_value=7, max_denominator=11)


@settings(FIXED, max_examples=60)
@given(st.one_of(polynomial_skew(), skew(2)), POINTS, POINTS.filter(bool))
def test_printed_text_has_the_value_of_the_element(x, h, d):
    # every coefficient prints to the left of its D-power, so the text read
    # with D commuting is the coefficient map read the same way
    assume(all(c.den(h) for c in x.terms.values() if isinstance(c, RatFunc)))
    assert text_value(x.to_text(), h, d) == coefficient_value(x, h, d), x.to_text()


# Ring axioms of every element type: I1Element, InElement at n = 2 in full
# and in quotient mode, and CalB1Element.
MONOS = st.one_of(
    st.builds(DiffMon, st.integers(0, 2), st.integers(1, 2)),
    st.builds(HMon, st.integers(0, 2)),
    st.builds(IntMon, st.integers(1, 2), st.integers(0, 2)),
    st.builds(MatUnit, st.integers(0, 2), st.integers(0, 2)),
)
I1S = st.dictionaries(MONOS, coeffs, max_size=3).map(I1Element)
IN2 = st.dictionaries(st.tuples(MONOS, MONOS), coeffs, max_size=2).map(lambda t: InElement(2, t))


def check_ring_axioms(a, b, c, one):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a - b == a + (-b)
    assert (a - b) + b == a and (a - a).is_zero()
    assert one * a == a * one == a


@FIXED
@given(I1S, I1S, I1S)
def test_ring_axioms_i1(a, b, c):
    check_ring_axioms(a, b, c, I1Element.from_scalar(1))
    assert matrix_oracle_agrees([a, b], a * b)


@FIXED
@given(IN2, IN2, IN2, st.sampled_from([(), (1,), (2,), (1, 2)]))
def test_ring_axioms_n2(a, b, c, primes):
    # an empty index set keeps the full algebra
    a, b, c = (project_modulo_prime(x, primes) for x in (a, b, c))
    check_ring_axioms(a, b, c, InElement.one(2, a.modes))


@FIXED
@given(skew(1), skew(1), skew(1))
def test_ring_axioms_calb1(a, b, c):
    check_ring_axioms(a, b, c, CalB1Element({0: 1}))


@FIXED
@given(skew(3), skew(2).filter(bool))
def test_right_division(b, c):
    q, r = right_divide(b, c)
    assert b == q * c + r
    assert r.is_zero() or length(r) < length(c)


@FIXED
@given(skew(3), skew(2).filter(bool))
def test_left_division(b, c):
    q, r = left_divide(b, c)
    assert b == c * q + r
    assert r.is_zero() or length(r) < length(c)



@FIXED
@given(skew(3), skew(2).filter(bool), st.integers(-3, 3))
def test_kernels_match_the_fraction_reference(b, c, k):
    # the coefficients of skew elements, of their quotient and remainder, and
    # quotients of two of them, whose products cancel crosswise
    q, r = right_divide(b, c)
    fs = [f for x in (b, c, q, r) for f in x.terms.values()]
    for f, g in zip(fs, fs[1:] + fs[:1]):
        for x, y in [(f, g)] + ([(f, g * f.inverse())] if f else []):
            assert typed_ratfunc(x * y) == typed_ratfunc(reference_ratfunc_mul(x, y))
            assert typed_ratfunc(x + y) == typed_ratfunc(reference_ratfunc_add(x, y))
            shifted = typed(reference_shift(x.num, k).terms), typed(reference_shift(x.den, k).terms)
            assert typed_ratfunc(x.shift(k)) == shifted
            if x:
                assert typed_ratfunc(x.inverse()) == typed_ratfunc(reference_ratfunc(x.den, x.num))


# Text over the grammar's alphabet: expressions built by the grammar, with
# digit runs below and beyond the interpreter's 4,300-digit limit on int()
# and powers whose coefficients outgrow what can be printed, wrapped in
# parentheses below and beyond the nesting limit, and free runs of the
# alphabet's pieces.
DIGITS = st.one_of(
    st.integers(0, 999999).map(str),
    st.sampled_from([4000, 4301, 6000]).map(lambda k: "9" * k),
)
ATOMS = st.one_of(
    DIGITS,
    st.tuples(DIGITS, DIGITS).map("/".join),
    st.sampled_from(["d1", "int1", "H1", "x1", "e1[0,1]", "e1[2,0]", "∂1", "∫1", "d2", "e1[1]"]),
)
EXPRESSIONS = st.recursive(ATOMS, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(["+", "-", "*", " * "]), inner).map("".join),
    st.tuples(inner, DIGITS).map(lambda t: f"({t[0]})^{t[1]}"),
    inner.map(lambda e: f"-{e}"),
), max_leaves=6)
PIECES = st.one_of(
    st.sampled_from([*"0123456789+-*^()[],/ ", "d", "int", "H", "x", "e", "∂", "∫", "?", "²"]),
    DIGITS,
    EXPRESSIONS,
)
TEXTS = st.one_of(
    EXPRESSIONS,
    st.tuples(st.integers(1, 260), EXPRESSIONS).map(lambda t: "(" * t[0] + t[1] + ")" * t[0]),
    st.lists(PIECES, max_size=12).map("".join),
)


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def parses(text: str) -> bool:
    try:
        opparser._Parser(text).parse()
    except OperatorSyntaxError:
        return False
    except IntDiffOpError:  # a negative exponent: parsed, and refused as a domain error
        pass
    return True


@settings(FIXED, max_examples=300)
@given(TEXTS)
def test_any_text_exits_with_0_1_or_2(text):
    # 0 prints a result, 1 and 2 print one line on stderr, and 2 is kept for
    # text that does not parse or that argparse takes for an option
    for argv in (["normalize", text], ["divide", "--right", text, "d1 + 1"]):
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2)
        assert (out != "", err.count("\n")) == ((True, 0) if code == 0 else (False, 1)), err
        assert code != 2 or text.startswith("-") or not parses(text), err


def reference_operator(text: str, n: int):
    """The value of operator text by element products one factor at a time
    and sums one part at a time, each generator an element of its own: the
    evaluation that folding products into one word per factor replaces."""
    one = InElement.one(n)
    gens = {"x": gen_x, "d": gen_partial, "int": gen_integ, "H": gen_h}

    def value(node):
        if isinstance(node, opparser.Num):
            return one.scale(node.value)
        if isinstance(node, opparser.Gen):
            if not 1 <= node.index <= n:
                raise IndexOutOfRange(f"index {node.index} outside 1..{n}", node.pos)
            if node.kind == "e":
                return gen_e(n, node.index, node.row, node.col)
            return gens[node.kind](n, node.index)
        if isinstance(node, opparser.Neg):
            return -value(node.arg)
        if isinstance(node, opparser.Pow):
            base = value(node.base)
            c = max((max(abs(v.numerator), v.denominator) for v in base.terms.values()), default=1)
            if (bits := node.exp * (c.bit_length() - 1)) > MAX_POWER_BITS:
                raise LimitExceeded(
                    f"a power with {bits}-bit coefficients, beyond the limit {MAX_POWER_BITS}")
            return Sparse.__pow__(base, node.exp)  # binary powering, not the closed forms of **
        if isinstance(node, opparser.Mul):
            acc = one
            for f in node.factors:
                acc = _bounded_product(acc, value(f))
            return acc
        acc = one.scale(0)
        for sign, part in node.parts:
            v = value(part)
            acc = acc + v if sign > 0 else acc - v
        return acc

    return value(opparser._Parser(text).parse())


def outcome(evaluate, text: str, n: int):
    """The terms in their order with each coefficient's type, or the class
    and message of the error."""
    try:
        a = evaluate(text, n)
    except IntDiffOpError as exc:
        return type(exc), str(exc)
    return [(k, v, type(v)) for k, v in a.terms.items()]


def operator_texts(n: int):
    """Text over n factors: generators, matrix units, literals (6/3 is an
    integer), powers 0..4, powers of x 0..12 (taken in closed form), unary
    minus, parentheses, products and sums."""
    atoms = st.one_of(
        st.builds("{}{}".format, st.sampled_from(["x", "d", "int", "H"]), st.integers(1, n)),
        st.builds("e{}[{},{}]".format, st.integers(1, n), st.integers(0, 3), st.integers(0, 3)),
        st.sampled_from(["0", "1", "3", "1/2", "3/4", "6/3"]),
    )
    powers = st.one_of(
        atoms,
        st.builds("{}^{}".format, atoms, st.integers(0, 4)),
        st.builds("x{}^{}".format, st.integers(1, n), st.integers(0, 12)),
    )
    return st.recursive(powers, lambda inner: st.one_of(
        st.builds("{}*{}".format, inner, inner),
        st.builds("{} {} {}".format, inner, st.sampled_from("+-"), inner),
        st.builds("-{}".format, inner),
        st.builds("({})".format, inner),
        st.builds("({})^{}".format, inner, st.integers(0, 4)),
    ), max_leaves=8)


@settings(FIXED, max_examples=150)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), operator_texts(n))))
def test_parsed_operators_match_element_products(case):
    n, text = case
    assert outcome(opparser.parse_operator, text, n) == outcome(reference_operator, text, n)


# budgets, and products whose fold ends early
@pytest.mark.parametrize("n,text", [
    (1, "int1^100000*d1^100000"),  # a power's squaring passes MAX_DEGREE
    (1, "0*int1^100000"),  # a factor is evaluated after a zero
    (2, "e1[0,1]^2*d2^999*d2^5"),  # a zero power multiplies nothing after it
    (2, "d2*H2*d1*H1"),  # two factors with several words keep their term order
    (2, "-(d1 + H2)*-x1^2*e2[1,0]"),
    (1, "H1^5*e1[996,0]"),
    (1, "(H1^5)*e1[1001,0]"),
    (1, "-e1[500,501]"),
    (2, "x1*d2*x2*d1^999"),
    (2, "d1*d3"),
    (1, "3^70000*d1"),
    (1, "(d1 + int1 + H1)^32"),  # MAX_POWER_PAIRS
    (3, "d1*H1^40*d2*H2^40*d3*H3^40"),  # MAX_TERMS after words spread over factors
    (3, "x2^40*x3^40*d1^5*H1^30"),  # MAX_TERMS
    (1, "d1*H1^40*d1^3"),  # a word map too large to fold on
])
def test_fold_edges_match_element_products(n, text):
    assert outcome(opparser.parse_operator, text, n) == outcome(reference_operator, text, n)


# powers of x in closed form next to other words
@pytest.mark.parametrize("n,text", [
    (1, "x1^40"),
    (2, "d2*x1^40*3/2"),
    (2, "-x1^33*x2^2*int1"),
    (1, "x1^40*x1^3"),
    (1, "e1[0,0]*x1^35"),
    (1, "x1^34*e1[2,0]"),
    (2, "x2^0*x1^36*d2^3*x2"),
    (2, "0*x1^50*d1^999"),
    (1, "x1^40*d1^980"),
    (1, "x1^40*e1[500,501]"),
    (1, "H1^0*e1[500,501]"),
    (2, "d2^999*x1^50*int2*e1[990,0]"),
])
def test_x_power_folds_match_element_products(n, text):
    assert outcome(opparser.parse_operator, text, n) == outcome(reference_operator, text, n)


# a power of a generator that the fold leaves is taken as the fold takes it
@pytest.mark.parametrize("n,text", [
    (2, "x1^33*x2^40"),
    (1, "e1[0,0]*x1^35*x1^40"),
    (2, "x1^34*x2^0*(d2 + x2)^2*x2^35"),
    (1, "(d1 + 1)*x1^40*d1"),
    (1, "(H1 - 1)*-x1^12*e1[0,2]^3"),
    (1, "(int1 + 2)*d1^40*int1^3"),
    (1, "(d1 + 1)*H1^1001"),
    (2, "(d1 + 1)*x3^2"),
])
def test_powers_after_the_fold_match_element_products(n, text):
    assert outcome(opparser.parse_operator, text, n) == outcome(reference_operator, text, n)
