"""Property tests: the field identities of RatFunc, its kernels against the
Fraction-content reference, the skew Euclidean division and the exit codes
of the CLI on arbitrary text, over inputs drawn by hypothesis.

Every test runs a fixed, derandomized set of examples, so the suite stays
reproducible and takes a few seconds.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from intdiffop import (  # noqa: E402
    CalB1Element,
    PolyH,
    RatFunc,
    cli,
    left_divide,
    length,
    opparser,
    right_divide,
)
from intdiffop.errors import IntDiffOpError, OperatorSyntaxError  # noqa: E402

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
