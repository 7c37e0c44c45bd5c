"""Parser and pretty-printer for operator expressions and polynomials.

Grammar (EBNF):

    expr      := term (('+'|'-') term)*
    term      := factor ('*' factor)*
    factor    := '-' factor | atom ('^' nat)?
    atom      := rational | generator | '(' expr ')'
    generator := ('x'|'d'|'int'|'H') index | 'e' index '[' nat ',' nat ']'

The factor index is mandatory and must lie in 1..n.  Rational literals are
`p` or `p/q` in decimal digits (the slash is lexer-level, never a division
operator).  Any other character is a parse error at its position.  `^`
binds tighter than unary minus, which binds tighter than `*`.  Implicit
multiplication is rejected.  The Unicode aliases for d and int are accepted
on input only.  Parentheses and unary minus may nest at most MAX_DEPTH deep,
which also bounds the recursion of the evaluator over the parsed tree.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import IndexOutOfRange, NegativeExponent, OperatorSyntaxError
from .polyh import join_terms, poly_terms, power_text, term_text
from .sparse import _bounded_product
from .tensor import (
    InElement,
    MODE_FULL,
    MODE_QUOT,
    PolyXn,
    gen_e,
    gen_h,
    gen_integ,
    gen_partial,
    gen_x,
)

_GEN_KINDS = ("x", "d", "int", "H", "e")
MAX_DEPTH = 200


# ---------------------------------------------------------------- tokens

# kind is 'num', 'genkind', 'op' or 'end'
Token = namedtuple("Token", "kind value pos")


# One alternative per token kind; finditer skips only whitespace, since
# every other character matches `bad` at worst.  \d is exactly the decimal
# digits that int() accepts.
_TOKEN = re.compile(
    r"(?P<num>\d+(?:/\d*)?)|(?P<op>[-+*^()\[\],])|(?P<word>[^\W\d_]+|[∂∫])|(?P<bad>\S)"
)
_ALIASES = {"∂": "d", "∫": "int"}


def _tokenize(src: str):
    out = []
    for m in _TOKEN.finditer(src):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "num":
            num, slash, den = text.partition("/")
            if slash and not den:
                raise OperatorSyntaxError("expected digits after '/'", pos + len(num))
            try:
                if den and not int(den):
                    raise OperatorSyntaxError("zero denominator in literal", pos)
                value = Fraction(int(num), int(den or 1))
            except ValueError:
                # int() refuses more digits than the interpreter's limit
                limit = sys.get_int_max_str_digits()
                raise OperatorSyntaxError(f"more than {limit} digits in literal", pos) from None
            out.append(Token("num", value, pos))
        elif kind == "op":
            out.append(Token("op", text, pos))
        elif kind == "word":
            name = _ALIASES.get(text, text)
            if name not in _GEN_KINDS:
                raise OperatorSyntaxError(f"unknown symbol {name!r}", pos)
            out.append(Token("genkind", name, pos))
        else:
            raise OperatorSyntaxError(f"unexpected character {text!r}", pos)
    out.append(Token("end", None, len(src)))
    return out


# ---------------------------------------------------------------- AST

Num = namedtuple("Num", "value")
Gen = namedtuple("Gen", "kind index pos row col", defaults=(0, 0))
Neg = namedtuple("Neg", "arg")
Pow = namedtuple("Pow", "base exp")
Mul = namedtuple("Mul", "factors")
# parts: (sign, node) pairs with sign in {+1, -1}
Sum = namedtuple("Sum", "parts")


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.k = 0
        self.depth = 0

    def descend(self, t: Token):
        """Enter one more level of nesting at t; the caller leaves it."""
        if self.depth == MAX_DEPTH:
            raise OperatorSyntaxError(f"nesting deeper than {MAX_DEPTH}", t.pos)
        self.depth += 1

    def peek(self) -> Token:
        return self.toks[self.k]

    def next(self) -> Token:
        t = self.toks[self.k]
        self.k += 1
        return t

    def at(self, ops: str) -> bool:
        """Whether the next token is one of the operator characters ops."""
        t = self.peek()
        return t.kind == "op" and t.value in ops

    def expect_op(self, ch: str):
        if not self.at(ch):
            raise OperatorSyntaxError(f"expected {ch!r}", self.peek().pos)
        self.next()

    def natural(self, message: str) -> int:
        """The next token as a natural number; message names what it is."""
        t = self.next()
        if t.kind != "num" or t.value.denominator != 1:
            raise OperatorSyntaxError(message, t.pos)
        return int(t.value)

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise OperatorSyntaxError("trailing input", t.pos)
        return node

    def expr(self):
        parts = [(1, self.term())]
        while self.at("+-"):
            sign = 1 if self.next().value == "+" else -1
            parts.append((sign, self.term()))
        return Sum(tuple(parts))

    def term(self):
        factors = [self.factor()]
        while self.at("*"):
            self.next()
            factors.append(self.factor())
        return Mul(tuple(factors))

    def factor(self):
        if self.at("-"):
            self.descend(self.next())
            node = Neg(self.factor())
            self.depth -= 1
            return node
        base = self.atom()
        if not self.at("^"):
            return base
        self.next()
        if self.at("-"):
            raise NegativeExponent("operator powers must be nonnegative")
        return Pow(base, self.natural("expected a natural number exponent"))

    def atom(self):
        t = self.next()
        if t.kind == "num":
            return Num(t.value)
        if t.kind == "op" and t.value == "(":
            self.descend(t)
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        if t.kind == "genkind":
            return self.generator(t)
        raise OperatorSyntaxError("expected a literal, generator or '('", t.pos)

    def generator(self, t: Token):
        idx = self.natural("generator needs a factor index")
        if t.value != "e":
            return Gen(t.value, idx, t.pos)
        self.expect_op("[")
        r = self.natural("expected a natural row index")
        self.expect_op(",")
        c = self.natural("expected a natural column index")
        self.expect_op("]")
        return Gen("e", idx, t.pos, r, c)


# ---------------------------------------------------------------- evaluation

def _evaluate(node, one, leaf):
    """The value of a parsed tree: a number v is one.scale(v), a generator
    is leaf(node), and sums, products and powers are taken in one's ring;
    products and powers beyond MAX_POWER_PAIRS term pairs are refused."""
    if isinstance(node, Num):
        return one.scale(node.value)
    if isinstance(node, Gen):
        return leaf(node)
    if isinstance(node, Neg):
        return -_evaluate(node.arg, one, leaf)
    if isinstance(node, Pow):
        return _evaluate(node.base, one, leaf) ** node.exp
    if isinstance(node, Mul):
        acc = one
        for f in node.factors:
            acc = _bounded_product(acc, _evaluate(f, one, leaf))
        return acc
    acc = one.scale(0)
    for sign, part in node.parts:
        v = _evaluate(part, one, leaf)
        acc = acc + v if sign > 0 else acc - v
    return acc


def _check_index(g: Gen, n: int):
    if not 1 <= g.index <= n:
        raise IndexOutOfRange(f"index {g.index} outside 1..{n}", g.pos)


_OPERATOR_GENS = {"x": gen_x, "d": gen_partial, "int": gen_integ, "H": gen_h}


def parse_operator(src: str, n: int = 1) -> InElement:
    """Parse an operator expression into its canonical element over n factors."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def leaf(g: Gen) -> InElement:
        _check_index(g, n)
        if g.kind == "e":
            return gen_e(n, g.index, g.row, g.col)
        return _OPERATOR_GENS[g.kind](n, g.index)

    return _evaluate(_Parser(src).parse(), InElement.one(n), leaf)


def parse_poly(src: str, n: int = 1) -> PolyXn:
    """Parse a commutative polynomial in x1..xn with rational coefficients."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def leaf(g: Gen) -> PolyXn:
        if g.kind != "x":
            raise OperatorSyntaxError(
                f"only x generators are allowed in polynomials, got {g.kind!r}", g.pos
            )
        _check_index(g, n)
        return PolyXn.monomial(n, [int(k == g.index - 1) for k in range(n)])

    return _evaluate(_Parser(src).parse(), PolyXn.one(n), leaf)


# ---------------------------------------------------------------- printing

def _format_i1(a: InElement) -> str:
    """Eq.-(4)-ordered grouped form for a single factor: H-polynomials to the
    left of each d-power and to the right of each int-power."""
    polys, units = {}, []
    for ((tag, k, j),), v in a.sorted_terms():
        if tag:
            units.append(term_text(v, [f"e1[{k},{j}]"]))
        else:
            polys.setdefault(k, {})[j] = v
    segs = []
    for k, p in polys.items():
        if k == 0:
            segs.extend(poly_terms(p, "H1"))
        else:
            segs.append(_grouped_text(p, power_text("d1" if k < 0 else "int1", abs(k)), k < 0))
    return join_terms(segs + units)


def _grouped_text(p: dict, op: list, left: bool) -> tuple:
    """(sign, body) of the polynomial p in H1 next to the factors op, on
    their left or right; a polynomial of several terms is bracketed."""
    if len(p) > 1:
        inner = "(" + join_terms(poly_terms(p, "H1")) + ")"
        return 1, "*".join([inner, *op] if left else [*op, inner])
    ((j, c),) = p.items()
    h = power_text("H1", j)
    return term_text(c, h + op if left else op + h)


def _factor_mono_text(m, mode: str, idx: int):
    if mode == MODE_QUOT:
        # the Laurent monomial H^j D^d
        d, j = m
        return power_text(f"H{idx}", j) + power_text(f"D{idx}", d)
    tag, k, j = m
    if tag:
        return [f"e{idx}[{k},{j}]"]
    h = power_text(f"H{idx}", j)
    if k < 0:
        return h + power_text(f"d{idx}", -k)
    return power_text(f"int{idx}", k) + h


def format_operator(a: InElement) -> str:
    """Deterministic canonical text; parse(format(a)) = a for full-mode a."""
    if a.n == 1 and a.modes == (MODE_FULL,):
        return _format_i1(a)
    return join_terms(
        term_text(v, [
            f for k, (m, mode) in enumerate(zip(tup, a.modes))
            for f in _factor_mono_text(m, mode, k + 1)
        ])
        for tup, v in a.sorted_terms()
    )


def format_poly(p: PolyXn) -> str:
    """Canonical text of a polynomial in x1..xn."""
    return join_terms(
        term_text(v, [f for k, e in enumerate(deg) for f in power_text(f"x{k + 1}", e)])
        for deg, v in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    )
