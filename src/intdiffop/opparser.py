"""Parser for operator expressions and polynomials.

Grammar (EBNF):

    expr      := term (('+'|'-') term)*
    term      := factor ('*' factor)*
    factor    := '-' factor | atom ('^' nat)?
    atom      := rational | generator | '(' expr ')'
    generator := ('x'|'d'|'int'|'H') index | 'e' index '[' nat ',' nat ']'

The factor index is mandatory and must lie in 1..n.  Rational literals are
`p` or `p/q` in decimal digits (the slash is lexer-level, never a division
operator).  Any other character is a parse error at its position; the whole
text is tokenized into (kind, value, pos) tuples first, so a lexical error is
reported ahead of a syntax error earlier in the text.  `^`
binds tighter than unary minus, which binds tighter than `*`.  Implicit
multiplication is rejected.  The Unicode aliases for d and int are accepted
on input only.  Parentheses and unary minus may nest at most MAX_DEPTH deep,
which also bounds the recursion of the evaluator over the parsed tree.
Generators at different factors commute, so a product's leading literals,
generators and one-word powers (d^k, int^k and H^k) are multiplied as one I1
word map per factor and expanded once; the factors after them are multiplied
as elements, and powers are the elements' `**`, which refuses a power past
sparse.MAX_POWER_BITS at once.  A bad n is refused by the element
constructors, ahead of any error in the text.  Elements print themselves:
`format_operator` and `format_poly` are their `to_text`.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from math import prod

from .errors import IndexOutOfRange, NegativeExponent, OperatorSyntaxError
from .i1 import _UNIT, GEN_MONOS, MAX_DEGREE, MatUnit, _words_mul
from .sparse import _acc, _bounded_product, _integral
from .tensor import MAX_TERMS, InElement, PolyXn, _expand_into, _gen

MAX_DEPTH = 200


# ---------------------------------------------------------------- tokens

# One alternative per token kind; finditer skips only whitespace, since
# every other character matches `bad` at worst.  \d is exactly the decimal
# digits that int() accepts.
_TOKEN = re.compile(
    r"(?P<num>\d+(?:/\d*)?)|(?P<op>[-+*^()\[\],])|(?P<word>[^\W\d_]+|[∂∫])|(?P<bad>\S)"
)
_ALIASES = {"∂": "d", "∫": "int"}


def _tokenize(src: str) -> list:
    """The (kind, value, pos) tokens of src, kind 'num', 'genkind', 'op' or
    'end'; a lexical error anywhere is raised before any is parsed."""
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
                value = Fraction(int(num), int(den)) if den else int(num)
            except ValueError:
                # int() refuses more digits than the interpreter's limit
                limit = sys.get_int_max_str_digits()
                raise OperatorSyntaxError(f"more than {limit} digits in literal", pos) from None
            out.append(("num", value, pos))
        elif kind == "op":
            out.append(("op", text, pos))
        elif kind == "word":
            name = _ALIASES.get(text, text)
            if name not in GEN_MONOS and name != "e":
                raise OperatorSyntaxError(f"unknown symbol {name!r}", pos)
            out.append(("genkind", name, pos))
        else:
            raise OperatorSyntaxError(f"unexpected character {text!r}", pos)
    out.append(("end", None, len(src)))
    return out


# ---------------------------------------------------------------- AST

Num = namedtuple("Num", "value")
Gen = namedtuple("Gen", "kind index pos row col", defaults=(0, 0))
Neg = namedtuple("Neg", "arg")
Pow = namedtuple("Pow", "base exp")
Mul = namedtuple("Mul", "factors")
# parts: two or more (sign, node) pairs with sign in {+1, -1}
Sum = namedtuple("Sum", "parts")


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.k = 0
        self.depth = 0

    def descend(self, pos: int):
        """Enter one more level of nesting at pos; the caller leaves it."""
        if self.depth == MAX_DEPTH:
            raise OperatorSyntaxError(f"nesting deeper than {MAX_DEPTH}", pos)
        self.depth += 1

    def next(self) -> tuple:
        t = self.toks[self.k]
        self.k += 1
        return t

    def at(self, ops: str) -> bool:
        """Whether the next token is one of the operator characters ops."""
        kind, value, _ = self.toks[self.k]
        return kind == "op" and value in ops

    def expect_op(self, ch: str):
        if not self.at(ch):
            raise OperatorSyntaxError(f"expected {ch!r}", self.toks[self.k][2])
        self.k += 1

    def natural(self, message: str) -> int:
        """The next token as a natural number; message names what it is."""
        kind, value, pos = self.next()
        if kind != "num" or value.denominator != 1:
            raise OperatorSyntaxError(message, pos)
        return int(value)

    def parse(self):
        node = self.expr()
        kind, _, pos = self.toks[self.k]
        if kind != "end":
            raise OperatorSyntaxError("trailing input", pos)
        return node

    def expr(self):
        """A Sum of two parts or more, or the one part's term."""
        parts = [(1, self.term())]
        while self.at("+-"):
            parts.append((1 if self.next()[1] == "+" else -1, self.term()))
        return Sum(tuple(parts)) if len(parts) > 1 else parts[0][1]

    def term(self):
        factors = [self.factor()]
        while self.at("*"):
            self.k += 1
            factors.append(self.factor())
        return Mul(tuple(factors))

    def factor(self):
        if self.at("-"):
            self.descend(self.next()[2])
            node = Neg(self.factor())
            self.depth -= 1
            return node
        base = self.atom()
        if not self.at("^"):
            return base
        self.k += 1
        if self.at("-"):
            raise NegativeExponent("operator powers must be nonnegative")
        return Pow(base, self.natural("expected a natural number exponent"))

    def atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "(":
            self.descend(pos)
            node = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        if kind == "genkind":
            return self.generator(value, pos)
        raise OperatorSyntaxError("expected a literal, generator or '('", pos)

    def generator(self, kind: str, pos: int):
        idx = self.natural("generator needs a factor index")
        if kind != "e":
            return Gen(kind, idx, pos)
        self.expect_op("[")
        r = self.natural("expected a natural row index")
        self.expect_op(",")
        c = self.natural("expected a natural column index")
        self.expect_op("]")
        return Gen("e", idx, pos, r, c)


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
        acc, rest = _fold(node.factors, one) if isinstance(one, InElement) else (one, node.factors)
        for f in rest:
            acc = _bounded_product(acc, _evaluate(f, one, leaf))
        return acc
    out = {}
    for sign, part in node.parts:
        for k, v in _evaluate(part, one, leaf).terms.items():
            _acc(out, k, v if sign > 0 else -v)
    return one._new(_integral(out))


def _word(g: Gen, n: int) -> tuple:
    """The I1 word of the generator g, whose index must lie in 1..n."""
    if not 1 <= g.index <= n:
        raise IndexOutOfRange(f"index {g.index} outside 1..{n}", g.pos)
    return MatUnit(g.row, g.col) if g.kind == "e" else GEN_MONOS[g.kind]


def _fold(factors, one: InElement):
    """The product of the leading literals, generators and one-word powers
    (d^k, int^k and H^k with k <= MAX_DEGREE), each maybe negated, as a
    rational times one I1 word map per factor, and the factors left.  It ends
    at any other factor, at a product so far of 0, and where it could differ
    from element products: another map has several words, or the word pairs
    could emit over MAX_TERMS terms (a pair emits at most MAX_DEGREE + 1).
    _evaluate multiplies the rest as elements, with their terms, order and errors."""
    n, c, maps = one.n, 1, [{_UNIT: 1}] * one.n

    def value(c, maps):
        return one._new(_integral(_expand_into({}, maps, c)))

    for k, f in enumerate(factors):
        while isinstance(f, Neg):
            f, c = f.arg, -c
        if isinstance(f, Num):
            c *= f.value
            continue
        g, w = f.base if isinstance(f, Pow) else f, None
        if isinstance(g, Gen):
            tag, a, b = w = _word(g, n)
            if g is not f:
                w = None if tag or a * b or f.exp > MAX_DEGREE else (0, a * f.exp, b * f.exp)
        m = maps[g.index - 1] if w and c else None
        if not m or prod(map(len, maps)) != len(m) or len(m) * (MAX_DEGREE + 1) > MAX_TERMS:
            return value(c, maps), (f, *factors[k + 1:])
        maps[g.index - 1] = _words_mul(m, {w: 1})
    return value(c, maps), ()


def parse_operator(src: str, n: int = 1) -> InElement:
    """Parse an operator expression into its canonical element over n factors."""
    one = InElement.one(n)  # refuses a bad n ahead of any error in src
    return _evaluate(_Parser(src).parse(), one, lambda g: _gen(n, g.index, _word(g, n)))


def parse_poly(src: str, n: int = 1) -> PolyXn:
    """Parse a commutative polynomial in x1..xn with rational coefficients."""
    one = PolyXn.one(n)  # refuses a bad n ahead of any error in src

    def leaf(g: Gen) -> PolyXn:
        if g.kind != "x":
            raise OperatorSyntaxError(
                f"only x generators are allowed in polynomials, got {g.kind!r}", g.pos
            )
        _word(g, n)  # refuses an index outside 1..n
        return PolyXn.monomial(n, [int(k == g.index - 1) for k in range(n)])

    return _evaluate(_Parser(src).parse(), one, leaf)


# ---------------------------------------------------------------- printing

def format_operator(a: InElement) -> str:
    """Deterministic canonical text; parse(format(a)) = a for full-mode a."""
    return a.to_text()


def format_poly(p: PolyXn) -> str:
    """Canonical text of a polynomial in x1..xn."""
    return p.to_text()
