"""Parser and pretty-printer for operator expressions and polynomials.

Grammar (EBNF):

    expr      := term (('+'|'-') term)*
    term      := factor ('*' factor)*
    factor    := '-' factor | atom ('^' nat)?
    atom      := rational | generator | '(' expr ')'
    generator := ('x'|'d'|'int'|'H') index | 'e' index '[' nat ',' nat ']'

The factor index is mandatory and must lie in 1..n.  Rational literals are
`p` or `p/q` (the slash is lexer-level, never a division operator).  `^`
binds tighter than unary minus, which binds tighter than `*`.  Implicit
multiplication is rejected.  The Unicode aliases for d and int are accepted
on input only.  Parentheses and unary minus may nest at most MAX_DEPTH deep,
which also bounds the recursion of the evaluators over the parsed tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexOutOfRange, NegativeExponent, OperatorSyntaxError
from .i1 import DiffMon, HMon, IntMon, MatUnit
from .tensor import (
    B1Mon,
    InElement,
    MODE_FULL,
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

@dataclass(frozen=True)
class Token:
    kind: str  # 'num', 'gen', 'op', 'end'
    value: object
    pos: int


def _tokenize(src: str):
    out = []
    i = 0
    ln = len(src)
    while i < ln:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()[],":
            out.append(Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < ln and src[i].isdigit():
                i += 1
            num = int(src[start:i])
            if i < ln and src[i] == "/":
                j = i + 1
                if j >= ln or not src[j].isdigit():
                    raise OperatorSyntaxError("expected digits after '/'", i)
                i = j
                while i < ln and src[i].isdigit():
                    i += 1
                den = int(src[j:i])
                if den == 0:
                    raise OperatorSyntaxError("zero denominator in literal", start)
                out.append(Token("num", Fraction(num, den), start))
            else:
                out.append(Token("num", Fraction(num), start))
            continue
        if ch == "∂":  # ∂
            out.append(Token("genkind", "d", i))
            i += 1
            continue
        if ch == "∫":  # ∫
            out.append(Token("genkind", "int", i))
            i += 1
            continue
        if ch.isalpha():
            start = i
            while i < ln and src[i].isalpha():
                i += 1
            name = src[start:i]
            if name not in _GEN_KINDS:
                raise OperatorSyntaxError(f"unknown symbol {name!r}", start)
            out.append(Token("genkind", name, start))
            continue
        raise OperatorSyntaxError(f"unexpected character {ch!r}", i)
    out.append(Token("end", None, ln))
    return out


# ---------------------------------------------------------------- AST

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Gen:
    kind: str
    index: int
    row: int = 0
    col: int = 0


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class Mul:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    # list of (sign, node) with sign in {+1, -1}
    parts: tuple


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

    def expect_op(self, ch: str) -> Token:
        t = self.next()
        if t.kind != "op" or t.value != ch:
            raise OperatorSyntaxError(f"expected {ch!r}", t.pos)
        return t

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise OperatorSyntaxError("trailing input", t.pos)
        return node

    def expr(self):
        parts = [(1, self.term())]
        while True:
            t = self.peek()
            if t.kind == "op" and t.value in "+-":
                self.next()
                parts.append((1 if t.value == "+" else -1, self.term()))
            else:
                return Sum(tuple(parts))

    def term(self):
        factors = [self.factor()]
        while True:
            t = self.peek()
            if t.kind == "op" and t.value == "*":
                self.next()
                factors.append(self.factor())
            else:
                return Mul(tuple(factors))

    def factor(self):
        t = self.peek()
        if t.kind == "op" and t.value == "-":
            self.next()
            self.descend(t)
            node = Neg(self.factor())
            self.depth -= 1
            return node
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.value == "^":
            self.next()
            e = self.next()
            if e.kind == "op" and e.value == "-":
                raise NegativeExponent("operator powers must be nonnegative")
            if e.kind != "num" or e.value.denominator != 1:
                raise OperatorSyntaxError("expected a natural number exponent", e.pos)
            return Pow(base, int(e.value))
        return base

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
        idx_tok = self.next()
        if idx_tok.kind != "num" or idx_tok.value.denominator != 1:
            raise OperatorSyntaxError("generator needs a factor index", idx_tok.pos)
        idx = int(idx_tok.value)
        if t.value == "e":
            self.expect_op("[")
            r = self.next()
            if r.kind != "num" or r.value.denominator != 1:
                raise OperatorSyntaxError("expected a natural row index", r.pos)
            self.expect_op(",")
            c = self.next()
            if c.kind != "num" or c.value.denominator != 1:
                raise OperatorSyntaxError("expected a natural column index", c.pos)
            self.expect_op("]")
            return Gen("e", idx, int(r.value), int(c.value))
        return Gen(t.value, idx)


# ---------------------------------------------------------------- evaluation

def _eval_operator(node, n: int) -> InElement:
    if isinstance(node, Num):
        return InElement.from_scalar(n, node.value)
    if isinstance(node, Gen):
        if not 1 <= node.index <= n:
            raise IndexOutOfRange(f"index {node.index} outside 1..{n}")
        if node.kind == "x":
            return gen_x(n, node.index)
        if node.kind == "d":
            return gen_partial(n, node.index)
        if node.kind == "int":
            return gen_integ(n, node.index)
        if node.kind == "H":
            return gen_h(n, node.index)
        return gen_e(n, node.index, node.row, node.col)
    if isinstance(node, Neg):
        return -_eval_operator(node.arg, n)
    if isinstance(node, Pow):
        return _eval_operator(node.base, n) ** node.exp
    if isinstance(node, Mul):
        acc = InElement.from_scalar(n, 1)
        for f in node.factors:
            acc = acc * _eval_operator(f, n)
        return acc
    acc = InElement.zero(n)
    for sign, part in node.parts:
        v = _eval_operator(part, n)
        acc = acc + v if sign > 0 else acc - v
    return acc


def _eval_poly(node, n: int) -> PolyXn:
    if isinstance(node, Num):
        return PolyXn.one(n).scale(node.value)
    if isinstance(node, Gen):
        if node.kind != "x":
            raise OperatorSyntaxError(
                f"only x generators are allowed in polynomials, got {node.kind!r}", 0
            )
        if not 1 <= node.index <= n:
            raise IndexOutOfRange(f"index {node.index} outside 1..{n}")
        deg = tuple(1 if k == node.index - 1 else 0 for k in range(n))
        return PolyXn.monomial(n, deg)
    if isinstance(node, Neg):
        return -_eval_poly(node.arg, n)
    if isinstance(node, Pow):
        return _eval_poly(node.base, n) ** node.exp
    if isinstance(node, Mul):
        acc = PolyXn.one(n)
        for f in node.factors:
            acc = acc * _eval_poly(f, n)
        return acc
    acc = PolyXn(n)
    for sign, part in node.parts:
        v = _eval_poly(part, n)
        acc = acc + v if sign > 0 else acc - v
    return acc


def parse_operator(src: str, n: int = 1) -> InElement:
    """Parse an operator expression into its canonical element over n factors."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _eval_operator(_Parser(src).parse(), n)


def parse_poly(src: str, n: int = 1) -> PolyXn:
    """Parse a commutative polynomial in x1..xn with rational coefficients."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _eval_poly(_Parser(src).parse(), n)


# ---------------------------------------------------------------- printing

def _poly_factor_text(p, idx: int) -> str:
    """Polynomial in H as a single product factor, parenthesized if needed."""
    coeffs = p.coeffs
    if len(coeffs) == 1:
        ((j, c),) = coeffs.items()
        return _mono_text(c, _h_text(j, idx))
    return None  # caller must parenthesize


def _h_text(j: int, idx: int):
    if j == 0:
        return []
    if j == 1:
        return [f"H{idx}"]
    return [f"H{idx}^{j}"]


def _mono_text(coeff: Fraction, factors) -> tuple:
    """(sign, body) for coeff * product(factors)."""
    sign = 1 if coeff >= 0 else -1
    coeff = abs(coeff)
    if not factors:
        return sign, str(coeff)
    if coeff == 1:
        return sign, "*".join(factors)
    return sign, f"{coeff}*" + "*".join(factors)


def _join_segments(segments) -> str:
    if not segments:
        return "0"
    out = []
    for k, (sign, body) in enumerate(segments):
        if k == 0:
            out.append(body if sign > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(out)


def _poly_text_inline(p, idx: int):
    """Signed segments of a plain polynomial in H (no parentheses)."""
    segs = []
    for j in sorted(p.coeffs, reverse=True):
        segs.append(_mono_text(p.coeffs[j], _h_text(j, idx)))
    return segs


def _format_i1(a: InElement) -> str:
    """Eq.-(4)-ordered grouped form for a single factor."""
    from .polyh import PolyH

    dpolys, ipolys, eterms = {}, {}, {}
    a0 = PolyH()
    for (m,), v in a.terms.items():
        if isinstance(m, DiffMon):
            dpolys[m.i] = dpolys.get(m.i, PolyH()) + PolyH.monomial(m.j, v)
        elif isinstance(m, HMon):
            a0 = a0 + PolyH.monomial(m.j, v)
        elif isinstance(m, IntMon):
            ipolys[m.i] = ipolys.get(m.i, PolyH()) + PolyH.monomial(m.j, v)
        else:
            eterms[(m.s, m.t)] = v
    segs = []
    for i in sorted(dpolys, reverse=True):
        p = dpolys[i]
        dtxt = f"d1^{i}" if i > 1 else "d1"
        single = _poly_factor_text(p, 1)
        if single is not None:
            sign, body = single
            body = dtxt if body == "1" else f"{body}*{dtxt}"
            segs.append((sign, body))
        else:
            segs.append((1, f"({_join_segments(_poly_text_inline(p, 1))})*{dtxt}"))
    segs.extend(_poly_text_inline(a0, 1))
    for i in sorted(ipolys):
        p = ipolys[i]
        itxt = f"int1^{i}" if i > 1 else "int1"
        single = _poly_factor_text(p, 1)
        if single is not None:
            sign, body = single
            body = itxt if body == "1" else _reorder_int(body, itxt)
            segs.append((sign, body))
        else:
            segs.append((1, f"{itxt}*({_join_segments(_poly_text_inline(p, 1))})"))
    for (s, t) in sorted(eterms):
        segs.append(_mono_text(eterms[(s, t)], [f"e1[{s},{t}]"]))
    return _join_segments(segs)


def _reorder_int(body: str, itxt: str) -> str:
    """Place the H-part to the right of the int-power (canonical order)."""
    parts = body.split("*")
    hpart = [p for p in parts if p.startswith("H")]
    coeff = [p for p in parts if not p.startswith("H")]
    return "*".join(coeff + [itxt] + hpart)


def _factor_mono_text(m, idx: int):
    if isinstance(m, HMon):
        return _h_text(m.j, idx)
    if isinstance(m, DiffMon):
        d = f"d{idx}^{m.i}" if m.i > 1 else f"d{idx}"
        return _h_text(m.j, idx) + [d]
    if isinstance(m, IntMon):
        it = f"int{idx}^{m.i}" if m.i > 1 else f"int{idx}"
        return [it] + _h_text(m.j, idx)
    if isinstance(m, MatUnit):
        return [f"e{idx}[{m.s},{m.t}]"]
    # quotient-mode Laurent monomial
    d = [] if m.d == 0 else [f"D{idx}" if m.d == 1 else f"D{idx}^{m.d}"]
    return _h_text(m.j, idx) + d


def format_operator(a: InElement) -> str:
    """Deterministic canonical text; parse(format(a)) = a for full-mode a."""
    if a.is_zero():
        return "0"
    if a.n == 1 and a.modes == (MODE_FULL,):
        return _format_i1(a)
    segs = []
    for tup, v in a.sorted_terms():
        factors = []
        for k, m in enumerate(tup):
            factors.extend(_factor_mono_text(m, k + 1))
        segs.append(_mono_text(v, factors))
    return _join_segments(segs)


def format_poly(p: PolyXn) -> str:
    """Canonical text of a polynomial in x1..xn."""
    if p.is_zero():
        return "0"
    segs = []
    for deg in sorted(p.coeffs, key=lambda d: (sum(d), d), reverse=True):
        factors = []
        for k, e in enumerate(deg):
            if e == 1:
                factors.append(f"x{k + 1}")
            elif e > 1:
                factors.append(f"x{k + 1}^{e}")
        segs.append(_mono_text(p.coeffs[deg], factors))
    return _join_segments(segs)
