"""Command-line front-end: a batch desk calculator and verification harness.

All output is deterministic UTF-8, one logical result per line.  Exit codes:
0 success, 1 domain error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import lattice
from .errors import IntDiffOpError, OperatorSyntaxError
from .laurent import left_divide, right_divide
from .i1 import project_B1
from .lattice import IdealAntichain, dedekind_bounds, enumerate_ideals
from .opparser import format_operator, format_poly, parse_operator, parse_poly
from .tensor import (
    apply_n,
    gen_e,
    gen_h,
    gen_integ,
    gen_partial,
    ideal_membership,
    project_modulo_prime,
    to_i1,
)


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgError(message)


def _count(text: str) -> int:
    """The argparse type of every count: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_index_list(text: str) -> list:
    """The argparse type of --primes: comma-separated factor indices."""
    try:
        return [int(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated factor indices, got {text!r}") from None


def _build_parser() -> _Parser:
    p = _Parser(prog="intdiffop", description="Exact integro-differential operator calculator")
    p.add_argument("--machine", action="store_true", help="machine-readable output lines")
    sub = p.add_subparsers(dest="command", required=True)

    def with_n(sp, default=1):
        sp.add_argument("-n", type=_count, default=default, help="number of tensor factors")

    sp = sub.add_parser("normalize", help="print the canonical form")
    with_n(sp)
    sp.add_argument("expr")

    sp = sub.add_parser("apply", help="apply an operator to a polynomial")
    with_n(sp)
    sp.add_argument("expr")
    sp.add_argument("--to", required=True, dest="poly")

    sp = sub.add_parser("involute", help="apply the involution")
    with_n(sp)
    sp.add_argument("expr")

    sp = sub.add_parser("grade", help="extract a homogeneous component")
    with_n(sp)
    sp.add_argument("expr")
    sp.add_argument("-d", type=int, required=True, dest="degree")

    sp = sub.add_parser("project", help="quotient by a sum of height-one primes")
    with_n(sp)
    sp.add_argument("expr")
    sp.add_argument("--primes", type=_parse_index_list, required=True,
                    help="comma-separated factor indices")

    sp = sub.add_parser("ideal", help="antichain-encoded ideal operations")
    with_n(sp)
    ops = sp.add_subparsers(dest="op", required=True)
    for name, operands in (("sum", "c1 c2"), ("prod", "c1 c2"), ("includes", "c1 c2"),
                           ("member", "expr c"), ("minprimes", "c"), ("isprime", "c")):
        op = ops.add_parser(name)
        # SUPPRESS: an -n given before the operation is not reset here
        with_n(op, argparse.SUPPRESS)
        for operand in operands.split():
            op.add_argument(operand)

    sp = sub.add_parser("dedekind", help="count the ideals over n factors")
    sp.add_argument("N", type=_count)

    sp = sub.add_parser("divide", help="Euclidean division in the Laurent quotient")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--left", action="store_true")
    g.add_argument("--right", action="store_true")
    sp.add_argument("b")
    sp.add_argument("c")

    sp = sub.add_parser("check", help="verification suites")
    sp.add_argument("what", choices=["relations"])
    with_n(sp)
    return p


def _bool_text(v: bool) -> str:
    return "true" if v else "false"


def _subset_text(s) -> str:
    return "{" + ",".join(str(i) for i in sorted(s)) + "}"


def _relation_suite(n: int):
    """The defining-relation identities, checked per factor."""
    rows = []
    for i in range(1, n + 1):
        d = gen_partial(n, i)
        integ = gen_integ(n, i)
        h = gen_h(n, i)
        rows.append((f"d{i}*int{i} = 1", d * integ == 1))
        rows.append((f"H{i}*int{i} - int{i}*H{i} = int{i}", h * integ - integ * h == integ))
        rows.append((f"H{i}*d{i} - d{i}*H{i} = -d{i}", h * d - d * h == -d))
        proj = 1 - integ * d
        rows.append((
            f"H{i}*(1-int{i}*d{i}) = (1-int{i}*d{i})*H{i} = 1-int{i}*d{i}",
            h * proj == proj and proj * h == proj,
        ))
        e00 = gen_e(n, i, 0, 0)
        rows.append((f"int{i}*d{i} = 1 - e{i}[0,0]", integ * d == 1 - e00))
    return rows


def run(argv) -> int:
    """Execute one command; returns the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _ArgError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return _dispatch(ns)
    except OperatorSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except IntDiffOpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(ns) -> int:
    if ns.command == "normalize":
        print(format_operator(parse_operator(ns.expr, ns.n)))
    elif ns.command == "apply":
        a = parse_operator(ns.expr, ns.n)
        p = parse_poly(ns.poly, ns.n)
        print(format_poly(apply_n(a, p)))
    elif ns.command == "involute":
        print(format_operator(parse_operator(ns.expr, ns.n).involution()))
    elif ns.command == "grade":
        print(format_operator(parse_operator(ns.expr, ns.n).grade_component(ns.degree)))
    elif ns.command == "project":
        a = parse_operator(ns.expr, ns.n)
        print(format_operator(project_modulo_prime(a, ns.primes)))
    elif ns.command == "ideal":
        return _ideal_command(ns)
    elif ns.command == "dedekind":
        ideals = enumerate_ideals(ns.N)
        count = len(ideals)
        lower, upper = dedekind_bounds(ns.N)
        print(count)
        if not ns.machine:
            print("bounds ok" if lower <= count <= upper else "bounds violated")
        if not lower <= count <= upper:
            return 1
    elif ns.command == "divide":
        b = project_B1(to_i1(parse_operator(ns.b, 1))).to_calb1()
        c = project_B1(to_i1(parse_operator(ns.c, 1))).to_calb1()
        # both texts are made before either is printed
        q, r = (x.to_text("D", "H1") for x in (left_divide if ns.left else right_divide)(b, c))
        print(q if ns.machine else f"q = {q}")
        print(r if ns.machine else f"r = {r}")
    elif ns.command == "check":
        rows = _relation_suite(ns.n)
        ok = True
        for name, passed in rows:
            ok = ok and passed
            if ns.machine:
                print("pass" if passed else "fail")
            else:
                print(f"{name:<55s} {'PASS' if passed else 'FAIL'}")
        if not ns.machine:
            print(f"{len(rows)} checks, {'all passed' if ok else 'FAILURES'}")
        if not ok:
            return 1
    return 0


def _ideal_command(ns) -> int:
    def ideal(text):
        return IdealAntichain.from_text(text, ns.n)

    if ns.op == "sum":
        print(lattice.ideal_sum(ideal(ns.c1), ideal(ns.c2)).to_text())
    elif ns.op == "prod":
        print(lattice.ideal_product(ideal(ns.c1), ideal(ns.c2)).to_text())
    elif ns.op == "includes":
        print(_bool_text(lattice.ideal_includes(ideal(ns.c1), ideal(ns.c2))))
    elif ns.op == "member":
        print(_bool_text(ideal_membership(parse_operator(ns.expr, ns.n), ideal(ns.c))))
    elif ns.op == "minprimes":
        for s in sorted(lattice.minimal_primes_over(ideal(ns.c)), key=lambda s: sorted(s)):
            print(_subset_text(s))
    else:
        print(_bool_text(lattice.is_prime(ideal(ns.c))))
    return 0


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone: see SIGPIPE in the signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
