"""Seeded input pools, timed operations and correctness oracles.

A workload is a pool of operations built from the seed alone.  Inputs are
first drawn as plain data (operator texts, integer coefficient lists, argv
lists), so the input hash does not depend on the engine's internal
representation; they are then turned into engine objects through the public
API.  Each operation pairs a zero-argument callable, the part that is timed,
with a check that judges its result afterwards by a route independent of the
code that produced it.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Callable

import intdiffop
from intdiffop.polyh import PolyH, RatFunc

# The package re-exports a function named `tensor`, which shadows the
# submodule attribute, so the modules are looked up by their full names.
cli, lattice, laurent, opparser, tensor = (
    import_module(f"intdiffop.{m}") for m in ("cli", "lattice", "laurent", "opparser", "tensor")
)

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("op_algebra", "skew_div", "cli_batch")


@dataclass
class Op:
    kind: str
    spec: str  # plain-data description of the inputs; feeds the input hash
    run: Callable[[], object]
    check: Callable[[object], bool]


def input_hash(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.kind}|{op.spec}\n".encode())
    return h.hexdigest()


def build(workload: str, seed: int, in_process_cli: bool = False):
    """The operation pool of a workload, in execution order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "op_algebra":
        return _op_algebra(rng)
    if workload == "skew_div":
        return _skew_div(rng)
    if workload == "cli_batch":
        return _cli_batch(rng, in_process_cli)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- operator texts

def _coeff_text(rng) -> str:
    num = rng.choice([1, 2, 3, 4])
    den = rng.choice([1, 1, 2, 3])
    return str(num) if den == 1 else f"{num}/{den}"


def _mono_text(rng, idx: int, kind: int, j: int, i: int, emax: int) -> str:
    """One basis monomial of factor idx: by kind H^j d^i, H^j, int^i H^j or e[s,t]."""
    h = [] if j == 0 else [f"H{idx}" if j == 1 else f"H{idx}^{j}"]
    if kind == 0:
        return "*".join(h + [f"d{idx}^{i}"])
    if kind == 1:
        return "*".join(h) or "1"
    if kind == 2:
        return "*".join([f"int{idx}^{i}"] + h)
    return f"e{idx}[{rng.randint(0, emax)},{rng.randint(0, emax)}]"


def _element_text(rng, n: int, terms: int, jmax=3, imax=3, emax=3) -> str:
    """A random element with the given number of terms.

    In each factor the monomial kind, the H exponent and the d/int exponent
    each cycle from a random start, so elements with equally many terms have
    the same mix of kinds and exponents and differ in where the cycles start,
    in matrix-unit indices and in coefficients.  emax < 0 leaves out matrix
    units.
    """
    kinds = 4 if emax >= 0 else 3
    starts = [(rng.randrange(kinds), rng.randrange(jmax + 1), rng.randrange(imax)) for _ in range(n)]
    out = []
    for k in range(terms):
        monos = [_mono_text(rng, f + 1, (ks + k) % kinds, (js + k) % (jmax + 1), 1 + (is_ + k) % imax, emax)
                 for f, (ks, js, is_) in enumerate(starts)]
        body = "*".join([_coeff_text(rng)] + monos)
        sign = rng.choice("+-")
        out.append((("-" if sign == "-" else "") if k == 0 else f" {sign} ") + body)
    return "".join(out)


def _gen_sum_text(n: int, coeffs) -> str:
    """Weighted sum of d_i, int_i, H_i (and x_1 when n = 1) over all factors."""
    gens = ["d1", "int1", "H1", "x1"] if n == 1 else [
        f"{g}{i}" for i in range(1, n + 1) for g in ("d", "int", "H")
    ]
    return " + ".join(f"{c}*{g}" for c, g in zip(coeffs, gens))


# ---------------------------------------------------------------- oracles

def _action_agrees(factors, prod) -> bool:
    """prod acts on K[x] as the composite of the factors (n = 1).

    The sample range covers the faithful bound of prod and of the true
    product, so agreement on it forces equality.
    """
    top = intdiffop.faithful_bound(prod) + sum(intdiffop.faithful_bound(f) for f in factors)
    for s in range(top + 1):
        vec = intdiffop.PolyX.monomial(s)
        for f in reversed(factors):
            vec = intdiffop.apply(f, vec)
        if intdiffop.apply(prod, intdiffop.PolyX.monomial(s)) != vec:
            return False
    return True


def _action_agrees_n(factors, prod, box=3) -> bool:
    """prod acts like the composite of the factors on every x^deg, deg < box."""
    n = prod.n
    for code in range(box ** n):
        deg = [(code // box ** k) % box for k in range(n)]
        vec = tensor.PolyXn.monomial(n, deg)
        for f in reversed(factors):
            vec = tensor.apply_n(f, vec)
        if tensor.apply_n(prod, tensor.PolyXn.monomial(n, deg)) != vec:
            return False
    return True


def check_triple_i1(a, b, c, r) -> bool:
    return r == a * (b * c) and _action_agrees([a, b, c], r)


def check_triple_n(a, b, c, r) -> bool:
    return r == a * (b * c) and _action_agrees_n([a, b, c], r)


def check_involution(a, b, p, r) -> bool:
    return r == b.involution() * a.involution() and r.involution() == p


def check_quotient(a, b, idx, r) -> bool:
    return r == tensor.project_modulo_prime(a * b, idx)


def check_power(base, k, r) -> bool:
    acc = base
    for _ in range(k - 1):
        acc = acc * base
    return r == acc


def check_division(b, c, right: bool, r) -> bool:
    q, rem = r
    recon = q * c + rem if right else c * q + rem
    return recon == b and (rem.is_zero() or laurent.length(rem) < laurent.length(c))


# ---------------------------------------------------------------- op_algebra

def _op_algebra(rng):
    """Element products in i1 and tensor, quotient-mode products and powers.

    Term counts run over a fixed grid, so every seed has the same mix of
    small and large products; only the monomials and coefficients are drawn.
    The power rows do not depend on the seed: the plain generator sum and a
    fixed weighted one, at every exponent.  The two variants put the tail
    percentile inside the power rows rather than on the boundary between
    them and the seeded products.
    """
    ops = []

    def i1(text):
        return tensor.to_i1(opparser.parse_operator(text, 1))

    small = dict(jmax=2, imax=2, emax=2)
    for terms in itertools.product((1, 2, 3, 4), repeat=3):
        for _ in range(4):
            texts = [_element_text(rng, 1, t) for t in terms]
            a, b, c = (i1(t) for t in texts)
            ops.append(Op("i1_triple", " ; ".join(texts), lambda a=a, b=b, c=c: (a * b) * c,
                          lambda r, a=a, b=b, c=c: check_triple_i1(a, b, c, r)))
    for n, repeats in ((2, 12), (3, 6)):
        for terms in itertools.product((1, 2), repeat=3):
            for _ in range(repeats):
                texts = [_element_text(rng, n, t, **small) for t in terms]
                a, b, c = (opparser.parse_operator(t, n) for t in texts)
                ops.append(Op(f"n{n}_triple", " ; ".join(texts), lambda a=a, b=b, c=c: (a * b) * c,
                              lambda r, a=a, b=b, c=c: check_triple_n(a, b, c, r)))
    for n in (2, 3):
        for terms in itertools.product((1, 2, 3), repeat=2):
            texts = [_element_text(rng, n, t, **small) for t in terms]
            a, b = (opparser.parse_operator(t, n) for t in texts)
            p = a * b
            ops.append(Op(f"n{n}_involution", " ; ".join(texts), lambda p=p: p.involution(),
                          lambda r, a=a, b=b, p=p: check_involution(a, b, p, r)))
            texts = [_element_text(rng, n, t, **small) for t in terms]
            a, b = (opparser.parse_operator(t, n) for t in texts)
            for _ in range(2):
                idx = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
                ops.append(Op(f"n{n}_quotient", " ; ".join(texts) + f" ; {idx}",
                              lambda a=a, b=b, idx=idx: tensor.project_modulo_prime(a, idx)
                              * tensor.project_modulo_prime(b, idx),
                              lambda r, a=a, b=b, idx=idx: check_quotient(a, b, idx, r)))
    rows = [(1, k) for k in range(2, 8)] + [(2, 3), (3, 2), (3, 3)]
    for n, k in rows:
        for weights in ((1, 1, 1), (1, 2, 3)):
            text = _gen_sum_text(n, weights * 3)
            base = i1(text) if n == 1 else opparser.parse_operator(text, n)
            ops.append(Op(f"pow_n{n}_k{k}", f"({text})^{k}", lambda base=base, k=k: base ** k,
                          lambda r, base=base, k=k: check_power(base, k, r)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- skew_div

def _poly_spec(rng, deg: int):
    """Dense integer coefficient list of exactly the given degree."""
    return [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(deg + 1)]


def _calb1_spec(rng, span: int, cdeg: int):
    """Dense Laurent support of length `span`, every coefficient a ratio of
    two polynomials of degree exactly cdeg."""
    lo = -(span // 2)
    return {d: (_poly_spec(rng, cdeg), _poly_spec(rng, cdeg)) for d in range(lo, lo + span + 1)}


def _calb1(spec):
    return laurent.CalB1Element({
        d: RatFunc(PolyH(dict(enumerate(num))), PolyH(dict(enumerate(den))))
        for d, (num, den) in spec.items()
    })


SKEW_CELLS = [
    (span_b, span_c, cdeg)
    for span_b in range(1, 5)
    for span_c in range(0, min(span_b, 2) + 1)
    for cdeg in (1, 2)
    if not (span_b >= 3 and span_c >= 1 and cdeg == 2)
]
SKEW_PAIRS_PER_CELL = 12


def _skew_div(rng):
    """right_divide and left_divide over a grid of lengths and coefficient degrees.

    Cost grows steeply with the number of division steps and with the
    coefficient degree, and varies by a factor of about three between random
    pairs of one cell, so every cell gets the same number of pairs: each seed
    then populates the tail with the same mix of hard cases.  Degree 2 over
    three or more steps against a divisor of length >= 1 is left out: those
    cells cost 0.05 to 0.5 s a pair, would dominate the run, and with few
    pairs each would make the tail a draw of a handful of outliers.
    """
    ops = []
    for span_b, span_c, cdeg in SKEW_CELLS:
        for _ in range(SKEW_PAIRS_PER_CELL):
            bs, cs = _calb1_spec(rng, span_b, cdeg), _calb1_spec(rng, span_c, cdeg)
            b, c = _calb1(bs), _calb1(cs)
            for name in ("right_divide", "left_divide"):
                ops.append(Op(name, f"{bs} ; {cs}",
                              lambda b=b, c=c, name=name: getattr(laurent, name)(b, c),
                              lambda r, b=b, c=c, name=name: check_division(b, c, name == "right_divide", r)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- cli_batch

GOLDEN = [
    (["normalize", "int1*d1"], "1 - e1[0,0]\n"),
    (["normalize", "-n", "2", "d1*int1 + x2"], "1 + int2*H2\n"),
    (["involute", "H1*d1"], "int1*H1\n"),
    (["grade", "x1", "-d", "1"], "int1*H1\n"),
    (["apply", "d1", "--to", "x1^3"], "3*x1^2\n"),
    (["project", "int1", "--primes", "1"], "D1^-1\n"),
    (["ideal", "sum", "-n", "2", "{01}", "{10}"], "{01,10}\n"),
    (["ideal", "prod", "-n", "2", "{01}", "{10}"], "{00}\n"),
    (["ideal", "minprimes", "-n", "2", "{00}"], "{1}\n{2}\n"),
    (["dedekind", "3"], "20\nbounds ok\n"),
    (["divide", "--right", "d1 + H1", "d1 + 1"], "q = 1\nr = H1 - 1\n"),
    (["check", "relations"], (
        'd1*int1 = 1                                             PASS\n'
        'H1*int1 - int1*H1 = int1                                PASS\n'
        'H1*d1 - d1*H1 = -d1                                     PASS\n'
        'H1*(1-int1*d1) = (1-int1*d1)*H1 = 1-int1*d1             PASS\n'
        'int1*d1 = 1 - e1[0,0]                                   PASS\n'
        '5 checks, all passed\n'
    )),
]

DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}

ERRORS = [
    (["normalize", "d1 +"], 2),
    (["normalize"], 2),
    (["ideal", "sum", "-n", "2", "{012}", "{10}"], 2),
    (["normalize", "d3"], 1),
    (["normalize", "d1^-1"], 1),
    (["dedekind", "7"], 1),
    (["divide", "--right", "d1", "0"], 1),
]

SIZES = [round(10 * 300 ** (k / 5)) for k in range(6)]  # 10 B .. 3 KB
BYTES_PER_TERM = {1: 14, 2: 24, 3: 34}


def _canonical(rng, n: int, size: int):
    """Canonical text of a random element of about `size` bytes, and the element."""
    a = opparser.parse_operator(_element_text(rng, n, max(1, round(size / BYTES_PER_TERM[n]))), n)
    return opparser.format_operator(a), a


def _antichain_text(rng, n: int) -> str:
    masks = rng.sample(range(1 << n), rng.randint(1, min(3, 1 << n)))
    return "{" + ",".join("".join("1" if (m >> k) & 1 else "0" for k in range(n)) for m in masks) + "}"


def _relations_ok(n, out: bytes) -> bool:
    lines = out.decode().splitlines()
    return (len(lines) == 5 * n + 1 and all(ln.endswith(" PASS") for ln in lines[:-1])
            and lines[-1] == f"{5 * n} checks, all passed")


def _expect(argv, a, n):
    """Expected stdout of a command on element a, computed through the library API."""
    op = argv[0]
    if op == "involute":
        return opparser.format_operator(a.involution()) + "\n"
    if op == "grade":
        return opparser.format_operator(a.grade_component(int(argv[-1]))) + "\n"
    if op == "project":
        idx = [int(i) for i in argv[-1].split(",")]
        return opparser.format_operator(tensor.project_modulo_prime(a, idx)) + "\n"
    if op == "apply":
        p = opparser.parse_poly(argv[-1], n)
        return opparser.format_poly(tensor.apply_n(a, p)) + "\n"
    raise ValueError(op)


def _cli_commands(rng):
    """(argv, judge) pairs; judge(rc, stdout) decides correctness."""
    cmds = []

    def exact(rc_want, out_want):
        return lambda rc, out: rc == rc_want and out == out_want.encode()

    for n in (1, 2, 3):
        for size in SIZES:
            text, _ = _canonical(rng, n, size)
            cmds.append((["normalize", "-n", str(n), "--", text], exact(0, text + "\n")))
    for k in range(16):
        op = ("involute", "grade", "project", "apply")[k % 4]
        n = 1 + k % 3
        text, a = _canonical(rng, n, SIZES[k % len(SIZES)])
        argv = [op, "-n", str(n)]
        if op == "grade":
            argv += ["-d", str(rng.randint(-2, 2))]
        elif op == "project":
            argv += ["--primes", ",".join(map(str, sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))))]
        elif op == "apply":
            argv += ["--to", " + ".join(
                f"{rng.randint(1, 5)}*" + "*".join(f"x{i}^{rng.randint(0, 4)}" for i in range(1, n + 1))
                for _ in range(rng.randint(1, 3)))]
        want = _expect(argv, a, n)
        cmds.append((argv + ["--", text], exact(0, want)))
    for k, op in enumerate(("sum", "prod", "includes", "member", "minprimes", "isprime")):
        n = 2 + k % 3
        c1, c2 = _antichain_text(rng, n), _antichain_text(rng, n)
        a1 = lattice.IdealAntichain.from_text(c1, n)
        a2 = lattice.IdealAntichain.from_text(c2, n)
        if op == "sum":
            argv, want = [c1, c2], lattice.ideal_sum(a1, a2).to_text()
        elif op == "prod":
            argv, want = [c1, c2], lattice.ideal_product(a1, a2).to_text()
        elif op == "includes":
            argv, want = [c1, c2], str(lattice.ideal_includes(a1, a2)).lower()
        elif op == "member":
            text, a = _canonical(rng, n, SIZES[2])
            if text.startswith("-"):  # a leading '-' would read as an option
                a = -a
                text = opparser.format_operator(a)
            argv = [text, c2]
            want = str(tensor.ideal_membership(a, a2)).lower()
        elif op == "minprimes":
            argv = [c1]
            want = "".join("{" + ",".join(map(str, sorted(s))) + "}\n"
                           for s in sorted(lattice.minimal_primes_over(a1), key=sorted))
        else:
            argv, want = [c1], str(lattice.is_prime(a1)).lower()
        if op != "minprimes":
            want += "\n"
        cmds.append((["ideal", op, "-n", str(n), *argv], exact(0, want)))
    for n, count in DEDEKIND.items():
        cmds.append((["dedekind", str(n)], exact(0, f"{count}\nbounds ok\n")))
    for k in range(4):
        b, c = (_element_text(rng, 1, rng.randint(1, 3), jmax=2, imax=2, emax=-1)
                for _ in range(2))
        right = k % 2 == 0
        # no matrix units, distinct kinds per term: the divisor never projects to 0
        bb, cc = (intdiffop.project_B1(tensor.to_i1(opparser.parse_operator(t, 1))).to_calb1() for t in (b, c))
        q, r = (laurent.right_divide if right else laurent.left_divide)(bb, cc)
        want = f"q = {q.to_text('D', 'H1')}\nr = {r.to_text('D', 'H1')}\n"
        cmds.append((["divide", "--right" if right else "--left", "--", b, c], exact(0, want)))
    for n in (1, 2, 3):
        cmds.append((["check", "relations", "-n", str(n)],
                     lambda rc, out, n=n: rc == 0 and _relations_ok(n, out)))
    for argv, want in GOLDEN:
        cmds.append((argv, exact(0, want)))
    for argv, rc_want in ERRORS:
        cmds.append((argv, lambda rc, out, rc_want=rc_want: rc == rc_want and out == b""))
    return cmds


def cli_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_process(argv, env):
    proc = subprocess.run([sys.executable, "-m", "intdiffop.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue().encode(), err.getvalue().encode()


def check_cli(judge, r) -> bool:
    rc, out, err = r
    return judge(rc, out) and b"Traceback" not in err and (rc != 0 or err == b"")


def _cli_batch(rng, in_process: bool):
    """Each command is a fresh interpreter, as a CLI user runs it.

    With in_process set, commands are replayed through cli.run in this
    process instead; the traced run uses that to see inside the layers.
    """
    env = cli_env()
    ops = []
    for argv, judge in _cli_commands(rng):
        run = (lambda argv=argv: run_cli_in_process(argv)) if in_process else (
            lambda argv=argv: run_cli_process(argv, env))
        ops.append(Op(f"cli_{argv[0]}", repr(argv), run, lambda r, judge=judge: check_cli(judge, r)))
    rng.shuffle(ops)
    return ops
