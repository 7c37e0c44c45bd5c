"""Acceptance gate: twelve property-based criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Each criterion is independent; sizes and runtime limits are pinned in the
test bodies.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

from intdiffop import (
    I1Element,
    IdealAntichain,
    MatUnit,
    PolyH,
    apply_n,
    dedekind_bounds,
    decompose_lemma21,
    enumerate_ideals,
    format_operator,
    from_i1,
    generators,
    ideal_membership,
    ideal_product,
    ideal_sum,
    idempotent_sum,
    is_prime,
    ker_right_mult_poly,
    left_divide,
    length,
    minimal_primes_over,
    mono_mul,
    parse_operator,
    prime_ideal,
    project_B1,
    right_divide,
    tensor,
)
from intdiffop.i1 import from_polyh
from intdiffop.tensor import PolyXn

from conftest import (
    matrix_oracle_agrees,
    rand_calb1,
    rand_calb1_nonzero,
    rand_homog_i1,
    rand_i1,
    rand_in,
)

D, INT, H, X = generators()
HP = PolyH.monomial(1)


def report(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def e(s, t):
    return I1Element.from_mono(MatUnit(s, t))


def test_01_relation_suite():
    start = time.perf_counter()
    ok = D * INT == 1
    ok = ok and H * INT - INT * H == INT
    ok = ok and H * D - D * H == -D
    proj = 1 - INT * D
    ok = ok and H * proj == proj and proj * H == proj
    for i in range(1, 11):
        ok = ok and INT**i * D**i == 1 - idempotent_sum(i)
    for i in range(6):
        for j in range(6):
            for k in range(6):
                for ell in range(6):
                    expect = e(i, ell) if j == k else I1Element.zero()
                    ok = ok and mono_mul(MatUnit(i, j), MatUnit(k, ell)) == expect
    elapsed = time.perf_counter() - start
    report(1, "relation suite", ok and elapsed < 1.0)


def test_02_associativity_and_faithfulness():
    start = time.perf_counter()
    ok = True
    rng = random.Random(101)
    for _ in range(1000):
        a, b, c = (rand_i1(rng, terms=2, jmax=2, imax=2, emax=2) for _ in range(3))
        left = (a * b) * c
        ok = ok and left == a * (b * c)
        ok = ok and matrix_oracle_agrees([a, b, c], left)
    for _ in range(200):
        a, b, c = (rand_in(rng, 2, terms=2, jmax=2, imax=2, emax=2) for _ in range(3))
        left = (a * b) * c
        ok = ok and left == a * (b * c)
        # action oracle on a monomial grid (the n = 2 matrix-column analog)
        for s1 in range(4):
            for s2 in range(4):
                p = PolyXn.monomial(2, (s1, s2))
                ok = ok and apply_n(left, p) == apply_n(a, apply_n(b, apply_n(c, p)))
    elapsed = time.perf_counter() - start
    report(2, "associativity + matrix oracle", ok and elapsed < 30.0)


def test_03_involution():
    ok = True
    rng = random.Random(102)
    for _ in range(250):
        a, b = rand_i1(rng), rand_i1(rng)
        ok = ok and (a * b).involution() == b.involution() * a.involution()
        ok = ok and a.involution().involution() == a
    for _ in range(250):
        a, b = rand_in(rng, 2), rand_in(rng, 2)
        ok = ok and (a * b).involution() == b.involution() * a.involution()
        ok = ok and a.involution().involution() == a
    for s in range(6):
        for t in range(6):
            ok = ok and e(s, t).involution() == e(t, s)
    report(3, "involution", ok)


def test_04_grading():
    ok = True
    rng = random.Random(103)
    for _ in range(200):
        i, j = rng.randint(-3, 3), rng.randint(-3, 3)
        a, b = rand_homog_i1(rng, i), rand_homog_i1(rng, j)
        p = a * b
        ok = ok and p.grade_component(i + j) == p
    report(4, "grading", ok)


def test_05_quotient_homomorphism():
    ok = True
    rng = random.Random(104)
    for _ in range(500):
        a, b = rand_i1(rng), rand_i1(rng)
        ok = ok and project_B1(a * b) == project_B1(a) * project_B1(b)
    # kernel exactly F: vanishing of the image iff all terms are matrix units
    for _ in range(300):
        a = rand_i1(rng)
        ok = ok and project_B1(a).is_zero() == a.is_in_F()
    ok = ok and project_B1(e(2, 3)).is_zero()
    ok = ok and not project_B1(1 - e(0, 0)).is_zero()
    report(5, "quotient homomorphism, kernel F", ok)


def test_06_decomposition():
    ok = True
    # worked examples
    u, c = decompose_lemma21(D, 1)
    ok = ok and u == 1 and c.is_zero()
    u, c = decompose_lemma21(e(0, 0), 1)
    ok = ok and u.is_zero() and c == e(0, 0)
    u, c = decompose_lemma21(I1Element.from_scalar(1), 2)
    ok = ok and u == INT**2 and c == e(0, 0) + e(1, 1)
    ok = ok and u * D**2 + c == 1  # 1 = int^2*d^2 + e[0,0] + e[1,1]
    rng = random.Random(105)
    for _ in range(200):
        a = rand_i1(rng)
        n = rng.randint(1, 4)
        u, c = decompose_lemma21(a, n)
        ok = ok and u * D**n + c == a
        ok = ok and c.is_in_F() and all(t < n for _, _, t in c.terms)
        ok = ok and ((u * D**n) * idempotent_sum(n)).is_zero()
    report(6, "direct-sum decomposition", ok)


def test_07_right_multiplication_kernel():
    ok = True
    rng = random.Random(106)
    for _ in range(50):
        alpha = PolyH.const(rng.randint(1, 3))
        for _ in range(rng.randint(0, 5)):
            alpha = alpha * (HP - rng.randint(-2, 8))
        ker = ker_right_mult_poly(alpha)
        el = from_polyh(alpha)
        for i in range(31):
            for j in range(6):
                ok = ok and (e(j, i) * el).is_zero() == (i in ker)
        ok = ok and len(ker) == sum(1 for i in range(31) if alpha(i + 1) == 0)
    report(7, "right-multiplication kernel", ok)


def test_08_ideal_enumeration():
    start = time.perf_counter()
    ok = True
    expected = [3, 6, 20, 168, 7581]
    for n in range(1, 6):
        ideals = enumerate_ideals(n)
        count = len(ideals)
        lower, upper = dedekind_bounds(n)
        ok = ok and count == expected[n - 1]
        ok = ok and lower <= count <= upper
        if n <= 4:
            ok = ok and sum(1 for c in ideals if is_prime(c)) == 2**n
    elapsed = time.perf_counter() - start
    report(8, "ideal enumeration", ok and elapsed < 60.0)


def test_09_lattice_laws():
    ok = True
    ideals = enumerate_ideals(3)
    ok = ok and len(ideals) == 20

    def downset(c):
        return frozenset(
            f for f in range(8) if any(f & g == f for g in c.masks)
        )

    for a in ideals:
        ok = ok and ideal_product(a, a) == a
        for b in ideals:
            p = ideal_product(a, b)
            ok = ok and p == ideal_product(b, a)
            ok = ok and downset(p) == downset(a) & downset(b)  # product = meet
            for c in (ideals[0], ideals[7], ideals[13]):
                ok = ok and ideal_product(a, ideal_sum(b, c)) == ideal_sum(
                    ideal_product(a, b), ideal_product(a, c)
                )
                ok = ok and ideal_sum(a, ideal_product(b, c)) == ideal_product(
                    ideal_sum(a, b), ideal_sum(a, c)
                )
    for c in ideals:
        prod = IdealAntichain.full(3)
        for idx in minimal_primes_over(c):
            prod = ideal_product(prod, prime_ideal(3, idx))
        ok = ok and prod == c
    report(9, "lattice laws", ok)


def test_10_cross_level_oracle():
    ok = True
    rng = random.Random(107)
    ideals = enumerate_ideals(2)

    def rand_member(c):
        if c.is_zero():
            return tensor([I1Element.zero(), I1Element.zero()])
        mask = rng.choice(c.masks)
        factors = []
        for k in range(2):
            if (mask >> k) & 1:
                factors.append(rand_i1(rng, terms=2))
            else:
                factors.append(e(rng.randint(0, 2), rng.randint(0, 2)))
        return tensor(factors)

    for c1 in ideals:
        for c2 in ideals:
            prod_ideal = ideal_product(c1, c2)
            for _ in range(30):
                a, b = rand_member(c1), rand_member(c2)
                ok = ok and ideal_membership(a * b, prod_ideal)
    report(10, "cross-level product oracle", ok)


def test_11_skew_division():
    ok = True
    rng = random.Random(108)
    for _ in range(500):
        b = rand_calb1(rng, degspan=3, cdeg=2)
        c = rand_calb1_nonzero(rng, degspan=2, cdeg=2)
        if length(c) is not None and length(c) > 4:
            continue
        q, r = right_divide(b, c)
        ok = ok and q * c + r == b
        ok = ok and (r.is_zero() or length(r) < length(c))
        q, r = left_divide(b, c)
        ok = ok and c * q + r == b
        ok = ok and (r.is_zero() or length(r) < length(c))
    report(11, "skew Euclidean division", ok)


def test_12_parser_and_cli():
    ok = True
    rng = random.Random(109)
    for _ in range(500):
        a = from_i1(rand_i1(rng, terms=4))
        ok = ok and parse_operator(format_operator(a), 1) == a
    for _ in range(500):
        a = rand_in(rng, 2, terms=3)
        ok = ok and parse_operator(format_operator(a), 2) == a

    golden = Path(__file__).parent / "golden"
    cases = [
        ("01_normalize.txt", ["normalize", "int1*d1"]),
        ("07_ideal_sum.txt", ["ideal", "sum", "-n", "2", "{01}", "{10}"]),
        ("10_dedekind.txt", ["dedekind", "3"]),
        ("11_divide.txt", ["divide", "--right", "d1 + H1", "d1 + 1"]),
        ("12_check.txt", ["check", "relations"]),
    ]
    for fname, args in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "intdiffop.cli", *args], capture_output=True
        )
        ok = ok and proc.returncode == 0
        ok = ok and proc.stdout == (golden / fname).read_bytes()

    exit_cases = [
        (["normalize", "d1"], 0),
        (["normalize", "-n", "2", "x3"], 1),
        (["normalize", "d1^-1"], 1),
        (["divide", "--right", "d1", "0"], 1),
        (["dedekind", "7"], 1),
        (["normalize", "d1*"], 2),
        (["ideal", "sum", "{1}"], 2),
        (["bogus"], 2),
    ]
    for args, expected in exit_cases:
        proc = subprocess.run(
            [sys.executable, "-m", "intdiffop.cli", *args], capture_output=True
        )
        ok = ok and proc.returncode == expected
    report(12, "parser round-trip + CLI contract", ok)
