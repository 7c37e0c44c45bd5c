"""Canonical forms, byte for byte: a fixed seeded set of products,
involutions, grade components, quotient-mode products and skew divisions
printed and compared with `golden/forms.txt`.

After an intended change of printed output, rebuild the file with
`PYTHONPATH=src:tests python tests/test_forms_golden.py > tests/golden/forms.txt`.
"""

import random
from pathlib import Path

from intdiffop import format_operator, from_i1, left_divide, project_modulo_prime, right_divide

from conftest import rand_calb1, rand_calb1_nonzero, rand_i1, rand_in

FORMS = Path(__file__).parent / "golden" / "forms.txt"
SEEDS = range(12)


def forms_text() -> str:
    lines = []
    for seed in SEEDS:
        rng = random.Random(seed)
        a, b = rand_i1(rng), rand_i1(rng)
        ab = a * b
        low = min(ab.degrees(), default=0)
        lines += [
            f"{seed} i1 product: {format_operator(from_i1(ab))}",
            f"{seed} i1 involution: {format_operator(from_i1(ab.involution()))}",
            f"{seed} i1 grade {low}: {format_operator(from_i1(ab.grade_component(low)))}",
        ]
        for n in (2, 3):
            p = rand_in(rng, n) * rand_in(rng, n)
            lines += [
                f"{seed} n={n} product: {format_operator(p)}",
                f"{seed} n={n} involution: {format_operator(p.involution())}",
                f"{seed} n={n} grades -1, 0, 1: "
                + " | ".join(format_operator(p.grade_component(d)) for d in (-1, 0, 1)),
            ]
        u, v = rand_in(rng, 2, terms=3), rand_in(rng, 2, terms=3)
        q = project_modulo_prime(u, [2]) * project_modulo_prime(v, [2])
        lines.append(f"{seed} projected product: {format_operator(q)}")
        c, d = rand_calb1(rng, 2, 1), rand_calb1_nonzero(rng, 2, 1)
        for side, divide in (("right", right_divide), ("left", left_divide)):
            quo, rem = divide(c, d)
            lines += [
                f"{seed} {side} quotient: {quo.to_text()}",
                f"{seed} {side} remainder: {rem.to_text()}",
            ]
    return "\n".join(lines) + "\n"


def test_canonical_forms_match_the_golden():
    assert forms_text() == FORMS.read_text()


if __name__ == "__main__":
    print(forms_text(), end="")
