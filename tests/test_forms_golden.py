"""Canonical forms, byte for byte: a fixed seeded set of products,
involutions, grade components, quotient-mode products and skew divisions
printed and compared with `golden/forms.txt`.

After an intended change of printed output, rebuild the file with
`PYTHONPATH=src:tests python tests/test_forms_golden.py > tests/golden/forms.txt`.
"""

import random
from pathlib import Path

from intdiffop import format_operator, from_i1, left_divide, project_modulo_prime, right_divide
from intdiffop.laurent import CalB1Element

from conftest import calb1_coefficients, is_exact, rand_calb1, rand_calb1_nonzero, rand_i1, rand_in

FORMS = Path(__file__).parent / "golden" / "forms.txt"
SEEDS = range(12)


def forms():
    """The golden's lines as (label, values) pairs, in order."""
    for seed in SEEDS:
        rng = random.Random(seed)
        a, b = rand_i1(rng), rand_i1(rng)
        ab = a * b
        low = min(ab.degrees(), default=0)
        yield f"{seed} i1 product", [from_i1(ab)]
        yield f"{seed} i1 involution", [from_i1(ab.involution())]
        yield f"{seed} i1 grade {low}", [from_i1(ab.grade_component(low))]
        for n in (2, 3):
            p = rand_in(rng, n) * rand_in(rng, n)
            yield f"{seed} n={n} product", [p]
            yield f"{seed} n={n} involution", [p.involution()]
            yield f"{seed} n={n} grades -1, 0, 1", [p.grade_component(d) for d in (-1, 0, 1)]
        u, v = rand_in(rng, 2, terms=3), rand_in(rng, 2, terms=3)
        q = project_modulo_prime(u, [2]) * project_modulo_prime(v, [2])
        yield f"{seed} projected product", [q]
        c, d = rand_calb1(rng, 2, 1), rand_calb1_nonzero(rng, 2, 1)
        for side, divide in (("right", right_divide), ("left", left_divide)):
            quo, rem = divide(c, d)
            yield f"{seed} {side} quotient", [quo]
            yield f"{seed} {side} remainder", [rem]


def _text(x) -> str:
    return x.to_text() if isinstance(x, CalB1Element) else format_operator(x)


def forms_text() -> str:
    return "".join(f"{label}: {' | '.join(map(_text, values))}\n" for label, values in forms())


def test_canonical_forms_match_the_golden():
    assert forms_text() == FORMS.read_text()


def test_every_stored_coefficient_is_an_int_or_a_proper_fraction():
    for label, values in forms():
        for x in values:
            coeffs = calb1_coefficients(x) if isinstance(x, CalB1Element) else x.terms.values()
            assert all(map(is_exact, coeffs)), (label, x.terms)


if __name__ == "__main__":
    print(forms_text(), end="")
