"""Parse errors, byte for byte: every error message of the lexer and the
parser at two positions, the nesting limit, out-of-range indices, the
polynomial generator rule and seeded random strings over the grammar's
characters, each printed with its canonical text or its error and compared
with `golden/parse_errors.txt`.

After an intended change of printed output, rebuild the file with
`PYTHONPATH=src:tests python tests/test_parse_errors_golden.py > tests/golden/parse_errors.txt`.
"""

import random
from pathlib import Path

from intdiffop import format_operator, format_poly, parse_operator, parse_poly
from intdiffop.errors import IntDiffOpError

PARSE_ERRORS = Path(__file__).parent / "golden" / "parse_errors.txt"

# (parser, n, text); "op" is parse_operator, "poly" is parse_poly
CASES = [
    # lexer
    ("op", 1, "3/"),
    ("op", 1, "d1 + 1/x1"),
    ("op", 1, "1/0"),
    ("op", 1, "H1 - 2/00"),
    ("op", 1, "q1"),
    ("op", 1, "d1*foo1"),
    ("op", 1, "D1"),
    ("op", 1, "d1 ! 2"),
    ("op", 1, "x1.5"),
    ("op", 1, "1/2/3"),
    ("op", 1, "d1_2"),
    ("op", 1, "\td1 #"),
    # parser
    ("op", 1, "(" * 201 + "d1" + ")" * 201),
    ("op", 1, "x1 + " + "-" * 201 + "d1"),
    ("op", 1, "-(" * 100 + "d1" + ")^1" * 100),
    ("op", 1, "(d1 + 1"),
    ("op", 1, "((x1)"),
    ("op", 1, "e1 0,0]"),
    ("op", 1, "d1 + e1(0,0]"),
    ("op", 1, "e1[0 0]"),
    ("op", 1, "e1[0;0]"),
    ("op", 1, "e1[0,0"),
    ("op", 1, "e1[0,0)"),
    ("op", 1, "d1)"),
    ("op", 1, "2 H1"),
    ("op", 1, "d1 d1"),
    ("op", 1, "d1^"),
    ("op", 1, "d1^1/2"),
    ("op", 1, "x1^x1"),
    ("op", 1, "d1*"),
    ("op", 1, ""),
    ("op", 1, "+d1"),
    ("op", 1, "d1 + *"),
    ("op", 1, "d*int1"),
    ("op", 1, "int1 + H"),
    ("op", 1, "x1/2"),
    ("op", 1, "e1[x,0]"),
    ("op", 1, "e1[1/2,0]"),
    ("op", 1, "e1[0,]"),
    ("op", 1, "e1[0,-1]"),
    ("op", 1, "d1^-1"),
    ("op", 1, "(x1)^-2"),
    ("op", 2, "x3"),
    ("op", 2, "d1 + x3"),
    ("op", 1, "d0"),
    ("op", 0, "d1"),
    # accepted text, printed in canonical form
    ("op", 1, "∂1*∫1"),
    ("op", 2, " ∂2 *x1 ^2\n- 3/6 * e2[0,1] "),
    ("op", 1, "-" * 200 + "d1"),
    ("op", 1, "int1*d1"),
    # polynomials
    ("poly", 1, "d1"),
    ("poly", 1, "x1 + d1"),
    ("poly", 2, "int2"),
    ("poly", 2, "x1*e2[0,0]"),
    ("poly", 1, "x2"),
    ("poly", 2, "x1 + x3"),
    ("poly", 1, "x1 + 1/0"),
    ("poly", 2, "x1^2*x2 - 1/2"),
    ("poly", 1, "(x1 + 1)^3"),
]

# random expressions are built from these atoms; every other one then gets
# one more piece at a random place: a token, a Unicode alias, a lone letter
# or digit, or a character outside the grammar
OPERATOR_ATOMS = ["x1", "x2", "d1", "d2", "int1", "int2", "H1", "H2", "e1[0,1]", "e2[1,0]",
                  "∂1", "∫2", "2", "3/2", "0"]
POLY_ATOMS = ["x1", "x2", "2", "3/2", "0"]
PIECES = ["+", "-", "*", "^", "(", ")", "[", "]", ",", "d1", "2", "∂", "∫", "x", "e", "int",
          "D", "q", "0", "9", "/", "!", ".", "_", " ", "\t"]
RANDOM_SEED = 8
RANDOM_COUNT = 300


def outcome(kind: str, n: int, text: str) -> str:
    try:
        if kind == "poly":
            return format_poly(parse_poly(text, n))
        return format_operator(parse_operator(text, n))
    except (IntDiffOpError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def random_text(rng, atoms) -> str:
    parts = []
    for k in range(rng.randint(1, 4)):
        a = rng.choice(atoms)
        if rng.random() < 0.2:
            a = f"({a}{rng.choice(['+', ' - '])}{rng.choice(atoms)})"
        if rng.random() < 0.2:
            a += f"^{rng.randint(0, 3)}"
        if rng.random() < 0.2:
            a = "-" + a
        parts += [rng.choice([" + ", "-", "*", " * "])] * (k > 0) + [a]
    return "".join(parts)


def random_cases():
    rng = random.Random(RANDOM_SEED)
    for k in range(RANDOM_COUNT):
        kind = "poly" if k % 4 == 3 else "op"
        text = random_text(rng, POLY_ATOMS if kind == "poly" else OPERATOR_ATOMS)
        if k % 2:
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(PIECES) + text[at:]
        yield kind, 2, text


def parse_errors_text() -> str:
    return "".join(
        f"{kind} n={n} {text!r}: {outcome(kind, n, text)}\n"
        for kind, n, text in [*CASES, *random_cases()]
    )


def test_parse_outcomes_match_the_golden():
    assert parse_errors_text() == PARSE_ERRORS.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(parse_errors_text(), end="")
