"""Command-line interface: golden files, machine mode, exit-code contract."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from intdiffop import parse_operator
from intdiffop.cli import run

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN_CASES = [
    ("01_normalize.txt", ["normalize", "int1*d1"]),
    ("02_normalize_n2.txt", ["normalize", "-n", "2", "d1*int1 + x2"]),
    ("03_involute.txt", ["involute", "H1*d1"]),
    ("04_grade.txt", ["grade", "x1", "-d", "1"]),
    ("05_apply.txt", ["apply", "d1", "--to", "x1^3"]),
    ("06_project.txt", ["project", "int1", "--primes", "1"]),
    ("07_ideal_sum.txt", ["ideal", "sum", "-n", "2", "{01}", "{10}"]),
    ("08_ideal_prod.txt", ["ideal", "prod", "-n", "2", "{01}", "{10}"]),
    ("09_ideal_minprimes.txt", ["ideal", "minprimes", "-n", "2", "{00}"]),
    ("10_dedekind.txt", ["dedekind", "3"]),
    ("11_divide.txt", ["divide", "--right", "d1 + H1", "d1 + 1"]),
    ("12_check.txt", ["check", "relations"]),
]

EXIT_CODE_CASES = [
    (["normalize", "d1"], 0),
    (["check", "relations", "-n", "3"], 0),
    (["ideal", "isprime", "-n", "2", "{01,10}"], 0),
    # domain errors -> 1
    (["normalize", "-n", "2", "x3"], 1),  # index out of range
    (["normalize", "d1^-1"], 1),  # negative exponent
    (["divide", "--right", "d1", "0"], 1),  # division by zero
    (["dedekind", "7"], 1),  # enumeration limit
    # usage / parse errors -> 2
    (["normalize", "d1*"], 2),  # syntax error
    (["normalize", "d1 d1"], 2),  # implicit multiplication
    (["ideal", "sum", "{1}"], 2),  # wrong arity
    (["bogus"], 2),  # unknown subcommand
    (["divide", "d1", "d1"], 2),  # missing --left/--right
    (["ideal", "minprimes", "-n", "2", "{00}", "{01}"], 2),  # wrong arity
    (["ideal", "-n", "2"], 2),  # no operation
    (["normalize", "x1^²"], 2),  # a digit int() rejects
    # counts below 1
    (["check", "relations", "-n", "0"], 2),
    (["normalize", "-n", "0", "d1"], 2),
    (["ideal", "-n", "0", "isprime", "{}"], 2),
    (["ideal", "isprime", "-n", "-1", "{}"], 2),
    (["dedekind", "0"], 2),
    (["dedekind", "-1"], 2),
    (["dedekind", "6"], 1),  # enumeration limit
    (["project", "-n", "2", "d1", "--primes", "x"], 2),  # not an index list
]


def invoke(args):
    """Run the CLI in a fresh process on the standard library alone (no site
    packages) with warnings as errors; returns (exit code, stdout bytes)."""
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-m", "intdiffop.cli", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("fname,args", GOLDEN_CASES, ids=[f for f, _ in GOLDEN_CASES])
def test_golden(fname, args):
    code, out = invoke(args)
    assert code == 0
    assert out == (GOLDEN / fname).read_bytes()


@pytest.mark.parametrize("args,expected", EXIT_CODE_CASES)
def test_exit_codes(args, expected):
    code, _ = invoke(args)
    assert code == expected


def test_index_out_of_range_reports_its_position(capsys):
    assert run(["normalize", "-n", "2", "d1 + x3"]) == 1
    assert capsys.readouterr().err == "error: index 3 outside 1..2 (at position 5)\n"


def test_power_beyond_the_size_limit_is_refused_at_once():
    # the fifth squaring of the three-term sum would pair 160,801 terms
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "intdiffop.cli", "normalize", "(d1+int1+H1)^10000"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "error: a product of 160801 term pairs, beyond the limit 32768\n"
    )


def test_degree_beyond_the_budget_is_refused_at_once():
    # 27 bytes that printed 1,777,782 bytes; the squaring that would reach
    # int1^1024 is the first product beyond the degree budget
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-m", "intdiffop.cli",
         "normalize", "int1^100000*d1^100000"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "error: a monomial product of total degree 1024, beyond the limit 1000\n"
    )


def test_factors_cannot_multiply_the_degree_budget(capsys):
    assert run(["normalize", "-n", "2", "int1^200*d1^200*int2^200*d2^200"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: a product of more than 32768 terms\n"


def test_chain_of_products_beyond_the_size_limit_is_refused(capsys):
    # six copies of the nine-term sum have 4,314 terms; the seventh pairs 38,826
    s = "(d1+int1+H1+d2+int2+H2+d3+int3+H3)"
    assert run(["normalize", "-n", "3", "*".join([s] * 8)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a product of 38826 term pairs, beyond the limit 32768\n"


def test_minimal_primes_over_many_slots(capsys):
    # the zero set of the one generator is every slot: 64 singletons
    start = time.perf_counter()
    assert run(["ideal", "minprimes", "-n", "64", "{" + "0" * 64 + "}"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "".join(f"{{{i}}}\n" for i in range(1, 65))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, intdiffop.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_counts_below_one_are_refused_alike(capsys):
    for args in (["check", "relations", "-n", "0"], ["dedekind", "-1"],
                 ["normalize", "-n", "abc", "d1"], ["dedekind", "x"]):
        assert run(args) == 2
    assert capsys.readouterr().err == (
        "usage error: argument -n: expected a positive integer, got '0'\n"
        "usage error: argument N: expected a positive integer, got '-1'\n"
        "usage error: argument -n: expected a positive integer, got 'abc'\n"
        "usage error: argument N: expected a positive integer, got 'x'\n"
    )


def test_bad_primes_names_the_option_and_the_rule(capsys):
    assert run(["project", "-n", "2", "d1", "--primes", "x"]) == 2
    assert capsys.readouterr().err == (
        "usage error: argument --primes: expected comma-separated factor indices, got 'x'\n"
    )


def test_over_long_literal_is_a_parse_error_at_its_position(capsys):
    assert run(["normalize", "1" * 5000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.endswith("(at position 0)\n")


class TestIdealArguments:
    @pytest.mark.parametrize("args", [
        ["ideal", "-n", "2", "sum", "{01}", "{10}"],
        ["ideal", "sum", "-n", "2", "{01}", "{10}"],
        ["ideal", "sum", "{01}", "-n", "2", "{10}"],
        ["ideal", "sum", "{01}", "{10}", "-n", "2"],
    ], ids=["before-op", "after-op", "between", "last"])
    def test_n_anywhere(self, args, capsys):
        assert run(args) == 0
        assert capsys.readouterr().out == "{01,10}\n"

    def test_operation_n_overrides_ideal_n(self, capsys):
        assert run(["ideal", "-n", "3", "isprime", "-n", "2", "{01,10}"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_expression_with_leading_minus_after_double_dash(self):
        code, out = invoke(["ideal", "member", "-n", "2", "--", "-e1[0,0]*e2[1,1]", "{00}"])
        assert (code, out) == (0, b"true\n")


class TestMachineMode:
    def test_one_result_per_line_and_reparseable(self, capsys):
        assert run(["--machine", "normalize", "-n", "2", "x1*x2 + d1"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 1
        assert parse_operator(lines[0], 2) == parse_operator("x1*x2 + d1", 2)

    def test_divide_machine(self, capsys):
        assert run(["--machine", "divide", "--right", "d1 + H1", "d1 + 1"]) == 0
        assert capsys.readouterr().out == "1\nH1 - 1\n"

    def test_dedekind_machine(self, capsys):
        assert run(["--machine", "dedekind", "2"]) == 0
        assert capsys.readouterr().out == "6\n"

    def test_check_machine(self, capsys):
        assert run(["--machine", "check", "relations"]) == 0
        assert capsys.readouterr().out == "pass\n" * 5

    def test_ideal_outputs_reparse(self, capsys):
        from intdiffop import IdealAntichain

        assert run(["--machine", "ideal", "sum", "-n", "2", "{00}", "{01}"]) == 0
        out = capsys.readouterr().out.strip()
        # bitstring "01": slot 1 -> 0, slot 2 -> 1, i.e. mask 0b10
        assert IdealAntichain.from_text(out, 2) == IdealAntichain(2, [0b10])


class TestInProcess:
    def test_ideal_member(self, capsys):
        assert run(["ideal", "member", "-n", "2", "e1[0,0]*e2[1,1]", "{00}"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_ideal_includes(self, capsys):
        assert run(["ideal", "includes", "-n", "2", "{00}", "{01,10}"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_grade_empty_component(self, capsys):
        assert run(["grade", "x1", "-d", "0"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_project_multiple(self, capsys):
        assert run(["project", "-n", "2", "int1*d2", "--primes", "1,2"]) == 0
        assert capsys.readouterr().out == "D1^-1*D2\n"

    @pytest.mark.parametrize("args,lines", [
        (["divide", "--left", "H1^2*d1^2 + 1/2*int1", "2*H1*d1 - 1"], [
            "q = (1/2*H1 - 1/2)*D + (1/4*H1 - 1/2)/(H1 - 1)"
            " + ((1/8*H1 - 3/8)/(H1^2 - 3*H1 + 2))*D^-1",
            "r = ((1/2*H1^2 - 11/8*H1 + 5/8)/(H1^2 - 3*H1 + 2))*D^-1",
        ]),
        (["project", "-n", "3", "int1^2*H1*d2 - 1/2*x1*e3[1,0] + H2^2*d1^3*int3",
          "--primes", "1,2"], [
            "-2*D1^-2*D2 + H1*D1^-2*D2 + 1/2*D1^-1*e3[1,0]"
            " - 1/2*H1*D1^-1*e3[1,0] + D1^3*H2^2*int3",
        ]),
    ])
    def test_printed_text(self, args, lines, capsys):
        assert run(args) == 0
        assert capsys.readouterr().out.splitlines() == lines


class TestNestingLimit:
    @pytest.mark.parametrize("args", [
        ["normalize", "--", "(" * 3000 + "d1" + ")" * 3000],
        ["normalize", "--", "-" * 3000 + "d1"],
        ["apply", "d1", "--to=" + "(" * 3000 + "x1" + ")" * 3000],
    ], ids=["parens", "minus", "poly"])
    def test_too_deep_is_a_parse_error(self, args, capsys):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "nesting deeper than 200 (at position 200)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "(" * 200 + "d1" + ")" * 200,
        "-" * 200 + "d1",
        "-(" * 100 + "d1" + ")^1" * 100,
    ], ids=["parens", "minus", "mixed"])
    def test_depth_200_parses(self, text, capsys):
        assert run(["normalize", "--", text]) == 0
        assert capsys.readouterr().out == "d1\n"
