"""Tests of the benchmark itself (not collected by the repository's test run).

    python -m pytest -q bench/selftest.py

They check that inputs follow from the seed alone, that every oracle rejects
a corrupted result, that the printed metric names are the ones
BENCHMARK.json declares, and that traced counts repeat exactly.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as W  # noqa: E402
from workloads import laurent, opparser  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_inputs_follow_from_the_seed(workload):
    first = W.input_hash(W.build(workload, 7))
    assert W.input_hash(W.build(workload, 7)) == first
    assert W.input_hash(W.build(workload, 8)) != first


def _i1(text):
    return W.tensor.to_i1(opparser.parse_operator(text, 1))


def test_product_oracles_reject_swapped_factors():
    a, b, c = _i1("d1 + H1"), _i1("int1"), _i1("x1 + e1[0,1]")
    assert W.check_triple_i1(a, b, c, (a * b) * c)
    assert not W.check_triple_i1(a, b, c, (b * a) * c)
    assert not W._action_agrees([a, b, c], (b * a) * c)
    a, b, c = (opparser.parse_operator(t, 2) for t in ("d1*H2", "int1 + d2", "e1[0,0]*x2"))
    assert W.check_triple_n(a, b, c, (a * b) * c)
    assert not W.check_triple_n(a, b, c, (b * a) * c)
    assert not W._action_agrees_n([a, b, c], (b * a) * c)


def test_involution_quotient_and_power_oracles_reject_corruption():
    a, b = (opparser.parse_operator(t, 2) for t in ("d1*int2 + H1", "int1*H2 - e2[1,0]"))
    p = a * b
    assert W.check_involution(a, b, p, p.involution())
    assert not W.check_involution(a, b, p, a.involution() * b.involution())
    proj = W.tensor.project_modulo_prime
    assert W.check_quotient(a, b, [1], proj(a, [1]) * proj(b, [1]))
    assert not W.check_quotient(a, b, [1], proj(b, [1]) * proj(a, [1]))
    base = _i1("d1 + int1 + H1 + x1")
    assert W.check_power(base, 3, base ** 3)
    assert not W.check_power(base, 3, base ** 3 + 1)


def test_division_oracle_rejects_a_perturbed_remainder():
    b, c = W._calb1({-1: ([1, 2], [1]), 1: ([0, 1], [1, 1])}), W._calb1({0: ([1], [1]), 1: ([2, 1], [1])})
    for right in (True, False):
        q, r = (laurent.right_divide if right else laurent.left_divide)(b, c)
        assert W.check_division(b, c, right, (q, r))
        assert not W.check_division(b, c, right, (q, r + 1))
        assert not W.check_division(b, c, right, (q + 1, r))
    # a remainder as long as the divisor fails the length condition
    assert not W.check_division(c, c, True, (laurent.CalB1Element(), c))


def test_cli_oracle_rejects_wrong_output_exit_code_or_traceback():
    judge = lambda rc, out: rc == 0 and out == b"20\nbounds ok\n"  # noqa: E731
    assert W.check_cli(judge, (0, b"20\nbounds ok\n", b""))
    assert not W.check_cli(judge, (0, b"21\nbounds ok\n", b""))
    assert not W.check_cli(judge, (1, b"20\nbounds ok\n", b""))
    err = lambda rc, out: rc == 2 and out == b""  # noqa: E731
    assert W.check_cli(err, (2, b"", b"parse error: x\n"))
    assert not W.check_cli(err, (2, b"", b"Traceback (most recent call last):\n"))


@functools.cache
def _run(workload, trace, repeat=0):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(workload, trace):
    res = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", ["op_algebra", "skew_div"])
def test_traced_counts_repeat_exactly(workload):
    runs = [_run(workload, 1, k)["metrics"] for k in (0, 1)]
    counted = [m["name"] for m in SPEC["per_layer"]
               if m["unit"] not in ("s", "ms") and m["name"] != "trace.overhead_ratio"]
    for name in counted:
        assert runs[0][name] == runs[1][name], name
    assert runs[0]["i1.mono_mul.calls" if workload == "op_algebra" else "laurent.divide.steps"]["value"] > 0
