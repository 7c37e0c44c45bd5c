"""Benchmark of the intdiffop engine: three closed-loop workloads, one caller.

    python3 bench/run.py --workload op_algebra --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the engine is imported from ./src.  A run
builds its operation pool from the seed, then times whole passes over the
pool, one operation at a time, until --seconds have elapsed (the first pass
always completes).  Each operation's latency is the median of its passes;
p50 and the tail are taken over the pool's operations, and throughput is
pool size over the summed latencies.  Every result is checked after its
timing stops: by an independent oracle on the first pass, and against the
first result afterwards.

With --trace 1 the run alternates untraced and traced passes and prints
per-layer numbers instead; the cli_batch commands are then replayed
in-process through intdiffop.cli.run so the layers are visible.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 5
WARMUP_OPS = 8
TAIL_BEYOND = 10
UNITS = {
    "throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "success_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, build the pool, warm up and exit (a set-up time probe)")
    return p.parse_args(argv)


def _setup(workload, seed, in_process_cli):
    """Import, build the operation pool and warm up: everything before the first timed op."""
    import workloads

    ops = workloads.build(workload, seed, in_process_cli)
    for op in ops[:1 if workload == "cli_batch" else WARMUP_OPS]:
        op.run()
    return ops


def _reference():
    """Fixed stdlib-only work of the engine's kind: exact rational arithmetic
    accumulated in a dict under tuple keys.  No engine code runs here, so no
    change to the engine can change its cost."""
    acc = {}
    for i in range(1, 400):
        k = (i % 7, i % 11)
        v = Fraction(i % 13 + 1, i % 7 + 1)
        acc[k] = acc.get(k, Fraction(0)) + v * v
    return acc


def _bare_interpreter():
    """A bare interpreter start: the floor under every CLI command, which no
    change to the engine moves."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


class HostSpeed:
    """The host's current speed, from timing a fixed reference between operations.

    Identical work on a shared host can vary by +-30 % and more in user CPU
    time over seconds to minutes (with no steal time, and CPU time equal to
    wall time), so raw timings mostly measure the neighbours.  Each timing is
    scaled by nominal_s over the local reference time (the median of the
    last WINDOW samples, taken at most every_s apart): milliseconds as on a
    host that runs the reference in nominal_s.  In-process workloads use
    _reference(); cli_batch, whose work happens in child processes, uses a
    bare interpreter start.  Raw values are in the detail line.
    """

    WINDOW = 5

    def __init__(self, workload):
        if workload == "cli_batch":
            self.reference, self.nominal_s, self.every_s = _bare_interpreter, 0.070, 1.0
        else:
            self.reference, self.nominal_s, self.every_s = _reference, 0.0025, 0.2
        self.samples = []
        self.last = float("-inf")

    def sample(self, force=False):
        now = perf_counter()
        if force or now - self.last >= self.every_s:
            self.reference()
            self.last = perf_counter()
            self.samples.append(self.last - now)

    def factor(self):
        """Multiply a raw time taken just now by this to get nominal-speed time."""
        return self.nominal_s / statistics.median(self.samples[-self.WINDOW:])


class Pass:
    """Runs operations, times them and checks every result outside the timing."""

    def __init__(self, ops, speed=None):
        self.ops = ops
        self.speed = speed
        self.lat = [[] for _ in ops]
        self.cal = [[] for _ in ops]
        self.first = [None] * len(ops)
        self.first_ok = [False] * len(ops)
        self.attempted = self.failed = 0

    def run(self, deadline=None, tracer=None):
        """One pass over the pool; stops early at the deadline if given.
        Returns the summed op time of the ops it ran."""
        busy = 0.0
        for i, op in enumerate(self.ops):
            if deadline is not None and perf_counter() >= deadline:
                break
            if self.speed is not None:
                self.speed.sample()
            err = None
            t0 = perf_counter()
            try:
                r = op.run() if tracer is None else tracer.run_op(i, op.run)
            except Exception as exc:  # a failed op is counted, and the run goes on
                r, err = None, exc
            dt = perf_counter() - t0
            busy += dt
            self.lat[i].append(dt)
            if self.speed is not None:
                self.cal[i].append(dt * self.speed.factor())
            self.attempted += 1
            if err is None and len(self.lat[i]) == 1:
                self.first[i], self.first_ok[i] = r, bool(op.check(r))
                ok = self.first_ok[i]
            else:
                ok = err is None and self.first_ok[i] and r == self.first[i]
            if not ok:
                self.failed += 1
                if self.failed <= 5:
                    print(f"check failed: op {i} {op.kind} {op.spec[:160]!r} error={err!r}", file=sys.stderr)
        return busy


def _measure(ops, seconds, speed):
    p = Pass(ops, speed)
    start = perf_counter()
    deadline = start + seconds
    p.run()
    cycles = 1
    while perf_counter() < deadline:
        p.run(deadline)
        cycles += 1
    wall = perf_counter() - start
    n = len(ops)
    tail_rank = max(0, n - TAIL_BEYOND - 1)

    def summary(samples):
        per_op = sorted(statistics.median(v) for v in samples)
        return {
            "throughput_ops_s": n / sum(per_op),
            "latency_p50_ms": 1000 * statistics.median(per_op),
            "latency_tail_ms": 1000 * per_op[tail_rank],
        }

    kinds = {}
    for op, v in zip(ops, p.cal):
        kinds.setdefault(op.kind, []).append(1000 * statistics.median(v))
    detail = {"passes": cycles, "wall_s": wall, "pool_ops": n, "raw": summary(p.lat),
              "tail_percentile": 100 * (tail_rank + 1) / n, "tail_samples_beyond": n - tail_rank - 1,
              "kind_median_ms": {k: statistics.median(v) for k, v in sorted(kinds.items())}}
    return p, summary(p.cal), detail


def _peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli_batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def _subprocess_ms(code, repeats=5):
    import workloads

    env = workloads.cli_env()
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        times.append(1000 * (perf_counter() - t0))
    return statistics.median(times)


def _setup_seconds(args, speed):
    """Median wall time of fresh processes that only set up (launch to first op)."""
    raw, cal = [], []
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            speed.sample(force=True)
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        raw.append(perf_counter() - t0)
        speed.sample(force=True)
        cal.append(raw[-1] * speed.factor())
    return statistics.median(raw), statistics.median(cal)


def _traced(ops, args):
    import tracing

    tr_walls, un_walls, layers, spans = [], [], [], None
    p = Pass(ops)
    deadline = perf_counter() + args.seconds
    while True:
        un_walls.append(p.run())
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as missing:
            tr_walls.append(p.run(tracer=tracer))
        layers.append(tracing.layer_metrics(tracer))
        if spans is None:
            spans = tracer.spans
        if perf_counter() >= deadline:
            break
    counted = {k for k in layers[0] if not k.endswith(("_s", "_ms"))}
    metrics = {k: layers[0][k] if k in counted else statistics.median(m[k] for m in layers)
               for k in layers[0]}
    interp = _subprocess_ms("pass")
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = _subprocess_ms("import intdiffop.cli") - interp
    metrics["trace.overhead_ratio"] = statistics.median(tr_walls) / statistics.median(un_walls)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-{args.seed}.json"
    span_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}))
    detail = {"passes": len(tr_walls), "unpatched": missing, "spans": len(spans),
              "span_file": str(span_file.relative_to(ROOT)),
              "counts_repeat": all(all(m[k] == layers[0][k] for k in counted) for m in layers)}
    return p, metrics, detail


def _provenance(args, ops):
    import workloads

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "python": platform.python_version(),
            "commit": commit, "src_sha256": h.hexdigest(), "nproc": os.cpu_count(),
            "input_sha256": workloads.input_hash(ops)}


def run_one(args) -> int:
    ops = _setup(args.workload, args.seed, in_process_cli=bool(args.trace))
    if args.trace:
        p, metrics, detail = _traced(ops, args)
    else:
        speed = HostSpeed(args.workload)
        p, metrics, detail = _measure(ops, args.seconds, speed)
        metrics["success_ratio"] = (p.attempted - p.failed) / p.attempted
        metrics["peak_rss_mb"] = _peak_rss_mb(args.workload)
        detail["raw"]["setup_s"], metrics["setup_s"] = _setup_seconds(args, speed)
    detail.update(_provenance(args, ops), error_rate=p.failed / p.attempted)
    print(json.dumps(detail, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {args.workload:<11} {name:<28} {value:>14.6g} {UNITS.get(name, '')}")
    units = UNITS if not args.trace else _layer_units()
    print(json.dumps({
        "correct": p.failed == 0, "attempted": p.attempted, "failed": p.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if p.failed == 0 else 1


def _layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(args) -> int:
    """Every workload in its own process, one after another; one combined line last."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] = total["correct"] and res["correct"] and proc.returncode == 0
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "intdiffop" / "__init__.py").is_file():
        print(f"bench: engine sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.setup_only:
        _setup(args.workload, args.seed, in_process_cli=False)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
