"""Per-layer tracing installed from outside the engine.

Wrappers replace engine functions and methods for the duration of a traced
pass and are removed afterwards; the engine's source is not touched.  Every
wrapped call is timed on one stack so that self time (a call's duration minus
the time spent in wrapped calls below it) can be attributed exactly.  Only
coarse boundaries are kept as span records (name, start, end, parent span,
op id); the hot fine-grained functions feed counters and self times alone.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter

SPAN, TIMED, COUNT = "span", "timed", "count"


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, time in wrapped children, nearest span id]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.pairs = set()
        self.spans = []
        self.op_id = None
        self.active = False

    def call(self, name, kind, hook, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        parent_span = parent[2] if parent else None
        span = None
        if kind == SPAN:
            span = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, span if span is not None else parent_span]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            self.self_s[name] += dur - frame[1]
            self.calls[name] += 1
            if parent is not None:
                parent[1] += dur
            if span is not None:
                self.spans[span] = (name, start, end, parent_span, self.op_id)
        if hook is not None:
            hook(self, args, result, parent[0] if parent else None)
            if parent is not None:
                # the hook's own cost is tracing overhead, charged to no layer
                parent[1] += perf_counter() - end
        return result

    def run_op(self, op_id, fn):
        """Run one operation traced, under a root span named `op`."""
        self.op_id = op_id
        self.active = True
        try:
            return self.call("op", SPAN, None, fn, (), {})
        finally:
            self.active = False


def _gcd_hook(tr, args, result, parent):
    if result.degree() == 0:
        tr.counts["polyh.gcd.trivial"] += 1


def _ratfunc_hook(tr, args, result, parent):
    rf = args[0]
    bits = max(max(v.numerator.bit_length(), v.denominator.bit_length())
               for p in (rf.num, rf.den) for v in p.coeffs.values()) if rf.num else 0
    if bits > tr.maxima["polyh.max_coeff_bits"]:
        tr.maxima["polyh.max_coeff_bits"] = bits


def _pair_hook(tr, args, result, parent):
    tr.pairs.add((args[0], args[1]))


def _product_hook(pow_name, count_name):
    def hook(tr, args, result, parent):
        if parent == pow_name:
            tr.counts[count_name] += 1
        terms = len(result.terms)
        if terms > tr.maxima["i1.peak_terms"]:
            tr.maxima["i1.peak_terms"] = terms
    return hook


def _step_hook(tr, args, result, parent):
    # each division step makes exactly one product mono*c (or c*mono)
    if parent == "laurent.divide":
        tr.counts["laurent.divide.steps"] += 1


def _bytes_hook(tr, args, result, parent):
    tr.counts["opparser.bytes_in"] += len(args[0].encode())


def patch_points():
    """(owner, attribute, layer metric name, kind, hook) for every wrapped call.

    Module-level names that another module imported by value are patched in
    both places, since the importer holds its own reference.
    """
    m = {k: import_module(f"intdiffop.{k}")
         for k in ("cli", "i1", "lattice", "laurent", "opparser", "polyh", "tensor")}
    pts = [
        (m["polyh"].PolyH, "gcd", "polyh.gcd", TIMED, _gcd_hook),
        (m["polyh"].PolyH, "divmod", "polyh.divmod", TIMED, None),
        (m["polyh"].PolyH, "__mul__", "polyh.mul", TIMED, None),
        (m["polyh"].PolyH, "__rmul__", "polyh.mul", TIMED, None),
        (m["polyh"].PolyH, "shift", "polyh.shift", TIMED, None),
        (m["polyh"].RatFunc, "__init__", "polyh.ratfunc", TIMED, _ratfunc_hook),
        (m["i1"], "_mono_mul_into", "i1.mono_mul", TIMED, _pair_hook),
        (m["tensor"], "_mono_mul_into", "i1.mono_mul", TIMED, _pair_hook),
        (m["i1"].I1Element, "__mul__", "i1.mul", SPAN, _product_hook("i1.pow", "i1.pow.mul_calls")),
        (m["i1"].I1Element, "__pow__", "i1.pow", SPAN, None),
        (m["tensor"].InElement, "__mul__", "tensor.mul", SPAN,
         _product_hook("tensor.pow", "tensor.pow.mul_calls")),
        (m["tensor"].InElement, "__pow__", "tensor.pow", SPAN, None),
        (m["tensor"], "_factor_mul", "tensor.factor_mul", TIMED, None),
        (m["tensor"], "_b1_mul_into", "tensor.b1_mul", TIMED, None),
        (m["laurent"]._Skew, "__mul__", "laurent.mul", TIMED, _step_hook),
        (m["lattice"].IdealAntichain, "__init__", "lattice.ideal", COUNT, None),
    ]
    for owner in (m["tensor"], m["cli"]):
        pts.append((owner, "project_modulo_prime", "tensor.project", SPAN, None))
    for owner in (m["laurent"], m["cli"]):
        pts += [(owner, f, "laurent.divide", SPAN, None) for f in ("right_divide", "left_divide")]
    for owner in (m["lattice"], m["cli"]):
        pts.append((owner, "enumerate_ideals", "lattice.enumerate", SPAN, None))
    pts += [(m["lattice"], f, "lattice.ops", SPAN, None) for f in (
        "ideal_sum", "ideal_product", "ideal_includes", "minimal_primes_over", "is_prime")]
    for owner in (m["opparser"], m["cli"]):
        pts += [(owner, f, "opparser.parse", SPAN, _bytes_hook) for f in ("parse_operator", "parse_poly")]
        pts += [(owner, f, "opparser.format", SPAN, None) for f in ("format_operator", "format_poly")]
    pts.append((m["cli"], "run", "cli.run", SPAN, None))
    return pts


def _wrapper(tracer, fn, name, kind, hook):
    if kind == COUNT:
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.call(name, kind, hook, fn, args, kwargs)
    return traced


@contextmanager
def installed(tracer):
    """Install every wrapper for the duration of the block; yields the names
    of patch points the engine no longer has (reported, not fatal)."""
    saved, missing = [], []
    try:
        for owner, attr, name, kind, hook in patch_points():
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrapper(tracer, fn, name, kind, hook))
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers of one traced pass, keyed by BENCHMARK.json name."""
    c, s, k, mx = tr.calls, tr.self_s, tr.counts, tr.maxima
    mono = c["i1.mono_mul"]
    return {
        "polyh.gcd.calls": c["polyh.gcd"],
        "polyh.gcd.self_s": s["polyh.gcd"],
        "polyh.gcd.trivial_ratio": k["polyh.gcd.trivial"] / c["polyh.gcd"] if c["polyh.gcd"] else 0.0,
        "polyh.divmod.self_s": s["polyh.divmod"],
        "polyh.ratfunc.self_s": s["polyh.ratfunc"],
        "polyh.max_coeff_bits": mx["polyh.max_coeff_bits"],
        "polyh.mul.calls": c["polyh.mul"],
        "polyh.shift.calls": c["polyh.shift"],
        "polyh.mul_shift.self_s": s["polyh.mul"] + s["polyh.shift"],
        "i1.mono_mul.calls": mono,
        "i1.mono_mul.distinct_pairs": len(tr.pairs),
        "i1.mono_mul.reuse_ratio": 1 - len(tr.pairs) / mono if mono else 0.0,
        "i1.mono_mul.self_s": s["i1.mono_mul"],
        "i1.mul.self_s": s["i1.mul"],
        "i1.pow.mul_calls": k["i1.pow.mul_calls"],
        "tensor.pow.mul_calls": k["tensor.pow.mul_calls"],
        "i1.peak_terms": mx["i1.peak_terms"],
        "tensor.mul.calls": c["tensor.mul"],
        "tensor.mul.self_s": s["tensor.mul"],
        "tensor.factor_mul.calls": c["tensor.factor_mul"],
        "tensor.b1_mul.calls": c["tensor.b1_mul"],
        "tensor.project.self_s": s["tensor.project"],
        "laurent.divide.calls": c["laurent.divide"],
        "laurent.divide.steps": k["laurent.divide.steps"],
        "laurent.divide.self_s": s["laurent.divide"],
        "laurent.mul.self_s": s["laurent.mul"],
        "lattice.enumerate.self_s": s["lattice.enumerate"],
        "lattice.ideals_built": c["lattice.ideal"],
        "lattice.ops.self_s": s["lattice.ops"],
        "opparser.parse.self_s": s["opparser.parse"],
        "opparser.format.self_s": s["opparser.format"],
        "opparser.bytes_in": k["opparser.bytes_in"],
        "cli.dispatch_ms": 1000 * s["cli.run"] / c["cli.run"] if c["cli.run"] else 0.0,
    }
