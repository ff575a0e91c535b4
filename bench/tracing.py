"""Span tracer for the traced benchmark run.

``Tracer`` replaces every attribute of the ``lspaceknots`` modules that is
bound to one of the public functions in ``TRACED`` with a wrapper, so
``obstruct.jump_spectrum`` and ``upsilon.jump_spectrum`` both record under
the name ``upsilon.jump_spectrum``.  While an op is active each call
records a span (name, start, end, parent span, op id) plus the size
counters and cache outcomes the per-layer metrics need.  Spans stay in
memory until the run ends; ``layer_metrics`` reduces them to per-op
figures.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# Traced public functions, by the module that defines them.
TRACED = {
    "knotexpr": ("parse", "alexander", "certify_lspace"),
    "intpoly": ("torus_alexander", "cable_alexander", "poly_exact_div"),
    "semigroup": ("from_alexander", "from_generators", "closure_witness"),
    "upsilon": (
        "upsilon_of_knot",
        "upsilon_of_combination",
        "torus_consecutive_upsilon",
        "upsilon_from_semigroup",
        "envelope",
        "pl_combine",
        "jump_spectrum",
    ),
    "obstruct": (
        "algebraicity_report",
        "decompose_into_consecutive_torus",
        "jump_equality",
        "lambda_invariant",
        "independence_matrix",
    ),
    "cli": ("main",),
    "verify": ("run_checks",),
}

# lru_cache-wrapped functions whose hit ratio is reported.
CACHED = ("knotexpr.alexander", "upsilon.upsilon_of_knot", "upsilon.torus_consecutive_upsilon")

LAYERS = ("knotexpr", "intpoly", "semigroup", "upsilon", "obstruct", "cli", "verify")

# Per-layer metrics emitted by every traced run: name -> unit.  Times and
# counts are per op of the traced pass.
PER_LAYER = {
    "intpoly.torus_alexander.self_s": "s/op",
    "intpoly.poly_exact_div.self_s": "s/op",
    "intpoly.cable_alexander.self_s": "s/op",
    "intpoly.terms_out": "count/op",
    "semigroup.from_alexander.self_s": "s/op",
    "semigroup.closure_witness.self_s": "s/op",
    "semigroup.from_generators.self_s": "s/op",
    "semigroup.genus_sum": "count/op",
    "upsilon.upsilon_from_semigroup.self_s": "s/op",
    "upsilon.envelope.self_s": "s/op",
    "upsilon.envelope.lines_in": "count/op",
    "upsilon.envelope.breakpoints_out": "count/op",
    "upsilon.envelope.hull_yield": "ratio",
    "upsilon.pl_combine.self_s": "s/op",
    "upsilon.pl_combine.calls": "count/op",
    "upsilon.jump_spectrum.self_s": "s/op",
    "upsilon.jump_spectrum.calls": "count/op",
    "obstruct.decompose_into_consecutive_torus.self_s": "s/op",
    "obstruct.decompose.peels": "count/op",
    "obstruct.jump_equality.self_s": "s/op",
    "obstruct.jump_equality.calls": "count/op",
    "obstruct.lambda_invariant.self_s": "s/op",
    "obstruct.independence_matrix.self_s": "s/op",
    "upsilon.upsilon_of_knot.hit_ratio": "ratio",
    "upsilon.torus_consecutive_upsilon.hit_ratio": "ratio",
    "knotexpr.alexander.hit_ratio": "ratio",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_s": "s/op",
    "verify.run_checks.self_s": "s/op",
    "knotexpr.parse.self_s": "s/op",
    "knotexpr.certify_lspace.self_s": "s/op",
    "knotexpr.alexander.self_s": "s/op",
    "obstruct.algebraicity_report.self_s": "s/op",
    "trace.overhead_share": "ratio",
}


class Tracer:
    """Records spans around the traced functions while ``op`` is not None."""

    def __init__(self):
        self.op: int | None = None
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.stack: list[int] = []
        self.hits: Counter = Counter()
        self.counters: dict[int, Counter] = defaultdict(Counter)  # op id -> counter
        self._patched: list = []

    def __enter__(self):
        wrappers = {}
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"lspaceknots.{module_name}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{name}", fn))
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "lspaceknots"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        cache_info = fn.cache_info if name in CACHED else None
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if name == "upsilon.envelope":
                args = (list(args[0]),) + args[1:]  # count the lines without consuming them
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.op))  # completed below
            tracer.stack.append(index)
            misses = cache_info().misses if cache_info else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            if cache_info and cache_info().misses == misses:
                tracer.hits[name] += 1
            tracer._count(name, args, result, parent)
            return result

        return traced

    def _count(self, name, args, result, parent):
        counter = self.counters[self.op]
        if name in ("intpoly.torus_alexander", "intpoly.cable_alexander"):
            if parent < 0 or not self.spans[parent][0].startswith("intpoly."):
                counter["intpoly.terms_out"] += len(result.terms)
        elif name in ("semigroup.from_alexander", "semigroup.from_generators"):
            counter["semigroup.genus_sum"] += result.genus
        elif name == "upsilon.envelope":
            counter["upsilon.envelope.lines_in"] += len(args[0])
            counter["upsilon.envelope.breakpoints_out"] += len(result.breakpoints) - 1

    def self_times(self):
        """Self time of every span: its duration minus the spans it directly caused."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_self_by_op(self, factors) -> dict[int, dict[str, float]]:
        """Self seconds per op at reference speed, summed by layer (the module of the span)."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(LAYERS, 0.0))
        for span, own in zip(self.spans, self.self_times()):
            out[span[4]][span[0].split(".")[0]] += own * factors[span[4]]
        return out

    def dump(self) -> dict:
        names = sorted({span[0] for span in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": names,
            "spans": [[index[n], s, e, p, op] for n, s, e, p, op in self.spans],
        }


def layer_metrics(tracer: Tracer, factors: list[float], untraced_s: float, traced_s: float,
                  interpreter_ms: float, import_ms: float) -> dict:
    """Reduce the spans of a traced pass to the PER_LAYER metrics.

    ``factors`` scales each op's times to reference speed; its length is the
    number of ops in the pass.
    """
    n_ops = len(factors)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    peels = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, parent = span[0], span[3]
        self_s[name] += own * factors[span[4]]
        calls[name] += 1
        if (name == "upsilon.pl_combine" and parent >= 0
                and tracer.spans[parent][0] == "obstruct.decompose_into_consecutive_torus"):
            peels += 1
    counts: Counter = Counter()
    for counter in tracer.counters.values():
        counts.update(counter)
    values = {
        "obstruct.decompose.peels": peels / n_ops,
        "upsilon.envelope.hull_yield": (
            counts["upsilon.envelope.breakpoints_out"] / counts["upsilon.envelope.lines_in"]
            if counts["upsilon.envelope.lines_in"] else 0.0
        ),
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "trace.overhead_share": traced_s / untraced_s - 1,
    }
    for name in CACHED:
        values[f"{name}.hit_ratio"] = tracer.hits[name] / calls[name] if calls[name] else 0.0
    for metric in PER_LAYER:
        if metric in values:
            continue
        base, _, kind = metric.rpartition(".")
        if kind == "self_s":
            values[metric] = self_s[base] / n_ops
        elif kind == "calls":
            values[metric] = calls[base] / n_ops
        else:
            values[metric] = counts[metric] / n_ops
    return {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER.items()}
