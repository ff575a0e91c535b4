#!/usr/bin/env python3
"""Benchmark of lspaceknots: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload obstruct-cold --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1            # every workload, each in a fresh process

One client runs ops in a closed loop until ``--seconds`` of op time have
passed and then finishes the round it is in.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it runs the same ops a
second time with spans around the package's public functions and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output check passed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3  # fresh processes whose set-up time gives the median setup_s
MIN_OPS = 100  # a run has at least this many ops, so ten or more lie beyond its p90
CAL_REF_S = 0.0018  # kernel time on an uncontended core of a 2-vCPU Intel Xeon VM
CAL_NEAR_S = 0.02  # an op is scaled by the kernel samples within its own duration of it,
CAL_FAR_S = 0.25  # but no fewer than CAL_NEAR_S and no more than CAL_FAR_S away
CAL_TICK_S = 0.025  # period of the kernel samples taken inside in-process work,
CAL_FIRST_TICK_S = 0.05  # from this long after it starts: short ops are left alone
PROBE_SAMPLES = 7  # child interpreters behind cli.interpreter_ms and cli.import_ms
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import lspaceknots.cli; "
    "print((time.perf_counter() - t) * 1000)"
)
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(SRC))
import tracing  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402


def calibration_kernel() -> Fraction:
    """Fixed pure-Python work that does not touch the package.

    Exact rational arithmetic and dict updates, like the package's own
    work: an integer-only kernel tracked the core's speed less closely.
    At most a few of its objects are alive at once, so it leaves the
    garbage collector's allocation count, and the collections that fall
    inside the ops, where they were.
    """
    acc, table = Fraction(0), {}
    for i in range(1, 700):
        acc += Fraction(1, i % 97 + 1)
        table[i % 311] = acc.denominator % 1009
    return acc


class SpeedProbe:
    """Samples the calibration kernel between ops to scale times to reference speed.

    On a shared virtual machine a core can switch between speeds (about
    1.8x apart every ~100 ms on a 2-vCPU Intel Xeon VM), with a duty cycle
    that drifts over tens of seconds.  A time scaled by CAL_REF_S over the
    mean kernel time around it reads the
    same whatever the core's speed was at that moment: a short op is scaled
    by the samples right next to it, a long one by those of a wider window.
    """

    def __init__(self):
        self.at: list[float] = []  # midpoint of each sample
        self.took: list[float] = []
        # stays installed, so a tick that lands after the timer stops is just one more sample
        signal.signal(signal.SIGALRM, lambda *_: self.sample())

    def sample(self) -> None:
        start = perf_counter()
        calibration_kernel()
        end = perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured over [start, end] to reference speed."""
        reach = min(CAL_FAR_S, max(CAL_NEAR_S, end - start))
        i = bisect_left(self.at, start - reach)
        j = bisect_right(self.at, end + reach)
        return CAL_REF_S / statistics.fmean(self.took[i:j] or self.took)

    @contextlib.contextmanager
    def ticking(self, on: bool = True):
        """Sample the kernel from an interval timer while inside.

        Only around work that starts no child process: the child would
        share the core with the samples.
        """
        if on:
            signal.setitimer(signal.ITIMER_REAL, CAL_FIRST_TICK_S, CAL_TICK_S)
        try:
            yield
        finally:
            if on:
                signal.setitimer(signal.ITIMER_REAL, 0)

    def timed(self, fn, interleave: bool = False):
        """Run fn between kernel samples; return its result, scaled time and scale factor.

        With ``interleave`` the kernel is also sampled inside fn, and the
        time those samples take is not counted.
        """
        for _ in range(3):
            self.sample()
        taken = len(self.took)
        start = perf_counter()
        with self.ticking(interleave):
            value = fn()
        end = perf_counter()
        inside = sum(self.took[taken:])
        for _ in range(3):
            self.sample()
        factor = self.scale(start, end)
        return value, (end - start - inside) * factor, factor


@dataclass
class Pass:
    """Outcome of one closed-loop pass over ops."""

    ops: list = field(default_factory=list)
    intervals: list = field(default_factory=list)  # (start, end, kernel time inside) of each op
    latencies: list = field(default_factory=list)  # seconds at reference speed
    errors: list = field(default_factory=list)  # (op index, message)
    busy_s: float = 0.0  # wall seconds inside ops

    @property
    def scaled_s(self) -> float:
        return sum(self.latencies)


def closed_loop(wl, seconds: float, ops=None, tracer=None, observe=None,
                interleave: bool = False) -> Pass:
    """Run ops one at a time and check each output outside its timed span.

    Without ``ops`` the loop cycles through the workload's rounds and stops
    at the first round boundary after ``seconds`` of op time and MIN_OPS
    ops; with ``ops`` it runs exactly those.  ``interleave`` also samples
    the speed inside the ops.
    """
    result = Pass()
    probe = SpeedProbe()
    rounds = [ops] if ops is not None else itertools.cycle(wl.rounds)
    for round_ops in rounds:
        for op in round_ops:
            index = len(result.ops)
            for _ in range(2):
                probe.sample()
            if tracer:
                tracer.op = index
            taken = len(probe.took)
            start = perf_counter()
            with probe.ticking(interleave):
                try:
                    out, error = wl.run(op), None
                except Exception as exc:  # a failing op is counted and the run goes on
                    out, error = None, f"{type(exc).__name__}: {exc}"
            end = perf_counter()
            inside = sum(probe.took[taken:])
            elapsed = end - start - inside
            if tracer:
                tracer.op = None
            for _ in range(1 if elapsed < CAL_NEAR_S else 4):  # a long op needs more samples
                probe.sample()
            if error is None:
                try:
                    error = wl.check(op, out)
                except Exception as exc:  # a malformed output fails its op
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is None and observe:
                observe(index, op, out)
            result.ops.append(op)
            result.intervals.append((start, end, inside))
            result.busy_s += elapsed
            if error is not None:
                result.errors.append((index, error))
        if ops is None and result.busy_s >= seconds and len(result.ops) >= MIN_OPS:
            break
    probe.sample()
    result.latencies = [(e - s - i) * probe.scale(s, e) for s, e, i in result.intervals]
    return result


def child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], stdin=subprocess.DEVNULL, capture_output=True, text=True,
        env=workloads.child_env(), timeout=timeout, check=True,
    )


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh process."""
    proc = child([str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"], 170)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def interpreter_probes() -> tuple[float, float]:
    """Median bare interpreter start and median `import lspaceknots.cli`, in ms."""
    probe = SpeedProbe()
    bare, imports = [], []
    for _ in range(PROBE_SAMPLES):
        bare.append(probe.timed(lambda: child(["-c", "pass"], 60))[1] * 1000)
        proc, _, factor = probe.timed(lambda: child(["-c", IMPORT_PROBE], 60))
        imports.append(float(proc.stdout) * factor)
    return statistics.median(bare), statistics.median(imports)


def peak_rss_mb(name: str) -> float:
    # cli-oneshot's program runs in its children; no other child has run yet
    who = resource.RUSAGE_CHILDREN if name == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kilobytes on Linux


def end_to_end(wl, timed: Pass, setup_first: float) -> dict:
    rss = peak_rss_mb(wl.name)
    setups = [setup_first] + [setup_probe(wl.name, wl.seed) for _ in range(SETUP_SAMPLES - 1)]
    # an op's latency is the median over the rounds of the ops in its slot
    by_slot = defaultdict(list)
    for op, latency in zip(timed.ops, timed.latencies):
        by_slot[op["slot"]].append(latency)
    typical = {slot: statistics.median(seen) for slot, seen in by_slot.items()}
    latencies_ms = sorted(typical[op["slot"]] * 1000 for op in timed.ops)
    p90 = statistics.quantiles(latencies_ms, n=10)[8] if len(latencies_ms) > 1 else latencies_ms[-1]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (len(timed.ops) - len(timed.errors)) / timed.scaled_s,
        "op_ms_p50": statistics.median(latencies_ms),
        "op_ms_p90": p90,
        "peak_rss_mb": rss,
    }
    print(f"# {len(timed.ops)} ops in {timed.busy_s:.2f} s of op time "
          f"({timed.scaled_s:.2f} s at reference speed); set-up samples "
          + ", ".join(f"{s:.4f}" for s in setups) + " s")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_run(wl, seconds: float, tag: str) -> tuple[list[Pass], dict]:
    """Untraced pass, then the same ops traced; per-layer metrics from the spans."""
    if isinstance(wl, workloads.CliOneshot):
        wl.in_process = True  # replay each argv through cli.main, caches cleared per op
    gc.collect()
    plain = closed_loop(wl, seconds)
    described = {}
    observe = (lambda i, op, out: described.__setitem__(i, wl.describe(op, out))) \
        if hasattr(wl, "describe") else None
    gc.collect()
    with tracing.Tracer() as tracer:
        traced = closed_loop(wl, 0, ops=plain.ops, tracer=tracer, observe=observe)
    interpreter_ms, import_ms = interpreter_probes()
    factors = [t / (e - s) for t, (s, e, _) in zip(traced.latencies, traced.intervals)]
    metrics = tracing.layer_metrics(tracer, factors, plain.scaled_s, traced.scaled_s,
                                    interpreter_ms, import_ms)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}-spans.json").write_text(json.dumps(tracer.dump()))
    if described:
        write_scaling(OUT / f"{tag}-scaling.csv", described, tracer, factors)
    print(f"# traced {len(plain.ops)} ops; spans and scaling rows in {OUT.name}/{tag}-*")
    return [plain, traced], metrics


def write_scaling(path: Path, described: dict, tracer, factors) -> None:
    """One row per knot of the traced pass: sizes next to the self time of each layer."""
    self_by_op = tracer.layer_self_by_op(factors)
    layers = [layer for layer in tracing.LAYERS if layer not in ("cli", "verify")]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "knot", "genus", "alexander_terms", "hull_lines",
                         "hull_breakpoints", "upsilon_segments"]
                        + [f"{layer}_self_s" for layer in layers])
        for i, row in sorted(described.items()):
            counts = tracer.counters[i]
            writer.writerow([row["family"], row["knot"], row["genus"], row["alexander_terms"],
                             counts["upsilon.envelope.lines_in"],
                             counts["upsilon.envelope.breakpoints_out"], row["upsilon_segments"]]
                            + [f"{self_by_op[i][layer]:.6g}" for layer in layers])


def check_declared(names, key: str) -> None:
    """Fail loudly when the metrics drift from the ones BENCHMARK.json declares."""
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        declared = [m["name"] for m in json.loads(spec.read_text())[key]]
        if sorted(declared) != sorted(names):
            sys.exit(f"error: metrics {sorted(names)} differ from BENCHMARK.json {key}")


def run_one(args) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed)
    _, setup_first, _ = SpeedProbe().timed(wl.setup, interleave=True)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_first}))
        return 0
    n_ops = sum(len(r) for r in wl.rounds)
    print(f"# {wl.name} seed {args.seed}: {n_ops} ops in {len(wl.rounds)} rounds, "
          f"ops digest sha256:{workloads.digest(wl.rounds)}")
    tag = f"{wl.name}-seed{args.seed}"
    if args.trace:
        passes, metrics = traced_run(wl, args.seconds, tag)
        check_declared(metrics, "per_layer")
    else:
        gc.collect()
        passes = [closed_loop(wl, args.seconds, interleave=wl.in_process)]
        metrics = end_to_end(wl, passes[0], setup_first)
        check_declared(metrics, "end_to_end")
    attempted = sum(len(p.ops) for p in passes)
    errors = [e for p in passes for e in p.errors]
    for message in wl.setup_errors:
        print(f"setup check failed: {message}", file=sys.stderr)
    for index, message in errors[:20]:
        print(f"op {index} failed: {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    correct = not errors and not wl.setup_errors
    print(f"# failed {len(errors)} of {attempted} attempted ops")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, then one table of every metric."""
    rows, totals, metrics, correct = [], [0, 0], {}, True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            correct = False
            continue
        print(lines[0])
        correct = correct and result["correct"] and proc.returncode == 0
        totals[0] += result["attempted"]
        totals[1] += result["failed"]
        rows.append((name, f"failed {result['failed']} of {result['attempted']} ops", ""))
        for metric, m in result["metrics"].items():
            rows.append((name, metric, f"{m['value']:.6g} {m['unit']}"))
            metrics[f"{name}.{metric}"] = m
    width = max(len(r[1]) for r in rows) if rows else 0
    for workload, metric, value in rows:
        print(f"{workload:17s} {metric:{width}s} {value}")
    print(json.dumps({"correct": correct, "attempted": totals[0], "failed": totals[1],
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["all", *workloads.WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "lspaceknots" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # one core: the ops, the calibration kernel and every child share it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
