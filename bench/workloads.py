"""Workloads of the lspaceknots benchmark: op generation, ops and output checks.

Each workload builds ``ROUNDS`` rounds of ops from the seed alone.  A round
has a fixed shape: the same families, genus rungs, combination sizes and
subcommands every time.  The seed picks the concrete knots inside narrow
windows, the multiplicities and the order, so every seed asks for about the
same work.  A run cycles through the rounds and stops on a round boundary.

Every op's output is checked after its timed span, by a route other than
the one timed: closed-form genera, index criteria and consecutive-torus
jump spectra, exact recombination of decompositions, and, for the CLI, the
parsed JSON against values computed in-process.

The package is imported in ``setup``; ``sys.path`` must already reach it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

ROUNDS = 64  # rounds generated per seed; a run cycles through them
ZERO = Fraction(0)


# ---------------------------------------------------------------- closed forms
# The benchmark's own routes to the expected values.  They use only the
# cabling indices of a tower, never the package.


def tower_text(stages) -> str:
    (p, q), *rest = stages
    text = f"T({p},{q})"
    for p, q in rest:
        text = f"C({text};{p},{q})"
    return text


def tower_genus(stages) -> int:
    """g(T(p,q)) = (p-1)(q-1)/2 and g(C(K;p,q)) = p*g(K) + (p-1)(q-1)/2."""
    (p, q), *rest = stages
    g = (p - 1) * (q - 1) // 2
    for p, q in rest:
        g = p * g + (p - 1) * (q - 1) // 2
    return g


def tower_is_algebraic(stages) -> bool:
    """Index criterion: q_{i+1} > p_i * q_i * p_{i+1} at every stage."""
    return all(q2 > p1 * q1 * p2 for (p1, q1), (p2, q2) in zip(stages, stages[1:]))


def consecutive_torus_jumps(n: int) -> dict[Fraction, Fraction]:
    """Upsilon of T(n, n+1) jumps by n at each 2i/n, 0 < i < n."""
    return {Fraction(2 * i, n): Fraction(n) for i in range(1, n)}


def slope_jumps(f) -> dict[Fraction, Fraction]:
    """Slope changes read straight off the breakpoints and slopes of f."""
    return {f.breakpoints[i]: f.slopes[i] - f.slopes[i - 1] for i in range(1, len(f.slopes))}


def linear_combination(pairs) -> dict:
    """sum(c * d) over (c, dict) pairs, dropping zero entries."""
    acc: dict = {}
    for c, d in pairs:
        for key, value in d.items():
            acc[key] = acc.get(key, ZERO) + c * value
    return {key: value for key, value in acc.items() if value != 0}


def recombination_error(dec, jumps, initial_slope) -> str | None:
    """Compare sum(c_n * upsilon(T(n,n+1))) with a function given by its jumps and first slope.

    A continuous piecewise-linear function with value 0 at t = 0 is fixed by
    its first slope and its jumps, so this comparison is exact.
    """
    coefficients = dec.coefficients
    if linear_combination((c, consecutive_torus_jumps(n)) for n, c in coefficients) != jumps:
        return "recombined decomposition has other jumps than the function"
    if sum(-c * (n * (n - 1) // 2) for n, c in coefficients) != initial_slope:
        return "recombined decomposition has another initial slope than the function"
    return None


def combination_text(terms) -> str:
    parts = []
    for text, mult in terms:
        body = text if abs(mult) == 1 else f"{abs(mult)}*{text}"
        if not parts:
            parts.append(body if mult > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if mult > 0 else f"- {body}")
    return " ".join(parts)


def digest(rounds) -> str:
    return hashlib.sha256(json.dumps(rounds, sort_keys=True).encode()).hexdigest()


def knot_op(family: str, stages, text: str | None = None) -> dict:
    return {
        "family": family,
        "text": text or tower_text(stages),
        "stages": [list(s) for s in stages],
        "genus": tower_genus(stages),
    }


P237_OP = {"family": "P237", "text": "P237", "stages": None, "genus": 5}


def child_env() -> dict:
    """Environment for child interpreters: the package source first on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class Workload:
    """Interface shared by the workloads; ``setup`` fills ``rounds``."""

    name = ""
    in_process = True  # the ops run in this process, not in children

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds: list[list[dict]] = []
        self.setup_errors: list[str] = []

    def make_rounds(self, rng: random.Random) -> list[list[dict]]:
        """ROUNDS rounds; each op keeps its position in the round's shape as ``slot``."""
        rounds = []
        for _ in range(ROUNDS):
            ops = self.make_round(rng)
            for slot, op in enumerate(ops):
                op["slot"] = slot
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds

    def make_round(self, rng: random.Random) -> list[dict]:
        """One round's ops in a fixed order of slots."""
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> str | None:
        raise NotImplementedError

    def _clear_caches(self):
        for cached in self.caches:
            cached.cache_clear()

    def _import(self):
        from lspaceknots import cli, intpoly, knotexpr, obstruct, semigroup, upsilon, verify

        self.cli, self.intpoly, self.knotexpr = cli, intpoly, knotexpr
        self.obstruct, self.semigroup, self.upsilon, self.verify = obstruct, semigroup, upsilon, verify
        # the lru_cache objects themselves; tracing rebinds the module attributes
        self.caches = (knotexpr.alexander, upsilon.upsilon_of_knot, upsilon.torus_consecutive_upsilon)
        self.alexander, self.upsilon_of_knot = knotexpr.alexander, upsilon.upsilon_of_knot

    def single_knot(self, text):
        (knot, _), = self.knotexpr.parse(text).items()
        return knot


# ---------------------------------------------------------------- obstruct-cold

# Genus ladders, geometric at the top and dense at the bottom so that the
# median op sits among many ops of similar cost.
TNN_RUNGS = (100, 71, 50, 35, 25, 20, 16, 13, 11, 9, 7, 5, 4, 3)  # n of T(n,n+1): 2n-1 terms
T2_RUNGS = (2000, 1000, 500, 250, 180, 125, 90, 60, 45, 30, 20, 15, 10, 7)  # genus; 2g+1 terms
T3_RUNGS = (2000, 1000, 500, 250, 180, 125, 90, 60, 45, 30, 20, 15, 10)  # genus of T(3,q)
J_RUNGS = (60, 42, 30, 21, 17, 15, 12, 10, 8, 7, 6, 5, 4, 3)  # k of J(k): genus k + (k-1)^2
TOWER_SLOTS = (  # (core, (p, algebraic stage?) per cabling): 3-4 stages with the core
    ((2, 3), ((3, False), (2, True))),
    ((2, 5), ((2, True), (3, False))),
    ((3, 4), ((2, True), (2, True))),
    ((2, 3), ((2, True), (3, True), (2, True))),  # the shape of C(C(C(T(2,3);2,13);3,83);2,501)
    ((2, 3), ((3, False), (2, True), (2, False))),
    ((2, 3), ((2, False), (2, False), (2, True))),
)


def random_tower(rng: random.Random, core, cablings) -> list[tuple[int, int]]:
    """Certified tower (q >= p(2g-1) at every stage); the seed only nudges each q."""
    stages = [core]
    for p, algebraic in cablings:
        p_in, q_in = stages[-1]
        bound = p * (2 * tower_genus(stages) - 1)
        threshold = p_in * q_in * p  # algebraic above it; the bound never exceeds it
        q = (threshold + 1 if algebraic else bound) + rng.randrange(2 * p)
        while gcd(p, q) != 1:
            q += 1
        stages.append((p, q))
    return stages


class ObstructCold(Workload):
    """One op: clear the caches, parse, and build the full obstruction report."""

    name = "obstruct-cold"

    def make_round(self, rng):
        ops = []
        # the seed moves the genus of a rung by about 1% at most, so small rungs stay put
        for n0 in TNN_RUNGS:
            n = n0 + rng.choice((-1, 0, 1)) if n0 >= 50 else n0
            ops.append(knot_op("T(n,n+1)", [(n, n + 1)]))
        for g0 in T2_RUNGS:
            g = g0 + rng.randint(-(g0 // 100), g0 // 100)
            ops.append(knot_op("T(2,q)", [(2, 2 * g + 1)]))
        for g0 in T3_RUNGS:
            g = g0 + rng.randint(-(g0 // 100), g0 // 100)
            g += (g + 1) % 3 == 0  # T(3,q) has genus q - 1 and needs 3 coprime to q
            ops.append(knot_op("T(3,q)", [(3, g + 1)]))
        for k0 in J_RUNGS:
            k = k0 + rng.choice((-1, 0, 1)) if k0 >= 42 else k0
            ops.append(knot_op("J(k)", [(2, 3), (k, 2 * k - 1)], f"J({k})"))
        for core, cablings in TOWER_SLOTS:
            ops.append(knot_op("tower", random_tower(rng, core, cablings)))
        ops.append(dict(P237_OP))
        return ops

    def setup(self):
        self._import()
        self.rounds = self.make_rounds(random.Random(self.seed))

    def run(self, op):
        self._clear_caches()
        knot = self.single_knot(op["text"])
        return knot, self.obstruct.algebraicity_report(knot)

    def check(self, op, out):
        knot, report = out
        g = op["genus"]
        poly = self.alexander(knot)  # still cached from the op
        if poly.degree != 2 * g:
            return f"{op['text']}: Alexander degree {poly.degree}, closed-form genus {g}"
        f = self.upsilon_of_knot(knot)
        if f.value_at_zero != 0 or f.slopes[0] != -g:
            return f"{op['text']}: upsilon starts with slope {f.slopes[0]}, expected {-g}"
        jumps = slope_jumps(f)
        if op["stages"] is None:  # P237: its gap set {0,3,5,7,8,10,...} fails closure at 3+3
            expected = "not-algebraic"
            if report.closure_witness != (3, 3):
                return f"P237: closure witness {report.closure_witness}, expected (3, 3)"
        else:
            algebraic = tower_is_algebraic(op["stages"])
            expected = "algebraic" if algebraic else "not-algebraic"
            index = self.knotexpr.classify_algebraic(knot)
            if report.index_criterion is not index or (index.value == "algebraic") != algebraic:
                return f"{op['text']}: index criterion {report.index_criterion.value}, expected {expected}"
        if report.verdict.value != expected:
            return f"{op['text']}: verdict {report.verdict.value}, expected {expected}"
        dec = report.decomposition
        if dec.succeeded:
            error = recombination_error(dec, jumps, -g)
            if error:
                return f"{op['text']}: {error}"
        elif expected == "algebraic":
            return f"{op['text']}: an algebraic knot failed to decompose"
        if op["family"] == "T(n,n+1)":
            n = op["stages"][0][0]
            if jumps != consecutive_torus_jumps(n):
                return f"{op['text']}: jump spectrum differs from the closed form"
            if dec.coefficients != ((n, 1),):
                return f"{op['text']}: decomposition {dec.coefficients}, expected (({n}, 1),)"
        return None

    def describe(self, op, out) -> dict:
        """Sizes of one op's knot for the scaling table (reads the caches the op left)."""
        knot, _ = out
        return {
            "family": op["family"],
            "knot": op["text"],
            "genus": op["genus"],
            "alexander_terms": len(self.alexander(knot).terms),
            "upsilon_segments": len(self.upsilon_of_knot(knot).slopes),
        }


# ---------------------------------------------------------------- concordance-warm

POOL_MISC = (
    ("T(2,5)", [(2, 5)]), ("T(2,7)", [(2, 7)]), ("T(2,9)", [(2, 9)]),
    ("T(3,5)", [(3, 5)]), ("T(3,7)", [(3, 7)]), ("T(3,8)", [(3, 8)]),
    ("T(4,7)", [(4, 7)]), ("T(4,9)", [(4, 9)]), ("T(5,7)", [(5, 7)]),
    ("C(T(2,3);2,13)", [(2, 3), (2, 13)]), ("C(T(2,3);3,19)", [(2, 3), (3, 19)]),
    ("C(T(2,5);2,19)", [(2, 5), (2, 19)]), ("C(T(3,4);2,25)", [(3, 4), (2, 25)]),
    ("P237", None),
)
POOL_BINS = (  # combinations draw their terms bin by bin, so every round has one cost profile
    tuple(f"J({k})" for k in range(3, 10)),
    tuple(f"J({k})" for k in range(10, 20)),
    tuple(f"J({k})" for k in range(20, 31)),
    tuple(f"T({n},{n + 1})" for n in range(2, 14)),
    tuple(f"T({n},{n + 1})" for n in range(14, 27)),
    tuple(f"T({n},{n + 1})" for n in range(27, 41)),
    tuple(text for text, _ in POOL_MISC),
)
COMBINATION_SLOTS = 19  # slot j combines 3 + j % 6 knots; one more slot per round is a matrix op
ODD_PS = tuple(range(3, 42, 2))
LAMBDA_KS = tuple(range(3, 21))
WARM_TORUS_N = range(2, 61)  # decompositions peel T(n,n+1) down from 2/t1 <= 59 (J(30))


def pool_genus_and_n() -> dict[str, tuple[int, int | None]]:
    """Closed-form genus of every pool knot, and n for the consecutive torus knots."""
    out = {text: (tower_genus(stages), None) for text, stages in POOL_MISC if stages}
    out["P237"] = (5, None)
    for k in range(3, 31):
        out[f"J({k})"] = (tower_genus([(2, 3), (k, 2 * k - 1)]), None)
    for n in range(2, 41):
        out[f"T({n},{n + 1})"] = (n * (n - 1) // 2, n)
    return out


class ConcordanceWarm(Workload):
    """One op: a seeded combination of pool knots whose upsilons are all cached."""

    name = "concordance-warm"

    def make_round(self, rng):
        ops = []
        for j in range(COMBINATION_SLOTS):
            terms = []
            for i in range(3 + j % 6):
                candidates = [t for t in POOL_BINS[(j + i) % len(POOL_BINS)]
                              if t not in dict(terms)]
                terms.append((rng.choice(candidates), rng.choice((-3, -2, -1, 1, 2, 3))))
            rng.shuffle(terms)
            ops.append({"kind": "combination", "terms": terms, "text": combination_text(terms)})
        ops.append({"kind": "matrix", "kmax": rng.randint(12, 20)})
        return ops

    def setup(self):
        self._import()
        self.rounds = self.make_rounds(random.Random(self.seed))
        self.pool = pool_genus_and_n()
        for text in self.pool:
            self.upsilon.upsilon_of_knot(self.single_knot(text))
        for n in WARM_TORUS_N:
            self.upsilon.torus_consecutive_upsilon(n)
        self.jumps = {}
        for text, (g, n) in self.pool.items():
            f = self.upsilon_of_knot(self.single_knot(text))
            self.jumps[text] = slope_jumps(f)
            if f.value_at_zero != 0 or f.slopes[0] != -g:
                self.setup_errors.append(f"{text}: upsilon starts with slope {f.slopes[0]}, expected {-g}")
            if n is not None and self.jumps[text] != consecutive_torus_jumps(n):
                self.setup_errors.append(f"{text}: jump spectrum differs from the closed form")

    def run(self, op):
        if op["kind"] == "matrix":
            return self.obstruct.independence_matrix(3, op["kmax"])
        f = self.upsilon.upsilon_of_combination(self.knotexpr.parse(op["text"]))
        spectrum = self.upsilon.jump_spectrum(f)
        comparisons = [self.obstruct.jump_equality(f, p) for p in ODD_PS]
        lambdas = [self.obstruct.lambda_invariant(k, f) for k in LAMBDA_KS]
        return f, spectrum, comparisons, lambdas, self.obstruct.decompose_into_consecutive_torus(f)

    def lambda_of(self, jumps, k) -> Fraction:
        p = 2 * k - 1
        return (jumps.get(Fraction(2, p), ZERO) - jumps.get(Fraction(4, p), ZERO)) / p

    def check(self, op, out):
        if op["kind"] == "matrix":
            ks = range(3, op["kmax"] + 1)
            want = tuple(tuple(self.lambda_of(self.jumps[f"J({k})"], i) for i in ks) for k in ks)
            if out != want:
                return f"independence_matrix(3, {op['kmax']}) differs from the cached J(k) jumps"
            if any(want[r][c] != (r == c) for r in range(len(ks)) for c in range(r, len(ks))):
                return f"independence_matrix(3, {op['kmax']}) is not unit lower triangular"
            return None
        f, spectrum, comparisons, lambdas, dec = out
        terms = op["terms"]
        jumps = linear_combination((m, self.jumps[t]) for t, m in terms)
        slope = -sum(m * self.pool[t][0] for t, m in terms)
        if f.value_at_zero != 0 or f.slopes[0] != slope or slope_jumps(f) != jumps:
            return f"{op['text']}: upsilon differs from the combination of its terms' upsilons"
        if spectrum != jumps:
            return f"{op['text']}: jump_spectrum differs from the slope changes"
        for cmp, p in zip(comparisons, ODD_PS):
            if (cmp.p, cmp.jump_at_2_over_p, cmp.jump_at_4_over_p) != (
                p, jumps.get(Fraction(2, p), ZERO), jumps.get(Fraction(4, p), ZERO)
            ):
                return f"{op['text']}: jump comparison at p={p} is wrong"
        if lambdas != [self.lambda_of(jumps, k) for k in LAMBDA_KS]:
            return f"{op['text']}: lambda invariants are wrong"
        if dec.succeeded:
            error = recombination_error(dec, jumps, slope)
            if error:
                return f"{op['text']}: {error}"
        elif all(self.pool[t][1] is not None for t, _ in terms):
            return f"{op['text']}: a consecutive-torus combination failed to decompose"
        return None


# ---------------------------------------------------------------- cli-oneshot

# (text, stages or None, closed-form genus).  Each (subcommand, format) pair
# runs once on the small knots (genus <= 40) and once on the large ones
# (genus 50..200), so every round has one cost profile.
CLI_SMALL = (
    *((f"T({n},{n + 1})", [(n, n + 1)], None) for n in (2, 3, 5, 8)),
    *((f"J({k})", [(2, 3), (k, 2 * k - 1)], None) for k in (3, 5)),
    *((f"T(2,{q})", [(2, q)], None) for q in (5, 21)),
    *((f"T(3,{q})", [(3, q)], None) for q in (7, 41)),
    *((None, stages, None) for stages in (
        [(2, 3), (2, 13)], [(2, 3), (3, 19)], [(2, 3), (3, 7), (2, 41)],
    )),
    ("P237", None, 5),
    ("alex[1,-1,0,1,-1,1,-1,1,0,-1,1]", None, 5),
)
CLI_LARGE = (
    *((f"T({n},{n + 1})", [(n, n + 1)], None) for n in (12, 16, 20)),
    *((f"J({k})", [(2, 3), (k, 2 * k - 1)], None) for k in (8, 11, 14)),
    *((f"T(2,{q})", [(2, q)], None) for q in (101, 201, 401)),
    *((f"T(3,{q})", [(3, q)], None) for q in (101, 200)),
    *((None, stages, None) for stages in ([(2, 3), (2, 13), (3, 83)], [(2, 5), (2, 19), (2, 79)])),
)
CLI_POLYNOMIAL = ("1 - t + t^3 - t^4 + t^6 - t^8 + t^9 - t^11 + t^12", None, 6)  # T(3,7)
COMMANDS = ("semigroup", "upsilon", "jumps", "decompose", "obstruct", "lambda", "matrix")
FORMATS = ("json", "csv", "text")
ENTRY = "import sys; from lspaceknots.cli import entry; entry()"


def cli_knot(entry) -> dict:
    text, stages, genus = entry
    return {
        "text": text or tower_text(stages),
        "stages": stages,
        "genus": genus if genus is not None else tower_genus(stages),
    }


class CliOneshot(Workload):
    """One op: one ``lspaceknots`` child process; in-process replay when ``in_process``."""

    name = "cli-oneshot"
    in_process = False  # True replays each argv through cli.main instead

    def make_round(self, rng):
        ops = []
        for pool in (CLI_SMALL + (CLI_POLYNOMIAL,), CLI_LARGE):
            combinable = [cli_knot(e) for e in pool if e is not CLI_POLYNOMIAL]
            singles = [cli_knot(e) for e in pool]
            for cmd in COMMANDS:
                for fmt in FORMATS:
                    op = {"cmd": cmd, "format": fmt}
                    if cmd in ("semigroup", "obstruct"):
                        op["knot"] = rng.choice(singles)
                        argv = [cmd, op["knot"]["text"]]
                    elif cmd == "matrix":
                        op["kmax"] = rng.randint(4, 10)
                        argv = [cmd, "--kmin", "3", "--kmax", str(op["kmax"])]
                    else:
                        chosen = rng.sample(combinable, rng.randint(1, 3))
                        terms = [(k["text"], rng.choice((1, 2, -1, -2)) if i else rng.choice((1, 2)))
                                 for i, k in enumerate(chosen)]  # a leading '-' would read as an option
                        argv = [cmd, combination_text(terms)]
                        if cmd == "upsilon" and fmt == "csv":
                            argv += ["--subdivisions", str(rng.choice((0, 4, 8)))]
                        elif cmd == "jumps":
                            argv += ["--p", ",".join(map(str, sorted(rng.sample(range(3, 16, 2), 3))))]
                        elif cmd == "lambda":
                            op["k"] = rng.randint(2, 10)
                            argv += ["--k", str(op["k"])]
                    op["argv"] = argv + ["--format", fmt]
                    ops.append(op)
        ops.append({"cmd": "verify-paper", "argv": ["verify-paper"]})
        return ops

    def setup(self):
        self._import()
        self.rounds = self.make_rounds(random.Random(self.seed))
        self.env = child_env()
        lines: list[str] = []
        ok = self.verify.run_checks(None, writer=lines.append)
        self.verify_out = "".join(line + "\n" for line in lines)
        self.verify_code = 0 if ok else 1  # the standing FAIL of jk-upsilon-segments makes this 1

    def run(self, op):
        if self.in_process:
            self._clear_caches()
            return self.replay(op["argv"])
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY, *op["argv"]],
            stdin=subprocess.DEVNULL, capture_output=True, text=True, env=self.env, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def replay(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, op, out):
        code, stdout, stderr = out
        if op["cmd"] == "verify-paper":
            if (code, stdout) != (self.verify_code, self.verify_out):
                return f"verify-paper: exit {code} or output differs from the in-process run_checks"
            return None
        if code != 0 or stderr:
            return f"{' '.join(op['argv'])}: exit {code}, stderr {stderr.strip()[:200]!r}"
        if op["format"] == "json":
            return self.check_json(op, json.loads(stdout))
        if stdout != self.replay(op["argv"])[1]:
            return f"{' '.join(op['argv'])}: output differs from the in-process run"
        return None

    def parse_knot(self, text):
        try:
            return self.knotexpr.parse(text)
        except self.knotexpr.ParseError:
            poly = self.intpoly.parse_polynomial(text)
            return self.knotexpr.combination([(self.knotexpr.explicit_alexander(poly), 1)])

    def check_json(self, op, payload) -> str | None:
        cmd, argv = op["cmd"], op["argv"]
        s = str
        if cmd == "matrix":
            rows = self.obstruct.independence_matrix(3, op["kmax"])
            want = {"rows": [[s(x) for x in row] for row in rows]}
            n = len(rows)
            if any(rows[r][c] != (r == c) for r in range(n) for c in range(r, n)):
                return f"{' '.join(argv)}: matrix is not unit lower triangular"
        elif cmd in ("semigroup", "obstruct"):
            knot = op["knot"]
            (expr, _), = self.parse_knot(knot["text"]).items()
            if cmd == "semigroup":
                sg = self.semigroup.from_alexander(self.alexander(expr))
                witness = self.semigroup.closure_witness(sg)
                want = {
                    "genus": knot["genus"],
                    "small_elements": list(sg.small_elements),
                    "closed": witness is None,
                    "witness": list(witness) if witness else None,
                }
            else:
                report = self.obstruct.algebraicity_report(expr)
                want = {"verdict": report.verdict.value, "reasons": list(report.reasons)}
                if knot["stages"] is not None:
                    closed_form = "algebraic" if tower_is_algebraic(knot["stages"]) else "not-algebraic"
                    if report.verdict.value != closed_form:
                        return f"{' '.join(argv)}: in-process verdict is not {closed_form}"
        else:
            f = self.upsilon.upsilon_of_combination(self.parse_knot(argv[1]))
            if cmd == "upsilon":
                want = {"breakpoints": [s(b) for b in f.breakpoints],
                        "values": [s(v) for v in f.breakpoint_values]}
            elif cmd == "jumps":
                ps = [int(p) for p in argv[argv.index("--p") + 1].split(",")]
                want = {
                    "spectrum": {s(t): s(j) for t, j in sorted(self.upsilon.jump_spectrum(f).items())},
                    "equality": [
                        {"p": c.p, "jump_at_2_over_p": s(c.jump_at_2_over_p),
                         "jump_at_4_over_p": s(c.jump_at_4_over_p), "equal": c.equal}
                        for c in (self.obstruct.jump_equality(f, p) for p in ps)
                    ],
                }
            elif cmd == "decompose":
                dec = self.obstruct.decompose_into_consecutive_torus(f)
                want = {"succeeded": dec.succeeded,
                        "coefficients": {s(n): s(c) for n, c in dec.coefficients or ()}}
            else:
                want = {"lambda": s(self.obstruct.lambda_invariant(op["k"], f))}
        got = {key: payload.get(key) for key in want}
        if got != want:
            return f"{' '.join(argv)}: JSON fields {sorted(want)} differ from in-process values"
        return None


WORKLOADS = {w.name: w for w in (ObstructCold, ConcordanceWarm, CliOneshot)}
