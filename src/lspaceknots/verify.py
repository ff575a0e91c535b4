"""Built-in verification suite.

Every check recomputes a documented quantity from scratch, compares exactly
(tolerance zero) and draws its random samples from fixed seeds.  It builds each
object once: one jump spectrum per combination, one upsilon per sample.  The
dense oracle is integer-scaled (t = r/1000) but still visits every line.  The
``verify-paper`` subcommand and the acceptance tests run this list.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Callable

from . import knotexpr, obstruct, semigroup, upsilon
from ._record import frozen
from .intpoly import IntPolynomial, cable_alexander, torus_alexander
from .knotexpr import jfamily, torus
from .semigroup import FormalSemigroup, from_alexander, from_generators
from .upsilon import (
    jump_spectrum,
    torus_consecutive_upsilon,
    upsilon_from_semigroup,
    upsilon_of_knot,
)


@frozen
class Check:
    name: str
    tags: tuple[str, ...]
    detail: str
    run: Callable[[], list[str]]


CHECKS: list[Check] = []


def _register(name: str, tags: tuple[str, ...], detail: str):
    def wrap(fn):
        CHECKS.append(Check(name, tags, detail, fn))
        return fn

    return wrap


def _coprime_torus_pairs(pmax: int, qmax: int) -> list[tuple[int, int]]:
    return [
        (p, q)
        for p in range(2, pmax + 1)
        for q in range(p + 1, qmax + 1)
        if gcd(p, q) == 1
    ]


def _admissible_cable_qs(p: int, inner_genus: int, count: int) -> list[int]:
    bound = max(p * (2 * inner_genus - 1), 1)
    out = []
    q = bound
    while len(out) < count:
        if gcd(p, q) == 1:
            out.append(q)
        q += 1
    return out


@_register(
    "torus-3-7-invariants",
    ("semigroup", "alexander"),
    "Alexander polynomial and gap-set complement of T(3,7)",
)
def check_torus_3_7() -> list[str]:
    failures = []
    expected = IntPolynomial.from_coeffs([1, -1, 0, 1, -1, 0, 1, 0, -1, 1, 0, -1, 1])
    actual = torus_alexander(3, 7)
    if actual != expected:
        failures.append(f"T(3,7) Alexander polynomial is {actual}, expected {expected}")
    sg = from_alexander(actual)
    if sg.genus != 6 or sg.small_elements != (0, 3, 6, 7, 9, 10):
        failures.append(f"T(3,7) gap-set complement is {sg}")
    if sg != from_generators({3, 7}):
        failures.append("T(3,7) complement does not match the semigroup generated by 3 and 7")
    if semigroup.closure_witness(sg) is not None:
        failures.append("T(3,7) complement must be closed under addition")
    return failures


@_register(
    "pretzel-237-gap-set",
    ("semigroup",),
    "gap-set complement of the (-2,3,7) pretzel and its closure witness",
)
def check_pretzel() -> list[str]:
    failures = []
    sg = from_alexander(knotexpr.alexander(knotexpr.PRETZEL_P237))
    if sg.genus != 5:
        failures.append(f"pretzel genus is {sg.genus}, expected 5")
    members_to_2g = sg.small_elements + (2 * sg.genus,)
    if members_to_2g != (0, 3, 5, 7, 8, 10):
        failures.append(f"pretzel members through 2g are {members_to_2g}")
    witness = semigroup.closure_witness(sg)
    if witness != (3, 3):
        failures.append(f"pretzel closure witness is {witness}, expected (3, 3)")
    return failures


@_register(
    "cabling-formula-coherence",
    ("semigroup", "cabling"),
    "p*S + q*Z matches the gap set of the cable Alexander polynomial",
)
def check_cabling_coherence() -> list[str]:
    failures = []
    trefoil = torus_alexander(2, 3)
    base = from_alexander(trefoil)
    for p in (2, 3, 4):
        for q in _admissible_cable_qs(p, base.genus, 4):
            via_set = semigroup.cable_semigroup(base, p, q)
            via_poly = from_alexander(cable_alexander(trefoil, p, q))
            if via_set != via_poly:
                failures.append(f"cable ({p},{q}) of T(2,3): {via_set} != {via_poly}")
    return failures


@_register(
    "jk-generator-presentation",
    ("semigroup",),
    "gap set of J(k) is generated by 2k-1, 2k and 3k for k = 3..10",
)
def check_jk_semigroups() -> list[str]:
    failures = []
    for k in range(3, 11):
        via_knot = from_alexander(knotexpr.alexander(jfamily(k)))
        via_gens = from_generators({2 * k - 1, 2 * k, 3 * k})
        if via_knot != via_gens:
            failures.append(f"J({k}): {via_knot} != {via_gens}")
    return failures


@_register(
    "jk-upsilon-segments",
    ("upsilon",),
    "upsilon of J(k) is -g*t up to 2/(2k-1) and -2-(g-(2k-1))*t up to "
    "min(4/(k+1), 6/(2k-1)), and rises above that line beyond, for k = 3..10",
)
def check_jk_upsilon() -> list[str]:
    # Upsilon is the maximum over members m of S = <2k-1, 2k, 3k> of
    # -2*#(S cap [0, m)) - t*(g - m).  The second segment is the line through
    # m = 2k-1 (one member below); the first line to rise above it is the one
    # through 3k (three below, crossing at 4/(k+1)) or through 2(2k-1)
    # (four below, crossing at 6/(2k-1)).
    failures = []
    for k in range(3, 11):
        g = k + (k - 1) ** 2
        f = upsilon_of_knot(jfamily(k))
        first_end = Fraction(2, 2 * k - 1)
        second_end = min(Fraction(4, k + 1), Fraction(6, 2 * k - 1))
        for t in (Fraction(0), first_end / 2, first_end):
            if f(t) != -g * t:
                failures.append(f"J({k}) at t={t}: {f(t)} != {-g * t}")
        for t in (first_end, (first_end + second_end) / 2, second_end):
            want = -2 - (g - (2 * k - 1)) * t
            if f(t) != want:
                failures.append(f"J({k}) at t={t}: {f(t)} != {want}")
        beyond = (second_end + 2) / 2
        line = -2 - (g - (2 * k - 1)) * beyond
        if f(beyond) <= line:
            failures.append(
                f"J({k}) at t={beyond}: {f(beyond)} does not exceed the second line {line}"
            )
    return failures


@_register(
    "lambda-matrix-triangular",
    ("lambda", "matrix"),
    "jump-difference matrix of J(3)..J(10) has unit diagonal and zero upper part",
)
def check_lambda_matrix() -> list[str]:
    failures = []
    kmin, kmax = 3, 10
    matrix = obstruct.independence_matrix(kmin, kmax)
    for r, row in enumerate(matrix):
        for c, entry in enumerate(row):
            if r == c and entry != 1:
                failures.append(f"diagonal entry for k={kmin + r} is {entry}, expected 1")
            if c > r and entry != 0:
                failures.append(
                    f"entry (k={kmin + r}, i={kmin + c}) is {entry}, expected 0"
                )
    return failures


@_register(
    "consecutive-torus-decomposition",
    ("decompose",),
    "upsilon of sampled algebraic knots expands with nonnegative integers; J(k) never does",
)
def check_decomposition() -> list[str]:
    failures = []
    samples = [torus(p, q) for p, q in _coprime_torus_pairs(6, 13)]
    samples += [knotexpr.cable(torus(2, 3), 2, q) for q in (13, 15, 17)]
    for knot in samples:
        if knotexpr.classify_algebraic(knot) is not knotexpr.Algebraicity.ALGEBRAIC:
            failures.append(f"sample {knot} should satisfy the index criterion")
            continue
        dec = obstruct.decompose_into_consecutive_torus(upsilon_of_knot(knot))
        if not (dec.succeeded and dec.all_integer and dec.all_nonnegative):
            failures.append(f"{knot} should expand with nonnegative integer coefficients")
            continue
        recombined = upsilon.pl_combine(
            [(c, torus_consecutive_upsilon(n)) for n, c in dec.coefficients]
        )
        if recombined != upsilon_of_knot(knot):
            failures.append(f"{knot}: recombining the expansion does not reproduce upsilon")
    for k in range(3, 11):
        dec = obstruct.decompose_into_consecutive_torus(upsilon_of_knot(jfamily(k)))
        if dec.succeeded and dec.all_integer:
            failures.append(f"J({k}) must not admit an integer expansion")
    return failures


def _sample_semigroups() -> list[tuple[str, FormalSemigroup]]:
    out = []
    for p, q in _coprime_torus_pairs(6, 13):
        out.append((f"T({p},{q})", from_alexander(torus_alexander(p, q))))
    trefoil = from_alexander(torus_alexander(2, 3))
    for p in (2, 3, 4):
        for q in _admissible_cable_qs(p, 1, 4):
            out.append((f"C(T(2,3);{p},{q})", semigroup.cable_semigroup(trefoil, p, q)))
    for k in range(3, 11):
        out.append((f"J({k})", from_alexander(knotexpr.alexander(jfamily(k)))))
    out.append(("P237", from_alexander(knotexpr.PRETZEL_ALEXANDER)))
    return out


@_register(
    "structural-properties",
    ("properties", "upsilon", "envelope", "semigroup"),
    "duality/growth, upsilon symmetry/convexity, jump integrality, consecutive-torus "
    "jump law, first singularity, and the envelope against a pointwise maximum",
)
def check_structural_properties() -> list[str]:
    failures = []
    samples = _sample_semigroups()
    for name, sg in samples:
        g = sg.genus
        members = set(sg.small_elements)
        for s in range(2 * g):
            if (s in members) == ((2 * g - 1 - s) in members):
                failures.append(f"{name}: duality fails at {s}")
        for i, s in enumerate(sg.small_elements):
            if s < 2 * i:
                failures.append(f"{name}: growth bound fails at position {i}")
    upsilons = [upsilon_from_semigroup(sg) for _, sg in samples]
    for (name, sg), f in zip(samples, upsilons):
        if f(0) != 0:
            failures.append(f"{name}: upsilon(0) = {f(0)}")
        if f.mirrored() != f:
            failures.append(f"{name}: upsilon is not symmetric about t = 1")
        slopes = f.slopes
        if any(slopes[i] >= slopes[i + 1] for i in range(len(slopes) - 1)):
            failures.append(f"{name}: slopes are not strictly increasing")
        for t0, jump in jump_spectrum(f).items():
            if (t0 / 2 * jump).denominator != 1:
                failures.append(f"{name}: (t0/2)*jump = {t0 / 2 * jump} is not an integer")
    for n in range(2, 41):
        expected = {Fraction(2 * i, n): Fraction(n) for i in range(1, n)}
        actual = jump_spectrum(torus_consecutive_upsilon(n))
        if actual != expected:
            failures.append(f"T({n},{n + 1}): jump spectrum differs from the closed form")
    for (name, sg), f in zip(samples, upsilons):
        if sg.genus == 0 or semigroup.closure_witness(sg) is not None:
            continue
        if len(f.slopes) < 2:
            failures.append(f"{name}: upsilon has no singularity")
            continue
        a = semigroup.min_nonzero(sg)
        if f.breakpoints[1] != Fraction(2, a):
            failures.append(f"{name}: first singularity at {f.breakpoints[1]}, expected 2/{a}")
        if f.slopes[0] != -sg.genus:
            failures.append(f"{name}: initial slope {f.slopes[0]}, expected {-sg.genus}")
        beyond = (f.breakpoints[1] + f.breakpoints[2]) / 2
        if f(beyond) <= -sg.genus * beyond:
            failures.append(f"{name}: upsilon does not exceed -g*t beyond the first singularity")
    rng = random.Random(20260810)
    for _ in range(100):
        a = rng.randrange(2, 10)
        b = rng.randrange(a + 1, a + 40)
        while gcd(a, b) != 1:
            b = rng.randrange(a + 1, a + 40)
        sg = from_generators({a, b})
        r = rng.randrange(0, 2001)
        t = Fraction(r, 1000)
        g = sg.genus
        direct = max(-2000 * sg.count_below(m) - r * (g - m) for m in range(2 * g + 1))
        if upsilon_from_semigroup(sg)(t) != Fraction(direct, 1000):
            failures.append(f"envelope of <{a},{b}> differs from the pointwise maximum at t={t}")
    return failures


@_register(
    "jump-equality-on-combinations",
    ("upsilon", "jumps"),
    "random integer combinations of consecutive-torus upsilons have equal jumps at 2/p and 4/p",
)
def check_jump_equality_combinations() -> list[str]:
    failures = []
    rng = random.Random(97)
    for trial in range(200):
        ns = rng.sample(range(2, 21), 5)
        terms = [(rng.randint(-3, 3), torus_consecutive_upsilon(n)) for n in ns]
        spectrum = jump_spectrum(upsilon.pl_combine(terms))
        for p in range(3, 16, 2):
            if not obstruct.JumpComparison.read(spectrum, p).equal:
                failures.append(f"trial {trial}: jumps differ at 2/{p} vs 4/{p}")
    return failures


def run_checks(filter_tag: str | None = None, writer=print) -> bool:
    """Run the suite, print one line per check, and return True when all pass.

    A filter that selects no check is a failure, so a typo cannot pass as a clean run.
    """
    selected = [
        c
        for c in CHECKS
        if filter_tag is None or filter_tag in c.name or filter_tag in c.tags
    ]
    if not selected:
        writer(f"no check matches {filter_tag!r}")
        return False
    all_ok = True
    for check in selected:
        try:
            failures = check.run()
        except Exception as exc:  # a crash is a failure, not an abort
            failures = [f"{type(exc).__name__}: {exc}"]
        if failures:
            all_ok = False
            writer(f"FAIL {check.name} [{check.detail}]: {failures[0]}")
            for extra in failures[1:5]:
                writer(f"     {extra}")
        else:
            writer(f"PASS {check.name} [{check.detail}]")
    writer(f"{sum(1 for _ in selected)} checks run")
    return all_ok
