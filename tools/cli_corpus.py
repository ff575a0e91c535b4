#!/usr/bin/env python3
"""Compare every CLI output of this checkout with another checkout's.

    python3 tools/cli_corpus.py PARENT_DIR

Runs the same corpus of ``lspaceknots`` commands, one child interpreter per
command, against ``PARENT_DIR/src`` and against this checkout's ``src``,
both under PYTHONDONTWRITEBYTECODE=1, and prints each command whose stdout,
stderr or exit code differs.  Exits 1 if any does, 0 otherwise.

The corpus runs every knot subcommand in json, csv and text, each with and
without --decimal, on the README knots, P237, J(3..10), 3- and 4-stage
towers, cables of J(3) and P237 on both sides of the L-space bound, torus
knots and cables of the unknot in either index order, accepted and rejected
alex[...] candidates, polynomial text, combinations and the known error
paths; then matrix, verify-paper with and without a filter, and usage errors.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2  # child interpreters at a time

KNOTS = (
    # README examples and small torus knots
    "T(3,7)", "J(3)", "C(T(2,3);2,11)", "T(2,3)", "T(4,5)", "T(5,6)", "U",
    "P237",
    *(f"J({k})" for k in range(4, 11)),
    # towers of 3 and 4 stages, algebraic and not
    "C(C(T(2,3);2,13);3,83)", "C(C(T(2,3);2,13);3,76)", "C(C(T(3,4);2,25);2,101)",
    "C(C(C(T(2,3);2,13);3,83);2,501)", "C(C(C(T(2,3);3,16);2,97);2,335)",
    # cables of J(3) and P237, above and below the L-space bound
    "C(J(3);2,41)", "C(P237;2,19)", "C(P237;2,17)",
    # torus knots and cables of the unknot in either index order, collapsing at index 1
    "T(3,2)", "C(U;5,3)", "C(U;2,1)",
    # alex[...] candidates: accepted, then failing shape, duality and growth
    "alex[1,-1,0,1,-1,0,1,0,-1,1,0,-1,1]", "alex[1,-1,0,0,0,0,0,0,1,0,0,0,0,0,0,-1,1]", "alex[1,-1,1]",
    "alex[1,-1,0,0,1]", "alex[1,1,1]", "alex[1,0,0,-1,0,0,1]", "alex[2,-1,1]",
    # the polynomials of U and P237 as unnamed candidates
    "alex[1]", "alex[1,-1,0,1,-1,1,-1,1,0,-1,1]",
    # polynomial text
    "1 - t + t^2", "1 - t + t^3 - t^5 + t^6", "1 - t^2 + t^3",
    # combinations
    "T(3,7) - 2*T(3,4)", "J(3) + J(4) - 2*T(4,5)", "2*T(2,3) - T(2,5)", "-J(3)", "T(3,4) - T(3,4)",
    # error paths: parse, range, not an L-space knot, not iterated torus
    "T(2,4)", "J(2)", "C(T(2,3);2,1)", "C(T(3,14);2,21)", "C(U;0,5)", "C(T(2,3);1,0)",
    "T(2,3", "Q(1)", "", "C(" * 120 + "T(2,3)" + ";1,1)" * 120,
    # digits to str.isdigit that int() rejects
    "T(²,3)", "t^²",
    # polynomial text that the polynomial grammar reads further than the knot grammar
    "t^x",
)

FORMATS = (("--format", "json"), ("--format", "csv"), ("--format", "text"))

KNOT_COMMANDS = (
    ("semigroup",),
    ("upsilon",),
    ("upsilon", "--subdivisions", "8"),
    ("jumps",),
    ("jumps", "--p", "3,5,7,9,11,13"),
    ("decompose",),
    ("obstruct",),
    ("lambda", "--k", "3"),
    ("lambda", "--k", "4"),
)

OTHER_COMMANDS = (
    *(("matrix", "--kmin", "3", "--kmax", str(kmax), *fmt) for kmax in (3, 10) for fmt in FORMATS),
    ("verify-paper",),
    ("verify-paper", "--filter", "torus-3-7"),
    ("verify-paper", "--filter", "no-such-check"),
    # usage errors
    (),
    ("frobnicate",),
    ("semigroup",),
    ("upsilon", "T(3,7)", "--subdivisions", "-1"),
    ("upsilon", "T(3,7)", "--subdivisions", "x"),
    ("lambda", "J(3)"),
    ("lambda", "J(3)", "--k", "1"),
    ("jumps", "J(3)", "--p", "4"),
    ("jumps", "J(3)", "--p", "3,x"),
    ("matrix", "--kmin", "2"),
    ("matrix", "--kmin", "5", "--kmax", "4"),
    ("semigroup", "T(3,7)", "--format", "yaml"),
    ("--help",),
)


def corpus() -> list[tuple[str, ...]]:
    out = []
    for knot in KNOTS:
        for command, *extra in KNOT_COMMANDS:
            for fmt in FORMATS:
                for decimal in ((), ("--decimal",)):
                    out.append((command, knot, *extra, *fmt, *decimal))
    out.extend(OTHER_COMMANDS)
    return out


def run(checkout: Path, argv: tuple[str, ...]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "lspaceknots.cli", *argv],
        capture_output=True, text=True, env=env, cwd=checkout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "lspaceknots").is_dir():
        print("usage: cli_corpus.py PARENT_DIR (a checkout with src/lspaceknots)", file=sys.stderr)
        return 2
    parent = Path(args[0]).resolve()
    commands = corpus()
    with ThreadPoolExecutor(WORKERS) as pool:
        theirs = pool.map(lambda a: run(parent, a), commands)
        ours = pool.map(lambda a: run(ROOT, a), commands)
        differences = 0
        for command, old, new in zip(commands, theirs, ours):
            for label, a, b in zip(("exit code", "stdout", "stderr"), old, new):
                if a != b:
                    differences += 1
                    print(f"{label} differs: lspaceknots {' '.join(map(repr, command))}")
                    print(f"  parent: {a!r:.300}\n  this:   {b!r:.300}")
    print(f"{len(commands)} commands, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
