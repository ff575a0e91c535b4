"""Command-line front end.

Subcommands: semigroup, upsilon, jumps, decompose, obstruct, lambda, matrix,
verify-paper.  Exit codes: 0 success, 1 domain error (a single JSON error
object goes to stderr, never a stack trace), 2 usage error.  Output formats
are json (stable key order, rationals as exact "p/q" strings), csv and text;
--decimal switches the rationals to floating approximations for plotting.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import intpoly, knotexpr, obstruct, semigroup, upsilon
from .errors import ConstraintError, DomainError, NotIteratedTorus, ParseError
from .knotexpr import KnotCombination, KnotExpr

OBSTRUCTION_STATEMENTS = {
    "semigroup_closure": "the gap-set complement of an algebraic knot is closed under addition",
    "jump_equality": "an algebraic knot has equal derivative jumps at 2/p and 4/p for every odd p >= 3",
    "decomposition": "the upsilon of an algebraic knot is a nonnegative integer sum of consecutive-torus upsilons",
    "index_criterion": "an iterated torus knot is algebraic exactly when q_{i+1} > p_i*q_i*p_{i+1} at every stage",
}


def _fmt(x: Fraction, decimal: bool):
    return float(x) if decimal else str(Fraction(x))


def _parse_knot(text: str) -> KnotCombination:
    try:
        return knotexpr.parse(text)
    except ParseError as knot_error:
        # fall back to plain polynomial text, e.g. "1 - t + t^3"
        try:
            poly = intpoly.parse_polynomial(text)
        except ParseError:
            raise knot_error from None
        return knotexpr.combination([(knotexpr.explicit_alexander(poly), 1)])


def _single_knot(comb: KnotCombination) -> KnotExpr:
    if len(comb) != 1 or comb.items()[0][1] != 1:
        raise ConstraintError("this command needs a single knot with multiplicity 1")
    return comb.items()[0][0]


def _print_json(payload):
    print(json.dumps(payload, indent=2))


def _print_csv(rows):
    for row in rows:
        print(",".join(str(cell) for cell in row))


def _cmd_semigroup(args) -> int:
    knot = _single_knot(_parse_knot(args.knot))
    knotexpr.require_lspace(knot)
    sg = semigroup.from_alexander(knotexpr.alexander(knot))
    witness = semigroup.closure_witness(sg)
    try:
        generators = sorted(knotexpr.iterated_torus_generators(knot))
    except NotIteratedTorus:
        generators = None
    payload = {
        "knot": str(knot),
        "genus": sg.genus,
        "small_elements": list(sg.small_elements),
        "generators": generators,
        "closed": witness is None,
        "witness": list(witness) if witness else None,
    }
    if args.format == "json":
        _print_json(payload)
    elif args.format == "csv":
        _print_csv([["field", "value"]] + [[k, json.dumps(v)] for k, v in payload.items()])
    else:
        print(f"knot: {payload['knot']}")
        print(f"genus: {sg.genus}")
        print("members below 2g:", " ".join(str(s) for s in sg.small_elements))
        if generators is not None:
            print("generators:", " ".join(str(x) for x in generators))
        print("closed under addition:", "yes" if witness is None else f"no, witness {witness}")
    return 0


def _upsilon_points(f, subdivisions: int) -> list[Fraction]:
    points = set(f.breakpoints)
    if subdivisions > 0:
        points.update(Fraction(2 * i, subdivisions) for i in range(subdivisions + 1))
    return sorted(points)


def _cmd_upsilon(args) -> int:
    f = upsilon.upsilon_of_combination(_parse_knot(args.knot))
    if args.format == "csv":
        rows = [["t", "upsilon"]]
        for t in _upsilon_points(f, args.subdivisions):
            rows.append([_fmt(t, args.decimal), _fmt(f(t), args.decimal)])
        _print_csv(rows)
    elif args.format == "text":
        for i, slope in enumerate(f.slopes):
            lo, hi = f.breakpoints[i], f.breakpoints[i + 1]
            print(f"[{lo}, {hi}]: slope {slope}, values {f(lo)} -> {f(hi)}")
    else:
        _print_json(
            {
                "knot": args.knot,
                "breakpoints": [_fmt(b, args.decimal) for b in f.breakpoints],
                "values": [_fmt(v, args.decimal) for v in f.breakpoint_values],
            }
        )
    return 0


def _parse_p_list(text: str) -> list[int]:
    try:
        ps = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConstraintError(f"cannot parse p list {text!r}") from None
    return ps


def _cmd_jumps(args) -> int:
    f = upsilon.upsilon_of_combination(_parse_knot(args.knot))
    spectrum = upsilon.jump_spectrum(f)
    ps = _parse_p_list(args.p) if args.p else []
    comparisons = [obstruct.jump_equality(f, p) for p in ps]
    if args.format == "csv":
        rows = [["t", "jump"]]
        rows += [[_fmt(t, args.decimal), _fmt(j, args.decimal)] for t, j in sorted(spectrum.items())]
        _print_csv(rows)
    elif args.format == "text":
        for t, j in sorted(spectrum.items()):
            print(f"jump at {t}: {j}")
        for cmp in comparisons:
            word = "equal" if cmp.equal else "UNEQUAL"
            print(f"p={cmp.p}: {cmp.jump_at_2_over_p} vs {cmp.jump_at_4_over_p} ({word})")
    else:
        _print_json(
            {
                "knot": args.knot,
                "spectrum": {str(t): _fmt(j, args.decimal) for t, j in sorted(spectrum.items())},
                "equality": [
                    {
                        "p": cmp.p,
                        "jump_at_2_over_p": _fmt(cmp.jump_at_2_over_p, args.decimal),
                        "jump_at_4_over_p": _fmt(cmp.jump_at_4_over_p, args.decimal),
                        "equal": cmp.equal,
                    }
                    for cmp in comparisons
                ],
            }
        )
    return 0


def _decomposition_payload(dec, decimal: bool):
    return {
        "succeeded": dec.succeeded,
        "coefficients": {str(n): _fmt(c, decimal) for n, c in dec.coefficients or ()},
        "all_integer": dec.all_integer,
        "all_nonnegative": dec.all_nonnegative,
        "failure_location": None if dec.failure_location is None else _fmt(dec.failure_location, decimal),
        "failure_reason": dec.failure_reason.value if dec.failure_reason else None,
    }


def _cmd_decompose(args) -> int:
    f = upsilon.upsilon_of_combination(_parse_knot(args.knot))
    dec = obstruct.decompose_into_consecutive_torus(f)
    if args.format == "text":
        if dec.succeeded:
            terms = " + ".join(f"{c} * upsilon(T({n},{n + 1}))" for n, c in dec.coefficients)
            print(terms or "0")
            print("all integer:", dec.all_integer, "| all nonnegative:", dec.all_nonnegative)
        else:
            print(f"no expansion: {dec.failure_reason.value} at t = {dec.failure_location}")
    elif args.format == "csv":
        rows = [["n", "coefficient"]]
        rows += [[n, _fmt(c, args.decimal)] for n, c in dec.coefficients or ()]
        _print_csv(rows)
    else:
        _print_json({"knot": args.knot, **_decomposition_payload(dec, args.decimal)})
    return 0


def _cmd_obstruct(args) -> int:
    knot = _single_knot(_parse_knot(args.knot))
    report = obstruct.algebraicity_report(knot)
    payload = {
        "knot": str(knot),
        "certificate": report.certificate.status.value,
        "verdict": report.verdict.value,
        "reasons": list(report.reasons),
        "obstructions": {
            "semigroup_closure": {
                "criterion": OBSTRUCTION_STATEMENTS["semigroup_closure"],
                "closed": report.closed,
                "witness": list(report.closure_witness) if report.closure_witness else None,
                "fires": not report.closed,
            },
            "jump_equality": {
                "criterion": OBSTRUCTION_STATEMENTS["jump_equality"],
                "failures": [
                    {
                        "p": cmp.p,
                        "jump_at_2_over_p": _fmt(cmp.jump_at_2_over_p, args.decimal),
                        "jump_at_4_over_p": _fmt(cmp.jump_at_4_over_p, args.decimal),
                    }
                    for cmp in report.jump_equality_failures
                ],
                "fires": bool(report.jump_equality_failures),
            },
            "decomposition": {
                "criterion": OBSTRUCTION_STATEMENTS["decomposition"],
                **_decomposition_payload(report.decomposition, args.decimal),
                "fires": not (report.decomposition.succeeded and report.decomposition.all_integer),
            },
            "index_criterion": {
                "criterion": OBSTRUCTION_STATEMENTS["index_criterion"],
                "result": report.index_criterion.value,
                "fires": report.index_criterion is knotexpr.Algebraicity.NOT_ALGEBRAIC,
            },
        },
    }
    if args.format == "text":
        print(f"{payload['knot']}: {payload['verdict']}")
        for reason in report.reasons:
            print(f"  obstruction: {reason}")
    else:
        _print_json(payload)
    return 0


def _cmd_lambda(args) -> int:
    f = upsilon.upsilon_of_combination(_parse_knot(args.knot))
    value = obstruct.lambda_invariant(args.k, f)
    if args.format == "text":
        print(_fmt(value, args.decimal))
    else:
        _print_json({"knot": args.knot, "k": args.k, "lambda": _fmt(value, args.decimal)})
    return 0


def _cmd_matrix(args) -> int:
    kmin, kmax = args.kmin, args.kmax
    matrix = obstruct.independence_matrix(kmin, kmax)
    header = ["k"] + [f"lambda_{i}" for i in range(kmin, kmax + 1)]
    if args.format == "json":
        _print_json(
            {
                "kmin": kmin,
                "kmax": kmax,
                "rows": [[_fmt(x, args.decimal) for x in row] for row in matrix],
            }
        )
    else:
        rows = [header]
        for offset, row in enumerate(matrix):
            rows.append([kmin + offset] + [_fmt(x, args.decimal) for x in row])
        _print_csv(rows)
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # the suite costs import time no other subcommand needs

    ok = verify.run_checks(args.filter)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lspaceknots",
        description="Exact gap sets, upsilon functions and algebraicity obstructions "
        "for iterated torus knots and L-space Alexander candidates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, func_help, knot=True, default_format="json"):
        p = sub.add_parser(name, help=func_help)
        if knot:
            p.add_argument("knot", help="knot expression, e.g. 'T(3,7)' or '2*T(3,4) - J(3)'")
        p.add_argument("--format", choices=("json", "csv", "text"), default=default_format)
        p.add_argument("--decimal", action="store_true", help="render rationals as floats")
        p.set_defaults(handler=handler)
        return p

    add("semigroup", _cmd_semigroup, "gap-set complement, generators and closure")
    p_up = add("upsilon", _cmd_upsilon, "exact piecewise-linear upsilon function")
    p_up.add_argument("--subdivisions", type=int, default=0, help="extra uniform sample points for csv output")
    p_j = add("jumps", _cmd_jumps, "derivative jump spectrum")
    p_j.add_argument("--p", default="", help="comma-separated odd p for the 2/p vs 4/p comparison")
    add("decompose", _cmd_decompose, "expand upsilon in consecutive-torus upsilons")
    add("obstruct", _cmd_obstruct, "full algebraicity obstruction report")
    p_l = add("lambda", _cmd_lambda, "normalized jump difference at 2/(2k-1) vs 4/(2k-1)")
    p_l.add_argument("--k", type=int, required=True)
    p_m = add("matrix", _cmd_matrix, "lambda matrix of the J(k) family", knot=False, default_format="csv")
    p_m.add_argument("--kmin", type=int, default=3)
    p_m.add_argument("--kmax", type=int, default=10)
    p_v = sub.add_parser("verify-paper", help="re-run the built-in verification suite")
    p_v.add_argument("--filter", default=None, help="run only checks whose name or tag matches")
    p_v.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except DomainError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            payload["position"] = exc.position
        print(json.dumps(payload), file=sys.stderr)
        return 1
    except Exception as exc:  # contract: never a stack trace on stderr
        print(
            json.dumps({"error": "internal", "message": f"{type(exc).__name__}: {exc}"}),
            file=sys.stderr,
        )
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
