"""Command-line interface: payloads, formats, exit codes, error objects."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import lspaceknots
from lspaceknots import errors, knotexpr
from lspaceknots.cli import main
from lspaceknots.verify import CHECKS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_semigroup_json_payload(capsys):
    code, out, err = run(capsys, "semigroup", "T(3,7)", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload == {
        "knot": "T(3,7)",
        "genus": 6,
        "small_elements": [0, 3, 6, 7, 9, 10],
        "generators": [3, 7],
        "closed": True,
        "witness": None,
    }


def test_semigroup_pretzel_witness(capsys):
    code, out, _ = run(capsys, "semigroup", "P237")
    payload = json.loads(out)
    assert code == 0
    assert payload["generators"] is None
    assert payload["closed"] is False
    assert payload["witness"] == [3, 3]


def test_semigroup_accepts_polynomial_text(capsys):
    code, out, _ = run(capsys, "semigroup", "1 - t + t^3 - t^4 + t^6 - t^8 + t^9 - t^11 + t^12")
    payload = json.loads(out)
    assert code == 0
    assert payload["genus"] == 6
    assert payload["small_elements"] == [0, 3, 6, 7, 9, 10]
    assert payload["generators"] is None  # explicit candidates carry no tower


@pytest.mark.parametrize(
    "text", ["C(C(T(2,3);2,13);3,83)", "P237", "alex[1,-1,0,1,-1,0,1,0,-1,1,0,-1,1]"]
)
def test_semigroup_certifies_once(capsys, monkeypatch, text):
    certified = []
    certify_lspace = knotexpr.certify_lspace
    monkeypatch.setattr(knotexpr, "certify_lspace", lambda k: certified.append(str(k)) or certify_lspace(k))
    code, out, _ = run(capsys, "semigroup", text)
    assert code == 0
    assert certified == [text]


def test_semigroup_requires_single_knot(capsys):
    code, out, err = run(capsys, "semigroup", "2*T(2,3)")
    assert code == 1
    assert json.loads(err)["error"] == "ConstraintError"


def test_upsilon_json(capsys):
    code, out, _ = run(capsys, "upsilon", "J(3)")
    payload = json.loads(out)
    assert code == 0
    assert payload["breakpoints"] == ["0", "2/5", "1", "8/5", "2"]
    assert payload["values"] == ["0", "-14/5", "-4", "-14/5", "0"]


def test_upsilon_csv_breakpoints_only(capsys):
    code, out, _ = run(capsys, "upsilon", "T(2,3)", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["t,upsilon", "0,0", "1,-1", "2,0"]


def test_upsilon_csv_unknot(capsys):
    code, out, _ = run(capsys, "upsilon", "U", "--format", "csv")
    assert out.splitlines() == ["t,upsilon", "0,0", "2,0"]


def test_upsilon_csv_with_subdivisions(capsys):
    code, out, _ = run(capsys, "upsilon", "T(2,3)", "--format", "csv", "--subdivisions", "4")
    assert out.splitlines() == [
        "t,upsilon",
        "0,0",
        "1/2,-1/2",
        "1,-1",
        "3/2,-1/2",
        "2,0",
    ]


def test_upsilon_decimal(capsys):
    code, out, _ = run(capsys, "upsilon", "T(2,3)", "--format", "csv", "--decimal")
    assert out.splitlines()[1:] == ["0.0,0.0", "1.0,-1.0", "2.0,0.0"]


def test_jumps_with_p_list(capsys):
    code, out, _ = run(capsys, "jumps", "J(3)", "--p", "3,5")
    payload = json.loads(out)
    assert code == 0
    assert payload["spectrum"] == {"2/5": "5", "1": "4", "8/5": "5"}
    by_p = {entry["p"]: entry for entry in payload["equality"]}
    assert by_p[3]["equal"] is True
    assert by_p[5] == {
        "p": 5,
        "jump_at_2_over_p": "5",
        "jump_at_4_over_p": "0",
        "equal": False,
    }


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "T(3,7)")
    payload = json.loads(out)
    assert code == 0
    assert payload["succeeded"] is True
    assert payload["coefficients"] == {"3": "2"}
    assert payload["all_integer"] is True and payload["all_nonnegative"] is True


def test_decompose_failure_payload(capsys):
    code, out, _ = run(capsys, "decompose", "J(3)")
    payload = json.loads(out)
    assert code == 0
    assert payload["succeeded"] is False
    assert payload["failure_location"] == "4/5"
    assert payload["failure_reason"] == "non-dyadic-location"


def test_lambda_value(capsys):
    code, out, _ = run(capsys, "lambda", "--k", "3", "J(3)")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"knot": "J(3)", "k": 3, "lambda": "1"}


def test_lambda_text_format(capsys):
    code, out, _ = run(capsys, "lambda", "--k", "3", "J(3)", "--format", "text")
    assert code == 0 and out.strip() == "1"


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--kmin", "3", "--kmax", "5")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "k,lambda_3,lambda_4,lambda_5"
    assert lines[1].startswith("3,1,")
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        assert row[1 + i] == "1"
        assert all(cell == "0" for cell in row[2 + i:])


def test_obstruct_report_json(capsys):
    code, out, _ = run(capsys, "obstruct", "P237")
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == "not-algebraic"
    assert payload["reasons"] == ["semigroup-not-closed"]
    closure = payload["obstructions"]["semigroup_closure"]
    assert closure["fires"] is True and closure["witness"] == [3, 3]
    assert payload["obstructions"]["index_criterion"]["result"] == "unknown"
    for entry in payload["obstructions"].values():
        assert entry["criterion"]


@pytest.mark.parametrize(
    "knot",
    [
        "P237",
        "J(3)",
        "T(3,7)",
        "C(T(2,3);2,13)",
        "C(C(T(2,3);2,13);3,83)",
        # these set apart entries that fire together above: the index criterion
        # alone, the decomposition alone, and all but the index criterion
        "C(T(2,3);2,11)",
        "alex[1,-1,0,0,0,0,0,0,1,0,0,0,0,0,0,-1,1]",
        "C(P237;2,19)",
    ],
)
def test_obstruct_fires_match_the_report_fields(capsys, knot):
    code, out, _ = run(capsys, "obstruct", knot)
    assert code == 0
    entries = json.loads(out)["obstructions"]
    decomposition = entries["decomposition"]
    expected = {
        "semigroup_closure": entries["semigroup_closure"]["witness"] is not None,
        "jump_equality": bool(entries["jump_equality"]["failures"]),
        "decomposition": not (decomposition["succeeded"] and decomposition["all_integer"]),
        "index_criterion": entries["index_criterion"]["result"] == "not-algebraic",
    }
    assert {name: entry["fires"] for name, entry in entries.items()} == expected


def test_parse_error_object(capsys):
    code, out, err = run(capsys, "semigroup", "T(3;7)")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["position"] == 3


def test_deep_cable_nesting_is_a_parse_error(capsys):
    code, out, err = run(capsys, "semigroup", "C(" * 1200 + "T(2,3)" + ";1,1)" * 1200)
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert isinstance(payload["position"], int)
    assert "internal" not in err


def test_semigroup_rejects_a_non_lspace_cable(capsys):
    # q = 21 is below Hedden's bound p(2g - 1) = 50, as upsilon and obstruct report
    for command in ("semigroup", "upsilon", "obstruct"):
        code, out, err = run(capsys, command, "C(T(3,14);2,21)")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "NotLSpace",
            "message": "cable index q=21 is below p*(2g-1)=50",
        }


def test_not_lspace_error_object(capsys):
    code, _, err = run(capsys, "upsilon", "C(T(2,3);2,1)")
    assert code == 1
    assert json.loads(err)["error"] == "NotLSpace"


def test_candidate_failing_duality_is_a_shape_error(capsys):
    code, out, err = run(capsys, "obstruct", "alex[1,-1,0,0,1]")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "NotLSpaceShape",
        "message": "3 gaps below 2g = 4; exactly 2 required",
    }


def test_negative_subdivisions_is_a_usage_error(capsys):
    code, out, err = run(capsys, "upsilon", "T(2,3)", "--format", "csv", "--subdivisions", "-4")
    assert code == 2 and out == ""
    assert "argument --subdivisions: must be >= 0, got -4" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "lambda", "J(3)")[0] == 2  # --k is required
    assert run(capsys)[0] == 2


def test_verify_filtered_run_passes(capsys):
    code, out, _ = run(capsys, "verify-paper", "--filter", "semigroup")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("PASS torus-3-7-invariants") for line in lines)
    assert not any(line.startswith("FAIL") for line in lines)


def test_verify_filter_matching_no_check_fails(capsys):
    code, out, _ = run(capsys, "verify-paper", "--filter", "upsilom")
    assert code == 1
    assert out == "no check matches 'upsilom'\n"


def test_verify_full_run_is_consistent_with_output(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert out.splitlines() == [f"PASS {c.name} [{c.detail}]" for c in CHECKS] + ["9 checks run"]


def test_cli_import_leaves_out_dataclasses_and_verify():
    # -S keeps the imports of site-packages .pth files out of sys.modules
    script = (
        "import sys, lspaceknots.cli as cli\n"
        "print(sorted({'dataclasses', 'inspect', 'lspaceknots.verify'} & set(sys.modules)))\n"
        "code = cli.main(['verify-paper', '--filter', 'torus-3-7'])\n"
        "print(code, 'lspaceknots.verify' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(lspaceknots.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[1].startswith("PASS torus-3-7-invariants")
    assert lines[-1] == "0 True"  # verify-paper exits 0 through the lazy import


def test_closed_stdout_exits_1_with_empty_stderr():
    # the csv is far larger than a pipe buffer, so the child is still writing when the pipe closes
    src = os.path.dirname(os.path.dirname(os.path.abspath(lspaceknots.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["upsilon", "T(40,41)", "--format", "csv", "--subdivisions", "20000"]
    with subprocess.Popen(
        [sys.executable, "-m", "lspaceknots.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:  # closes both pipes on the way out
        assert proc.stdout.readline() == b"t,upsilon\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


# --- no input gives an "internal" error -------------------------------------------

# every run of digits is capped at 2: no size budget guards T(99999,100000) yet
NUMBER = st.integers(0, 99).map(str)
TORUS = st.builds("T({},{})".format, NUMBER, NUMBER)
ALEX = st.lists(st.integers(-1, 1) | st.integers(-99, 99), min_size=1, max_size=12).map(
    lambda cs: "alex[" + ",".join(map(str, cs)) + "]"
)
LSPACE_ATOMS = ["U", "P237", "T(2,3)", "T(3,7)", "J(3)", "C(T(2,3);2,13)", "C(C(T(2,3);2,13);3,83)", "alex[1,-1,1]"]
BASE_ATOM = st.one_of(TORUS, st.builds("J({})".format, NUMBER), st.sampled_from(LSPACE_ATOMS), ALEX)


def _atoms(depth):
    if depth == 0:
        return BASE_ATOM
    return BASE_ATOM | st.builds("C({};{},{})".format, _atoms(depth - 1), NUMBER, NUMBER)


ATOM = _atoms(3)
COMBINATION = st.lists(
    st.tuples(st.sampled_from(["", "+", "-"]), st.just("") | NUMBER.map("{}*".format), ATOM),
    min_size=1, max_size=3,
).map(lambda terms: " ".join(sign + mult + atom for sign, mult, atom in terms))
POLYNOMIAL_TERM = st.one_of(NUMBER, st.just("t"), NUMBER.map("t^{}".format), st.builds("{}*t^{}".format, NUMBER, NUMBER))
POLYNOMIAL = st.lists(st.tuples(st.sampled_from(["", "+ ", "- "]), POLYNOMIAL_TERM), min_size=1, max_size=6).map(
    lambda terms: " ".join(sign + term for sign, term in terms)
)
TOKENS = ["T", "C", "J", "P237", "U", "alex", "(", ")", "[", "]", ",", ";", "*", "+", "-", " ", "t", "^", "0", "1", "7", "13", "x"]
SOUP = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
KNOT_TEXT = st.one_of(ATOM, COMBINATION, POLYNOMIAL, SOUP).map(lambda text: re.sub(r"\d{3,}", lambda m: m[0][:2], text))

NOT_INT = st.sampled_from(["", "x", "1.5"])
INT_TEXT = st.one_of(st.integers(-3, 99).map(str), st.integers(3, 12).map(str), NOT_INT)
OPTIONS = {
    "--format": st.sampled_from(["json", "csv", "text", "xml"]),
    "--decimal": st.none(),
    "--subdivisions": INT_TEXT,
    "--p": st.lists(INT_TEXT, max_size=3).map(",".join),
    "--k": INT_TEXT,
}
OWN_OPTIONS = {
    "semigroup": [],
    "upsilon": ["--subdivisions"],
    "jumps": ["--p"],
    "decompose": [],
    "obstruct": [],
    "lambda": ["--k"],
}
DOMAIN_ERRORS = {name for name, cls in vars(errors).items() if isinstance(cls, type) and issubclass(cls, errors.DomainError)}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from([*OWN_OPTIONS, "matrix"]))
    if command == "matrix":
        kmin = draw(st.integers(-3, 99))
        kmax = min(kmin + draw(st.integers(-2, 5)), 99)  # a small span: each cell costs a jump comparison
        argv = [command, "--kmin", draw(st.just(str(kmin)) | NOT_INT), "--kmax", str(kmax)]
    else:
        argv = [command, draw(KNOT_TEXT)]
    names = draw(st.lists(st.sampled_from(["--format", "--decimal", *OWN_OPTIONS.get(command, [])]), max_size=3))
    if command == "lambda" and draw(st.integers(0, 9)):
        names.append("--k")  # required, so mostly present
    if not draw(st.integers(0, 9)):
        names.append(draw(st.sampled_from(sorted(OPTIONS))))  # maybe one the command does not take
    for name in names:
        value = draw(OPTIONS[name])
        argv += [name] if value is None else [name, value]
    return argv


def test_errors_module_has_ten_domain_error_classes():
    assert len(DOMAIN_ERRORS) == 10


@settings(deadline=None, max_examples=300)
@given(cli_argvs())
def test_cli_never_gives_an_internal_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        payload = json.loads(err.getvalue())  # one JSON object and nothing else
        assert payload["error"] in DOMAIN_ERRORS, (argv, payload)
