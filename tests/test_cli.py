"""Command-line interface: payloads, formats, exit codes, error objects."""

import json
import os
import subprocess
import sys

import pytest

import lspaceknots
from lspaceknots.cli import main


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


def test_verify_full_run_is_consistent_with_output(capsys):
    code, out, _ = run(capsys, "verify-paper")
    lines = out.splitlines()
    reported = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    assert len(reported) == 9
    has_failures = any(line.startswith("FAIL") for line in reported)
    assert code == (1 if has_failures else 0)


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
