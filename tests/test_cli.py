import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qtorus.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "qtorus", *args],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


@pytest.fixture(scope="module")
def ind3(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ind3.json"
    res = run_cli("generate", "--kind", "independent", "--rank", "3", "-o", str(path))
    assert res.returncode == 0
    return path


def test_dim_subcommand(ind3):
    res = run_cli("dim", str(ind3), "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc == {"exact": True, "lower": 1, "upper": 1, "witness": doc["witness"]}


def test_tensor_then_dim(tmp_path):
    a, b, t = (tmp_path / name for name in ("a.json", "b.json", "t.json"))
    res = run_cli(
        "generate", "--kind", "transpose-pair", "--rank", "3",
        "-o", str(a), "--out2", str(b),
    )
    assert res.returncode == 0
    res = run_cli("tensor", str(a), str(b), "--mode", "shared", "-o", str(t))
    assert res.returncode == 0
    res = run_cli("dim", str(t), "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["lower"] == doc["upper"] == 3 and doc["exact"]


def test_disjoint_tensor_is_exact(tmp_path):
    a, b, t = (tmp_path / name for name in ("a.json", "b.json", "t.json"))
    res = run_cli(
        "generate", "--kind", "transpose-pair", "--rank", "3",
        "-o", str(a), "--out2", str(b),
    )
    assert res.returncode == 0
    res = run_cli("tensor", str(a), str(b), "--mode", "disjoint", "-o", str(t))
    assert res.returncode == 0
    res = run_cli("dim", str(t), "--require-exact")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["lower"] == doc["upper"] == 2 and doc["exact"]


def test_center_and_codim(ind3):
    res = run_cli("center", str(ind3), "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["center_is_F"] is True
    res = run_cli("codim", str(ind3), "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["codimension"] == 2


def test_transpose_and_restrict(ind3, tmp_path):
    out = tmp_path / "t.json"
    res = run_cli("transpose", str(ind3), "-o", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["lambda"][0]["exponents"] == {"q_1_2": -1}
    res = run_cli("restrict", str(ind3), "--generators", "[[2,0,0],[0,1,0],[0,0,1]]", "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["lambda"][0]["exponents"] == {"q_1_2": 2}


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 2, "value_group": {"free": ["q"], "torsion_order": 1}, '
                   '"lambda": [{"i": 1, "j": 2, "exponents": {"nope": 1}, "torsion": 0}]}')
    res = run_cli("dim", str(bad))
    assert res.returncode == 1
    assert "unknown generator" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("dim", "{dir}"),
        ("dim", "{undecodable}"),
        ("generate", "--kind", "independent", "--rank", "2", "-o", "{dir}"),
        ("tensor", "{ind3}", "{ind3}", "-o", "{dir}"),
    ],
    ids=["dim-directory", "dim-undecodable", "generate-to-directory", "tensor-to-directory"],
)
def test_unreadable_files_are_input_errors(ind3, tmp_path, args):
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe")
    args = [a.format(dir=tmp_path, undecodable=undecodable, ind3=ind3) for a in args]
    res = run_cli(*args)
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr


def test_usage_error_exit_code():
    res = run_cli("definitely-not-a-command")
    assert res.returncode == 1


def test_require_exact_inconclusive_exit_code(tmp_path):
    a, b, t = (tmp_path / name for name in ("a.json", "b.json", "t.json"))
    run_cli("generate", "--kind", "transpose-pair", "--rank", "3", "-o", str(a), "--out2", str(b))
    run_cli("tensor", str(a), str(b), "-o", str(t))
    res = run_cli("dim", str(t), "--require-exact", "--time-budget", "0")
    assert res.returncode == 2
    doc = json.loads(res.stdout)
    assert doc["exact"] is False
    res = run_cli("codim", str(t), "--time-budget", "0")
    assert res.returncode == 2


def test_json_purity_and_stderr_separation(tmp_path):
    out = tmp_path / "x.json"
    res = run_cli("generate", "--kind", "random", "--rank", "2", "--free", "1", "-o", str(out))
    assert res.returncode == 0
    assert res.stdout == ""  # file output: stdout stays clean
    assert "wrote" in res.stderr
    res = run_cli("verify", "--trials", "3", "--seed", "1", "--json")
    assert res.returncode == 0
    json.loads(res.stdout)  # single valid JSON document


def test_verify_deterministic_bytes():
    first = run_cli("verify", "--trials", "12", "--seed", "9", "--json")
    second = run_cli("verify", "--trials", "12", "--seed", "9", "--json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["violations"] == [] and doc["anomalies"] == []


def test_element_mul(tmp_path):
    path = tmp_path / "bq.json"
    path.write_text(json.dumps({
        "rank": 2,
        "value_group": {"free": ["q"], "torsion_order": 1},
        "lambda": [{"i": 1, "j": 2, "exponents": {"q": 1}, "torsion": 0}],
    }))
    res = run_cli(
        "element-mul", str(path),
        "--left", '[{"exponent": [0, 1]}]',
        "--right", '[{"exponent": [1, 0]}]',
        "--json",
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["terms"] == [
        {"exponent": [1, 1], "coeff": "1", "scalar": {"q": -1}, "torsion": 0}
    ]


def test_time_budget_zero_is_inconclusive(tmp_path):
    a, b, t = (tmp_path / name for name in ("a.json", "b.json", "t.json"))
    run_cli("generate", "--kind", "transpose-pair", "--rank", "3", "-o", str(a), "--out2", str(b))
    run_cli("tensor", str(a), str(b), "-o", str(t))
    res = run_cli("dim", str(t), "--require-exact", "--time-budget", "0")
    assert res.returncode == 2


@pytest.mark.parametrize(
    "args,field",
    [
        (("restrict", "--generators", "[[2.5,0,0],[0,1,0]]"), "--generators[0][0]"),
        (("restrict", "--generators", "[[1,0]]"), "--generators[0]"),
        (("element-mul", "--left", '[{"exponent": [0.5, 0, 0]}]'), "--left[0].exponent[0]"),
        (
            ("element-mul", "--left", '[{"exponent": [0, 1, 0], "scalar": {"q_1_2": 2.5}}]'),
            "--left[0].scalar.q_1_2",
        ),
        (("element-mul", "--left", '[{"exponent": [0, 1, 0], "torsion": "x"}]'), "--left[0].torsion"),
        (("element-mul", "--left", '[{"exponent": [0, 1, 0], "scalar": [1]}]'), "--left[0].scalar"),
    ],
    ids=["restrict-float", "restrict-short-row", "exponent-float", "scalar-float", "torsion-text", "scalar-list"],
)
def test_command_line_json_is_checked(ind3, capsys, args, field):
    # Malformed values are refused with the field named, never truncated
    # or left to raise a traceback.
    command, *rest = args
    if command == "element-mul":
        rest += ["--right", '[{"exponent": [1, 0, 0]}]']
    assert main([command, str(ind3), *rest, "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(field + ":")


@pytest.mark.parametrize(
    "args,flag",
    [
        (("generate", "--kind", "independent", "--rank", "0"), "--rank"),
        (("generate", "--kind", "random", "--rank", "2", "--free", "-1"), "--free"),
        (("generate", "--kind", "random", "--rank", "2", "--torsion", "0"), "--torsion"),
        (("generate", "--kind", "random", "--rank", "2", "--exponent-bound", "-1"), "--exponent-bound"),
        (("verify", "--trials", "-3"), "--trials"),
        (("verify", "--trials", "2", "--max-rank", "0"), "--max-rank"),
        (("verify", "--trials", "2", "--max-free", "-1"), "--max-free"),
        (("verify", "--trials", "2", "--exponent-bound", "-1"), "--exponent-bound"),
        (("dim", "{ind3}", "--bound", "-1"), "--bound"),
        (("codim", "{ind3}", "--combo-samples", "-5"), "--combo-samples"),
    ],
    ids=[
        "rank", "free", "torsion", "generate-exponent-bound",
        "trials", "max-rank", "max-free", "verify-exponent-bound",
        "bound", "combo-samples",
    ],
)
def test_out_of_range_flags_are_usage_errors(ind3, capsys, args, flag):
    args = [a.format(ind3=ind3) for a in args]
    assert main([*args, "--json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: must be >= " in err
