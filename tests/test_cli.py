"""Command-line surface: schemas, exit codes, piping, determinism."""

from __future__ import annotations

import io
import json

import pytest

from posetlab.cli import main
from posetlab.posets import chain
from posetlab.search import Certificate, verify_certificate


def run_cli(argv, stdin_text: str = ""):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def chain3_json() -> str:
    obj = chain(3).to_json_obj()
    obj["z"] = [0, 1, 2]
    return json.dumps(obj)


def test_table_on_chain(tmp_path):
    path = tmp_path / "chain3.json"
    path.write_text(chain3_json())
    code, out, _ = run_cli(["table", "--poset", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "posetlab/1"
    assert obj["F"] == [[1, 1, "1"]]


def test_table_reads_stdin():
    code, out, _ = run_cli(["table"], stdin_text=chain3_json())
    assert code == 0 and json.loads(out)["F"] == [[1, 1, "1"]]


def test_family_pipe_check_matches_in_process():
    code, family_out, _ = run_cli(["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"])
    assert code == 0
    code, piped, _ = run_cli(["check", "--ineq", "cpc2", "--all"], stdin_text=family_out)
    assert code == 1  # a failing comparison was found
    reports = [json.loads(line) for line in piped.splitlines()]
    failing = [r for r in reports if r["verdict"] == "fails"]
    assert any(r["k"] == 1 and r["l"] == 2 and r["ratio"] == "2/3" for r in failing)


def test_shell_pipeline_bytes_match_in_process():
    import subprocess
    import sys

    shell = (
        f"{sys.executable} -m posetlab family --id cpc2-witness --k 1 --l 2 | "
        f"{sys.executable} -m posetlab check --ineq cpc2 --all"
    )
    proc = subprocess.run(shell, shell=True, capture_output=True, text=True)
    assert proc.returncode == 1
    _, family_out, _ = run_cli(["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"])
    _, in_process, _ = run_cli(["check", "--ineq", "cpc2", "--all"], stdin_text=family_out)
    assert proc.stdout == in_process


def test_two_of_three_exits_zero():
    _, family_out, _ = run_cli(["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"])
    code, out, _ = run_cli(["check", "--ineq", "two-of-three", "--all"], stdin_text=family_out)
    assert code == 0
    assert all(json.loads(line)["verdict"] != "fails" for line in out.splitlines())


def test_vanish_command():
    code, out, _ = run_cli(["vanish", "--k", "1", "--l", "1"], stdin_text=chain3_json())
    assert code == 0
    obj = json.loads(out)
    assert obj["member"] is True
    assert set(obj["bounds"]) == {"k_lo", "k_hi", "l_lo", "l_hi", "s_lo", "s_hi"}


def test_verify_injections_command():
    _, family_out, _ = run_cli(["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"])
    code, out, _ = run_cli(["verify-injections", "--map", "transfer"], stdin_text=family_out)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines and all(obj["ok"] for obj in lines)
    assert all(obj["map"] == "transfer" for obj in lines)


def test_search_command_with_out_file(tmp_path):
    out_path = tmp_path / "found.jsonl"
    code, out, _ = run_cli(
        ["search", "--target", "cpc2", "--n-max", "6", "--seed", "42",
         "--budget", "3000", "--out", str(out_path)]
    )
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["type"] == "summary" and summary["instances"] == 3000
    certs = [Certificate.from_json_obj(json.loads(line)) for line in out_path.read_text().splitlines()]
    assert len(certs) == summary["certificates"] > 0
    assert all(verify_certificate(c) for c in certs)


def test_volume_mc_command():
    _, family_out, _ = run_cli(["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"])
    code, out, _ = run_cli(
        ["volume-mc", "--s", "1/5", "--t", "1/5", "--samples", "60000", "--seed", "7"],
        stdin_text=family_out,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["formula"] == "42/625" and obj["samples"] == 60000


def test_usage_errors_exit_two(tmp_path):
    code, _, _ = run_cli(["check", "--ineq", "not-an-ineq"], stdin_text=chain3_json())
    assert code == 2
    code, _, err = run_cli(["table", "--poset", str(tmp_path / "missing.json")])
    assert code == 2 and "error" in err
    code, _, err = run_cli(["table"], stdin_text=json.dumps({"n": 2, "covers": []}))
    assert code == 2  # no marked triple


@pytest.mark.parametrize(
    "argv",
    [
        ["table"],
        ["vanish", "--k", "1", "--l", "1"],
        ["check", "--ineq", "cpc"],
        ["verify-injections"],
        ["volume-mc", "--s", "1/5", "--t", "1/5"],
    ],
)
def test_missing_marked_triple_exits_two(argv):
    code, out, err = run_cli(argv, stdin_text=json.dumps({"n": 3, "covers": [[0, 1]]}))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: poset JSON lacks a marked triple 'z'"]


@pytest.mark.parametrize(
    "text",
    [
        "garbage",  # not JSON
        "[0, 1, 2]",  # JSON, not an object
        '{"covers": [], "z": [0, 1, 2]}',  # no n
        '{"n": "3", "covers": [], "z": [0, 1, 2]}',  # n not an integer
        '{"n": 3, "covers": {"0": 1}, "z": [0, 1, 2]}',  # covers not a list
        '{"n": 3, "covers": [[0]], "z": [0, 1, 2]}',  # cover not a pair
        '{"n": 3, "covers": [[0, "x"]], "z": [0, 1, 2]}',  # cover element not an integer
        '{"n": 3, "covers": [], "z": [0, 1]}',  # z too short
        '{"n": 3, "covers": [], "z": [0, 1, "2"]}',  # z element not an integer
        '{"n": 3, "covers": [], "z": [0, 1, 7]}',  # z element outside 0..n-1
        '{"n": 3, "covers": [], "z": [0, 1, 2], "a": 1.5}',  # a not an integer
    ],
)
def test_malformed_poset_exits_two(text):
    code, out, err = run_cli(["table"], stdin_text=text)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("shape", ["directory", "non-utf8", "search-out-directory"])
def test_unreadable_file_exits_two(tmp_path, shape):
    if shape == "directory":
        argv = ["table", "--poset", str(tmp_path)]
    elif shape == "non-utf8":
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 3, "covers": [], "z": [0, 1, 2], "name": "\xe9"}')
        argv = ["table", "--poset", str(path)]
    else:
        argv = ["search", "--target", "cpc", "--n-max", "5", "--budget", "50",
                "--out", str(tmp_path)]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["volume-mc", "--s", "abc", "--t", "1/5"],  # not a number
        ["volume-mc", "--s", "1/0", "--t", "1/5"],  # zero denominator
        ["volume-mc", "--s", "1/5", "--t", "1/5", "--samples", "0"],
        ["volume-mc", "--s", "1/5", "--t", "1/5", "--samples", "-3"],
        ["search", "--target", "cpc", "--n-max", "2", "--budget", "10"],
        ["search", "--target", "cpc", "--n-min", "9", "--n-max", "5", "--budget", "10"],
        ["search", "--target", "cpc", "--n-max", "6", "--budget", "-1"],
        ["check", "--ineq", "stanley", "--a", "99"],  # mark outside 0..n-1
        ["check", "--ineq", "stanley", "--a", "-1"],
        ["check", "--ineq", "cpc", "--k", "1"],  # --k without --l
        ["check", "--ineq", "cpc", "--l", "2"],  # --l without --k
        ["check", "--ineq", "thin", "--k", "1"],
        ["check", "--ineq", "gcpc", "--k", "1", "--l", "1"],  # gcpc needs --p --q too
        ["check", "--ineq", "gcpc", "--k", "1", "--l", "1", "--p", "1"],
    ],
)
def test_bad_numeric_argument_exits_two(argv):
    code, out, err = run_cli(argv, stdin_text=chain3_json())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--ineq", "cpc", "--p", "3"],  # cpc reads --k --l only
        ["--ineq", "stanley", "--l", "3"],  # stanley reads --k --a only
        ["--ineq", "cpc2", "--t", "2"],  # only thin reads --t
        ["--ineq", "gcpc", "--t", "2"],
        ["--ineq", "thin", "--p", "1", "--q", "2"],
        ["--ineq", "cpc", "--a", "1"],  # only stanley reads --a
        ["--ineq", "cpc", "--all", "--k", "1", "--l", "2"],
        ["--ineq", "gcpc", "--all", "--k", "1", "--l", "1", "--p", "2", "--q", "2"],
        ["--ineq", "stanley", "--all", "--k", "2"],
    ],
)
def test_unread_check_flag_exits_two(flags):
    _, family_out, _ = run_cli(["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"])
    code, out, err = run_cli(["check", *flags], stdin_text=family_out)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_check_accepts_the_flags_it_reads():
    _, family_out, _ = run_cli(["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"])
    for flags in (
        ["--ineq", "thin", "--all", "--t", "2"],
        ["--ineq", "thin", "--k", "1", "--l", "2", "--t", "2"],
        ["--ineq", "stanley", "--all", "--a", "1"],
        ["--ineq", "gcpc", "--k", "1", "--l", "1", "--p", "2", "--q", "2"],
    ):
        code, out, err = run_cli(["check", *flags], stdin_text=family_out)
        assert code in (0, 1) and out and err == "", flags


def test_human_mode_renders():
    code, out, _ = run_cli(["--human", "table"], stdin_text=chain3_json())
    assert code == 0 and "F=" in out and "{" not in out.splitlines()[0][:1]


def test_every_json_line_carries_schema():
    _, family_out, _ = run_cli(["family", "--id", "converse-tight", "--n", "8", "--k", "2", "--l", "1"])
    for argv in (
        ["check", "--ineq", "cpc", "--all"],
        ["check", "--ineq", "stanley"],
        ["table"],
        ["verify-injections"],
    ):
        code, out, _ = run_cli(argv, stdin_text=family_out)
        assert code in (0, 1)
        for line in out.splitlines():
            assert json.loads(line)["schema"] == "posetlab/1"
