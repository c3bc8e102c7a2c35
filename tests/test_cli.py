"""Command-line surface: schemas, exit codes, piping, determinism."""

from __future__ import annotations

import argparse
import errno
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from posetlab import injections
from posetlab.cli import build_parser, main
from posetlab.extensions import FTable, f_table
from posetlab.families import FAMILY_IDS, family_cpc2_witness, family_stanley_tight
from posetlab.inequalities import ALL_CHECK_IDS, FAILS, check_gcpc
from posetlab.posets import MAX_ELEMENTS, chain, load_poset, normalize
from posetlab.search import SEARCH_TARGETS, Certificate, SearchJob, run, verify_certificate


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


def child_env() -> dict:
    """Environment in which a child python imports the same posetlab as this
    process, installed or not."""
    import os
    from pathlib import Path

    import posetlab

    src = str(Path(posetlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_shell_pipeline_bytes_match_in_process():
    import subprocess
    import sys

    shell = (
        f"{sys.executable} -m posetlab family --id cpc2-witness --k 1 --l 2 | "
        f"{sys.executable} -m posetlab check --ineq cpc2 --all"
    )
    proc = subprocess.run(shell, shell=True, capture_output=True, text=True, env=child_env())
    assert proc.returncode == 1
    _, family_out, _ = run_cli(["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"])
    _, in_process, _ = run_cli(["check", "--ineq", "cpc2", "--all"], stdin_text=family_out)
    assert proc.stdout == in_process


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, expected", [(["check", "--ineq", "cpc2", "--all"], 1), (["table"], 0)])
def test_a_closed_pipe_keeps_the_exit_code_and_writes_no_error(argv, expected):
    _, family_out, _ = run_cli(["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"])
    err = io.StringIO()
    code = main(argv, stdin=io.StringIO(family_out), stdout=_ClosedPipe(), stderr=err)
    assert code == expected and err.getvalue() == ""


@pytest.mark.parametrize(
    "argv, lines_read",
    [
        (["search", "--target", "gcpc", "--n-max", "8", "--seed", "42",
          "--budget", "20000", "--width-max", "3"], 1),
        (["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"], 0),
        (["--help"], 0),
    ],
    ids=["mid-stream", "before-the-first-line", "help"],
)
def test_a_reader_that_closes_the_pipe_early_leaves_the_writer_quiet(argv, lines_read):
    # the search writes ~117 KB, more than a pipe buffer holds, so it is
    # still writing when the reader goes (this exited 2 with a stderr line);
    # the family's one line and argparse's help text stay in stdout's
    # buffer, whose last flush at exit must not fail again (the help exited
    # 120 with "Exception ignored").  Default buffering, as a shell gives it.
    import subprocess
    import sys

    env = {key: v for key, v in child_env().items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "posetlab", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(lines_read):
        assert json.loads(proc.stdout.readline())["schema"] == "posetlab/1"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0 and err == b""


def test_only_volume_mc_loads_numpy():
    import subprocess
    import sys

    # a fresh interpreter: this one may have loaded numpy in the geometry tests
    script = f"""
import io, sys
import posetlab, posetlab.cli
from posetlab import extensions, geometry, inequalities, injections, posets, search, vanishing
from posetlab.cli import main
code = main(["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"], stdout=io.StringIO())
assert code == 0 and "numpy" not in sys.modules, "numpy loaded without a Monte Carlo draw"
assert "dataclasses" not in sys.modules, "the record classes loaded dataclasses"
code = main(["volume-mc", "--s", "1/5", "--t", "1/5", "--samples", "100"],
            stdin=io.StringIO({chain3_json()!r}), stdout=io.StringIO())
assert code == 0 and "numpy" in sys.modules, "volume-mc drew without numpy"
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr


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


def test_verify_injections_exits_one_on_a_colliding_map(monkeypatch):
    # shrink with every word of a domain sent to the key of its first word:
    # each image and payload stays valid, so only the collisions fail
    fn, intervals_fn, dom_shift, img_shift = injections.MAPS["shrink"]
    first = {}

    def collide(p, z, k, l, word):
        return first.setdefault((k, l), fn(p, z, k, l, word))

    monkeypatch.setitem(injections.MAPS, "shrink", (collide, intervals_fn, dom_shift, img_shift))
    text = json.dumps({"n": 5, "covers": [], "z": [0, 1, 2]})
    code, out, err = run_cli(["verify-injections"], stdin_text=text)
    certs = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and err == ""
    bad = [c for c in certs if not c["ok"]]
    assert bad and all(c["map"] == "shrink" and c["collisions"] and not c["errors"] for c in bad)
    assert any(c["map"] != "shrink" for c in certs)


@pytest.mark.parametrize("inflate", [False, True], ids=["as-counted", "one-cell-inflated"])
@pytest.mark.parametrize(
    "family",
    [["cpc2-witness", "--k", "1", "--l", "2"], ["converse-tight", "--n", "8", "--k", "2", "--l", "2"]],
)
def test_gcpc_check_without_indices_reports_every_support_quad(family, inflate, monkeypatch):
    # one report per pair of support cells (k, l), (p, q) with k <= p and
    # l <= q, in sorted order, exit 1 exactly when one fails; no counted
    # table is known to fail gcpc, so one cell is inflated to make it fail
    _, text, _ = run_cli(["family", "--id", *family])
    p, z = normalize(*load_poset(text)[:2])
    F = f_table(p, z)
    if inflate:
        low = min(F.entries)
        F = FTable(F.n, F.z, {**F.entries, low: F.entries[low] * 10**6})
        monkeypatch.setattr("posetlab.cli.f_table", lambda p, z: F)
    cells = sorted(F.support())
    reports = [
        check_gcpc(F, k, l, pp, qq) for k, l in cells for pp, qq in cells if k <= pp and l <= qq
    ]
    failed = any(rep.verdict == FAILS for rep in reports)
    assert failed == inflate
    code, out, _ = run_cli(["check", "--ineq", "gcpc"], stdin_text=text)
    assert out.splitlines() == [json.dumps(rep.to_json_obj()) for rep in reports]
    assert code == (1 if failed else 0)


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


def test_search_command_prints_certificates_before_the_summary():
    argv = ["--target", "cpc2", "--n-max", "6", "--seed", "42", "--budget", "300"]
    code, out, _ = run_cli(["search", *argv])
    certs, summary = run(SearchJob("cpc2", n_max=6, seed=42, budget=300))
    assert code == 0 and certs
    expected = [c.to_json_obj() for c in certs] + [summary.to_json_obj()]
    assert [json.loads(line) for line in out.splitlines()] == expected


def test_family_out_writes_the_printed_line(tmp_path):
    argv = ["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"]
    path = tmp_path / "family.json"
    code, printed, _ = run_cli(argv)
    assert code == 0
    code, out, _ = run_cli([*argv, "--out", str(path)])
    assert code == 0 and out == "" and path.read_text() == printed


def test_stanley_check_without_a_mark_exits_two():
    code, out, err = run_cli(["check", "--ineq", "stanley"], stdin_text='{"n": 3, "covers": [[0, 1]]}')
    assert code == 2 and out == "" and err.startswith("error:")


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
    code, out, err = run_cli(["check", "--ineq", "not-an-ineq"], stdin_text=chain3_json())
    assert code == 2 and out == "" and "error: argument --ineq" in err
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
        pytest.param("[" * 100_000, id="nested-past-the-recursion-limit"),
        pytest.param('{"n": ' + "1" * 5000 + "}", id="integer-past-the-digit-limit"),
    ],
)
def test_malformed_poset_exits_two(text, tmp_path):
    path = tmp_path / "poset.json"
    path.write_text(text)
    for argv, stdin_text in ((["table"], text), (["table", "--poset", str(path)], "")):
        code, out, err = run_cli(argv, stdin_text=stdin_text)
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
        ["table"],
        ["table", "--poset", "-"],
        ["vanish", "--k", "1", "--l", "1"],
        ["check", "--ineq", "cpc"],
        ["check", "--ineq", "stanley"],
        ["verify-injections"],
        ["volume-mc", "--s", "1/5", "--t", "1/5"],
    ],
)
def test_non_utf8_stdin_exits_two(argv):
    # stdin with a strict UTF-8 decoder, as PYTHONIOENCODING=utf-8:strict
    # gives: the decode error is a data error, as for --poset FILE
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=stdin, stdout=out, stderr=err)
    assert code == 2 and out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read stdin: ")


class _FullDisk(io.StringIO):
    """A stdout on a device with no space left."""

    def writelines(self, lines):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("argv", [["table"], ["check", "--ineq", "cpc2", "--all"]])
def test_a_write_error_exits_two_with_one_error_line(argv):
    # exit 2 whatever the verdicts would have given (cpc2 --all fails: 1)
    _, family_out, _ = run_cli(["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"])
    err = io.StringIO()
    code = main(argv, stdin=io.StringIO(family_out), stdout=_FullDisk(), stderr=err)
    lines = err.getvalue().splitlines()
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: ")
    assert "No space left on device" in lines[0]


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
        ["volume-mc", "--s", "1/5", "--t", "1/5", "--seed", "-1"],
        ["family", "--id", "converse-tight", "--k", "2"],  # --n and --l missing
        ["family", "--id", "antichain", "--k", "1", "--l", "1", "--n", "9"],  # --n unread
        ["family", "--id", "antichain", "--k", "10000000000", "--l", "1"],
        ["family", "--id", "stanley-tight", "--n", "6", "--k", "2"],  # N_3 = 0, not k - 1
        ["check", "--ineq", "thin", "--t", "0", "--all"],  # the bound needs t >= 1
        ["check", "--ineq", "thin", "--t", "-2"],
    ],
)
def test_bad_numeric_argument_exits_two(argv):
    code, out, err = run_cli(argv, stdin_text=chain3_json())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("flag", [["--seed", "-1"], ["--seed", "-5"], ["--width-max", "0"]])
def test_search_rejects_negative_seeds_and_widths_below_one(flag):
    # both exited 0 before: a negative seed drew another seed's instances and
    # width 0 left every instance unusable
    code, out, err = run_cli(["search", "--target", "gcpc", "--n-max", "6", "--budget", "10", *flag])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_search_rejects_a_budget_that_reaches_the_next_seed():
    # index 1 000 003 + i of seed s is index i of seed s + 1: this exited 0
    # with those instances counted twice
    code, out, err = run_cli(
        ["search", "--target", "gcpc", "--n-max", "8", "--seed", "1", "--budget", "1000004"]
    )
    assert code == 2 and out == ""
    assert err == "error: budget must be in 0..1000003, got 1000004\n", err


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


@pytest.mark.parametrize("argv", [["table"], ["check", "--ineq", "cpc2", "--all"]])
def test_human_mode_prints_one_key_value_line_per_json_line(argv):
    _, family_out, _ = run_cli(["family", "--id", "cpc2-witness", "--k", "1", "--l", "2"])
    code, plain, _ = run_cli(argv, stdin_text=family_out)
    human_code, human, _ = run_cli(["--human", *argv], stdin_text=family_out)
    assert human_code == code
    objs = [json.loads(line) for line in plain.splitlines()]
    assert len(objs) > 0 and len(human.splitlines()) == len(objs)
    for obj, line in zip(objs, human.splitlines()):
        assert line == ", ".join(f"{key}={v}" for key, v in obj.items() if key != "schema")


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


# -- property: the exit-code contract over mutated argv and poset JSON --------

_ANY_INT = st.integers(-2, 8) | st.integers()
_FRACTION_TEXT = st.sampled_from(["1/5", "2/5", "1/2", "0", "-1/3", "1/0", "abc", "0.1"])
# flag -> (usually given, strategy for its value or None for a switch);
# search budgets and sizes and MC samples are capped so that runs stay small
_SUBCOMMANDS = {
    "table": {},
    "vanish": {"--k": (True, _ANY_INT), "--l": (True, _ANY_INT)},
    "check": {
        "--ineq": (True, st.sampled_from(ALL_CHECK_IDS)),
        **{flag: (False, _ANY_INT) for flag in ("--k", "--l", "--p", "--q", "--t", "--a")},
        "--all": (False, None),
    },
    "family": {
        "--id": (True, st.sampled_from(FAMILY_IDS)),
        **{flag: (True, _ANY_INT) for flag in ("--n", "--k", "--l")},  # no family reads all
    },
    "verify-injections": {
        "--map": (False, st.sampled_from(["stanley", "transfer", "shrink", "grow"])),
    },
    "search": {
        "--target": (True, st.sampled_from(SEARCH_TARGETS)),
        "--n-max": (True, st.integers(3, 12) | st.integers(max_value=12)
                    | st.integers(min_value=MAX_ELEMENTS + 1)),
        "--n-min": (False, _ANY_INT),
        "--width-max": (False, _ANY_INT),
        "--seed": (False, _ANY_INT),
        "--budget": (True, st.integers(-2, 3)),
    },
    "volume-mc": {
        "--s": (True, _FRACTION_TEXT),
        "--t": (True, _FRACTION_TEXT),
        "--samples": (True, st.integers(-2, 400)),
        "--seed": (False, _ANY_INT),
    },
}
_READS_POSET = {"table", "vanish", "check", "verify-injections", "volume-mc"}
_ALL_FLAGS = sorted({flag for flags in _SUBCOMMANDS.values() for flag in flags})
# poset documents of at most 7 elements, so that word enumeration stays small
_DOCS = [
    json.loads(chain3_json()),
    family_cpc2_witness(1, 2).to_json_obj(),
    family_stanley_tight(6, 3).to_json_obj(),
]
_SMALL = st.integers(min_value=-2, max_value=7)
_JSON = st.recursive(
    st.none() | st.booleans() | _SMALL | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
_FIELD_VALUES = {
    "n": _SMALL,
    "covers": st.lists(st.lists(_SMALL, min_size=2, max_size=2), max_size=8),
    "z": st.lists(_SMALL, min_size=3, max_size=3),
    "a": _SMALL,
}
_RARELY = st.sampled_from([False] * 7 + [True])  # shrinks to False


@st.composite
def _poset_text(draw) -> str:
    doc = dict(draw(st.sampled_from(_DOCS)))
    while draw(_RARELY):
        key = draw(st.sampled_from(sorted(_FIELD_VALUES)))
        action = draw(st.sampled_from(["drop", "json", "ints"]))
        if action == "drop":
            doc.pop(key, None)
        else:
            doc[key] = draw(_JSON if action == "json" else _FIELD_VALUES[key])
    text = json.dumps(doc)
    if draw(_RARELY):
        text = text[: draw(st.integers(0, len(text)))]  # cut short
    return text


@st.composite
def _invocation(draw):
    """One subcommand with its flags, each kept or dropped, any numeric flag
    set to any int, maybe a flag that belongs to another subcommand, and
    poset JSON with fields dropped, retyped or renumbered."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    flags = [flag for flag, (required, _) in _SUBCOMMANDS[command].items()
             if draw(_RARELY) != required]
    while draw(_RARELY):
        flags.append(draw(st.sampled_from(_ALL_FLAGS)))
    argv = [command]
    for flag in flags:  # a borrowed flag takes the value kind of its first owner
        specs = (_SUBCOMMANDS[command], *_SUBCOMMANDS.values())
        strategy = next(spec[flag][1] for spec in specs if flag in spec)
        argv += [flag] if strategy is None else [flag, str(draw(strategy))]
    stdin = draw(_poset_text()) if command in _READS_POSET else ""
    return argv, stdin


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_invocation())
@example((["family", "--id", "converse-tight", "--k", "2"], ""))
@example((["volume-mc", "--s", "1/5", "--t", "1/5", "--seed", "-1"], chain3_json()))
@example((["check", "--ineq", "cpc", "--k", "x"], chain3_json()))
@example((["check", "--ineq", "cpc2", "--all"], json.dumps(_DOCS[1])))  # exits 1
def test_exit_code_contract_holds_for_mutated_input(invocation):
    argv, stdin_text = invocation
    code, out, err = run_cli(argv, stdin_text)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1, err
    for line in out.splitlines():
        obj = json.loads(line)
        assert isinstance(obj, dict) and obj["schema"] == "posetlab/1"
    if code in (0, 1):
        objs = [json.loads(line) for line in out.splitlines()]
        assert code == any(obj.get("verdict") == "fails" or obj.get("ok") is False for obj in objs)


def test_the_property_test_draws_every_subcommand():
    # a subcommand missing from _SUBCOMMANDS would escape the exit-code contract
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(_SUBCOMMANDS) == set(subparsers.choices)
