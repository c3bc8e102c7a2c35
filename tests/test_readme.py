"""README's examples run as documented, so its prose cannot drift from the code."""

from __future__ import annotations

import io
import json
import re
import shlex
from pathlib import Path

from posetlab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def _commands(block: str) -> list:
    """(pipeline, the comment lines right after it) for each command of a
    ``sh`` block, continuation lines joined."""
    commands, comments = [], None
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("# ") and comments is not None:
            comments.append(line[2:])
        elif line.strip() and not line.startswith("#"):
            comments = []
            commands.append((line, comments))
        else:
            comments = None
    return commands


def _pipe(pipeline: str):
    """Run each ``posetlab`` stage through ``cli.main`` in process, each
    stage reading the one before; the pipeline's code is its last stage's."""
    text = ""
    for stage in pipeline.split(" | "):
        program, *argv = shlex.split(stage)
        assert program == "posetlab", stage
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, stdin=io.StringIO(text), stdout=out, stderr=err)
        assert err.getvalue() == "", (stage, err.getvalue())
        text = out.getvalue()
    return code, text


def test_readme_pipelines_exit_as_documented():
    (block,) = _blocks("sh")
    ran = []
    for pipeline, comments in _commands(block):
        if pipeline.startswith("posetlab search"):
            # the 100 000-instance job: criterion 8 runs it and pins its lines
            continue
        code, out = _pipe(pipeline)
        assert code == (1 if "--ineq cpc2" in pipeline else 0), pipeline
        if pipeline.endswith("| posetlab table"):
            assert json.loads(out) == json.loads(" ".join(comments))
        ran.append(pipeline.split(" | ")[-1].split()[1])
    assert ran == ["table", "check", "vanish", "verify-injections", "volume-mc"]


def test_readme_library_example_runs():
    (block,) = _blocks("python")
    names: dict = {}
    exec(block, names)
    assert names["check_cpc2"](names["F"], 1, 2).verdict == "fails"
