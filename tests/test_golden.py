"""Golden CLI outputs: stdout, stderr and exit code of a fixed command set.

The fixture `golden/cli.json` pins every byte the CLI prints for the
commands below, refusals and failing verifications included, so a
refactor that keeps it passing keeps the CLI's output identical.  After
an intended output change, regenerate the fixture with

    PYTHONPATH=src python tests/test_golden.py --write

and review the diff.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sturmian.cli import main

FIXTURE = Path(__file__).parent / "golden" / "cli.json"

# [0;(1)] normalizes with a letter swap; the last slope is a truncation.
SLOPES = ("[0;2,(1,2)]", "[0;(1)]", "[0;3,1,4,1,5,9,2,6]")

PER_SLOPE = (
    ["factors", "--n", "1"],
    ["factors", "--n", "5"],
    ["factors", "--n", "12"],
    ["index", "--n", "3"],
    ["index", "--n", "8"],
    ["index", "--n", "13"],
    ["index", "--word", "10010"],
    ["three-distance", "--n", "5"],
    ["three-distance", "--n", "40"],
    ["standard-word", "--k", "3"],
    ["standard-word", "--k", "3", "--l", "1"],
    ["conjugacy", "--k", "3", "--l", "1"],
    ["critical-exponent", "--depth", "10"],
    ["critical-exponent", "--depth", "30"],
    ["critical-exponent", "--depth", "120"],
)

VERIFY = (
    ["verify", "--slope", "[0;2,(1,2)]", "--n-max", "25"],
    ["verify", "--slope", "[0;2,(1,2)]", "--n-max", "25",
     "--suite", "power-classification", "--inject-fault", "flip-gamma"],
)

# CLI branches the commands above miss: a supremum attained at k = 0, then
# the two refusals and the two usage errors, which print the same in either
# format.
BRANCHES = (
    ["critical-exponent", "--slope", "[0;9,(1)]", "--depth", "4", "--format", "table"],
    ["critical-exponent", "--slope", "[0;9,(1)]", "--depth", "4", "--format", "json"],
    ["verify", "--suite", "three-distance", "--n-max", "5"],
    ["verify", "--suite", "three-distance", "--inject-fault", "flip-gamma"],
    ["factors", "--slope", "[0;2,(1)]", "--n", "0"],
    ["factors", "--slope", "[0;2,(1)]", "--n", "x"],
)


def cases() -> list[list[str]]:
    out = []
    for fmt in ("table", "json"):
        for slope in SLOPES:
            for args in PER_SLOPE:
                out.append(args + ["--slope", slope, "--format", fmt])
        for args in VERIFY:
            out.append(args + ["--format", fmt])
    return out + [list(args) for args in BRANCHES]


def invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict[tuple[str, ...], dict]:
    return {tuple(case["argv"]): case
            for case in json.loads(FIXTURE.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_matches_golden(argv, golden, monkeypatch):
    monkeypatch.delenv("STURM_DEPTH_LIMIT", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    assert invoke(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    os.environ.pop("STURM_DEPTH_LIMIT", None)
    os.environ["COLUMNS"] = "80"
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps([invoke(argv) for argv in cases()], indent=1) + "\n",
                       encoding="utf-8")
