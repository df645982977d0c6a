"""Every function in src/sturmian runs, is exported, or is allow-listed.

A fresh interpreter runs the golden CLI commands (`golden/cli.json`) and
`verify --n-max 40` under `sys.setprofile` and records every function of
the package that is called.  It must be a fresh one: in a process other
tests have warmed, cached functions such as `cli._build_parser`,
`exactnum._ctx` and `rotation.factor_interval_map` answer without running
their bodies.  Every function or method that a `def` in src/sturmian
defines must be reached, be a module-level name in `sturmian.__all__`, or
sit in ALLOWED with its reason; an ALLOWED entry that is reached or no
longer defined fails too, so the list only shrinks.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import sturmian

SRC = Path(sturmian.__file__).parent
FIXTURE = Path(__file__).parent / "golden" / "cli.json"

ALLOWED = {
    "exactnum._unordered": "the order slots of the tuple value types: runs only on misuse",
    "exactnum.LinearForm.__neg__": "an operator of the exported value type LinearForm",
    "exactnum.enclosure": "traced by name in bench/spans.py",
    "rotation.language_extension": "traced by name in bench/spans.py",
    "oracles.gap_spectrum": "the interval-length oracle of bench/check.py",
    "oracles.max_power": "traced by name in bench/spans.py",
    "oracles.max_fractional_power": "the fractional-index oracle of bench/check.py",
}

# Prints the reached (file, first line, name) of every package function.
TRACER = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

src, fixture = sys.argv[1:]
reached = set()


def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(src):
        reached.add((code.co_filename, code.co_firstlineno, code.co_name))


sys.setprofile(profile)
from sturmian.cli import main

with open(fixture, encoding="utf-8") as cases:
    runs = [case["argv"] for case in json.load(cases)]
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    for argv in runs + [["verify", "--n-max", "40"]]:
        try:
            main(argv)
        except SystemExit:  # argparse usage errors
            pass
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> "module.Qual.name" for every def in the
    package; the first line is a decorator's, as in `co_firstlineno`."""
    out = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), first, child.name] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return out


def exported(qualname: str) -> bool:
    module, _, name = qualname.partition(".")
    value = getattr(sturmian, name, None)
    return name in sturmian.__all__ and getattr(value, "__module__", None) == f"sturmian.{module}"


def reached_functions() -> set[tuple[str, int, str]]:
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    env.pop("STURM_DEPTH_LIMIT", None)
    run = subprocess.run([sys.executable, "-c", TRACER, str(SRC), str(FIXTURE)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    return {tuple(key) for key in json.loads(run.stdout)}


def test_every_function_is_reached_exported_or_allowed():
    defined = defined_functions()
    reached = {defined[key] for key in reached_functions() & defined.keys()}
    names = set(defined.values())
    unreached = sorted(name for name in names - reached
                       if not exported(name) and name not in ALLOWED)
    assert unreached == [], "functions no command reaches: delete them, export them, " \
                            "or allow-list them with a reason"
    assert sorted(set(ALLOWED) & reached) == [], "reached: drop them from ALLOWED"
    assert sorted(set(ALLOWED) - names) == [], "no longer defined: drop them from ALLOWED"
