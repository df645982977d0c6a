"""CLI behaviour: output shapes, determinism, exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from decimal import ROUND_HALF_UP, Decimal, localcontext

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sturmian
from conftest import periodic_tail_surd
from sturmian import oracles, rotation
from sturmian.cli import _build_parser, _json, main
from sturmian.exactnum import LinearForm
from test_golden import FIXTURE, cases, invoke


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factors_table_worked_example(capsys):
    code, out, _ = run(capsys, "factors", "--slope", "[0;2,(1,2)]", "--n", "5")
    assert code == 0
    for w in ("00100", "00101", "01001", "01010", "10010", "10100"):
        assert w in out
    assert out.count("\n") == 7  # header + six rows


def test_factors_json_schema(capsys):
    code, out, _ = run(capsys, "factors", "--slope", "[0;2,(1,2)]", "--n", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["slope"] == "[0;2,(1,2)]"
    assert doc["command"] == "factors"
    assert doc["depth"] == 64
    assert len(doc["results"]) == 2
    one = {r["word"]: r for r in doc["results"]}["1"]
    assert one["length"] == {"q": 1, "p": 0, "approx": "0.366025403784"}


def test_output_is_byte_identical(capsys):
    first = run(capsys, "index", "--slope", "[0;2,(1,2)]", "--n", "8",
                "--format", "json")
    second = run(capsys, "index", "--slope", "[0;2,(1,2)]", "--n", "8",
                 "--format", "json")
    assert first == second


def test_index_by_length(capsys):
    code, out, _ = run(capsys, "index", "--slope", "[0;2,(1)]", "--n", "3")
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("word")]
    assert len(rows) == 4
    indices = sorted(int(line.split()[1]) for line in rows)
    assert indices == [1, 2, 2, 3]


def test_index_by_length_on_shallow_truncations(capsys):
    # The cylinders of [0;2] and [0;2,1,1] certify the 3 and 5 orbit points.
    for slope, n, indices in (("[0;2]", "1", [2, 1]), ("[0;2,1,1]", "2", [1, 2, 2])):
        code, out, _ = run(capsys, "index", "--slope", slope, "--n", n)
        assert code == 0
        rows = [line for line in out.splitlines() if line and not line.startswith("word")]
        assert [int(line.split()[1]) for line in rows] == indices


def test_index_by_word(capsys):
    code, out, _ = run(capsys, "index", "--slope", "[0;2,(1,2)]", "--word", "10010",
                       "--format", "json")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["integer_index"] == 2
    assert row["case"] == "iv"
    assert row["conjugate_position"] == 0


def test_index_unknown_word_fails(capsys):
    code, out, err = run(capsys, "index", "--slope", "[0;2,(1,2)]", "--word", "11")
    assert code == 1
    assert "not a factor" in err


def test_index_empty_word_has_no_index(capsys):
    # The package's own refusal, not the length check of `length_case`.
    code, out, err = run(capsys, "index", "--slope", "[0;2,(1)]", "--word", "")
    assert (code, out, err) == (1, "", "error: the empty word has no index\n")


def test_index_non_binary_word_reports_the_alphabet(capsys):
    code, out, err = run(capsys, "index", "--slope", "[0;2,(1)]", "--word", "012")
    assert code == 1
    assert out == ""
    assert "alphabet" in err
    assert "not a factor" not in err


def test_index_requires_exactly_one_selector(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["index", "--slope", "[0;2,(1)]", "--n", "3", "--word", "010"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("slope, message", [("oops", "slope must look like [0;...]"),
                                            ("[0;²]", "bad partial quotient '²'")])
def test_slope_syntax_error_is_usage(capsys, slope, message):
    # A superscript digit passes str.isdigit but not int(): refused as syntax too.
    code, _, err = run(capsys, "index", "--slope", slope, "--n", "2")
    assert code == 2
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_zero_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n-max", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_three_distance_table(capsys):
    code, out, _ = run(capsys, "three-distance", "--slope", "[0;2,(1,2)]", "--n", "5")
    assert code == 0
    assert "1*q_2 + q_1 + 0" in out
    assert "0.0980762113533" in out and "0.169872981078" in out


def test_standard_word_commands(capsys):
    code, out, _ = run(capsys, "standard-word", "--slope", "[0;2,(1,2)]", "--k", "3")
    assert code == 0 and "01001001" in out
    code, out, _ = run(capsys, "standard-word", "--slope", "[0;2,(1,2)]",
                       "--k", "3", "--l", "1")
    assert code == 0 and "01001" in out


def test_conjugacy_table(capsys):
    code, out, _ = run(capsys, "conjugacy", "--slope", "[0;2,(1,2)]",
                       "--k", "3", "--l", "1")
    assert code == 0
    assert "outside the class" in out
    assert "00100" in out


def test_critical_exponent_report(capsys):
    code, out, _ = run(capsys, "critical-exponent", "--slope", "[0;2,(1)]",
                       "--depth", "10")
    assert code == 0
    assert "3.61803398875" in out
    assert "never attained" in out


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("slope", ["[0;2,(1)]", "[0;2,(1,2)]", "[0;2,1,9,9,9,9,5]",
                                   "[0;3,1,4,1,5,9,2,6]"])
def test_critical_exponent_runs_no_scan(capsys, monkeypatch, slope, fmt):
    # The answer is the formula's alone; the run scan is the verify suite's.
    def refuse(*args):
        raise AssertionError("critical-exponent ran the run scan")

    monkeypatch.setattr(oracles, "max_run_exponent", refuse)
    monkeypatch.setattr(rotation, "characteristic_prefix", refuse)
    code, out, _ = run(capsys, "critical-exponent", "--slope", slope, "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert "scan_lower_bound" not in json.loads(out)["results"][0]
    else:
        assert "scan lower bound" not in out


def test_critical_exponent_truncated_slope(capsys):
    code, out, _ = run(capsys, "critical-exponent", "--slope", "[0;2,1,2,1,2]",
                       "--depth", "10")
    assert code == 0
    assert "lower bound, depth-limited" in out


def test_critical_exponent_json_head_reports_the_default_depth(capsys):
    code, out, _ = run(capsys, "critical-exponent", "--slope", "[0;2,(1)]", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    [row] = doc["results"]
    assert doc["depth"] == row["depth"] == row["terms"][-1]["k"] == 30


def test_a_closed_pipe_ends_with_one_error_line():
    # 401 rows of 400 letters overflow a 64 KB pipe buffer, so the writer
    # meets the closed read end while it still has rows to print.
    src = os.path.dirname(os.path.dirname(os.path.abspath(sturmian.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "sturmian", "factors", "--slope", "[0;2,(1)]", "--n", "400"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"word ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err == "error: the output pipe was closed\n"


def test_normalization_note(capsys):
    code, out, _ = run(capsys, "standard-word", "--slope", "[0;(1)]", "--k", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["slope"] == "[0;2,(1)]"
    assert doc["letters_swapped_from_input"] is True


def test_verify_single_slope_subset(capsys):
    code, out, _ = run(capsys, "verify", "--slope", "[0;2,(1,2)]", "--n-max", "25",
                       "--suite", "power-classification",
                       "--suite", "best-approximations")
    assert code == 0
    assert "ALL SUITES PASS" in out
    assert "power-classification" in out and "best-approximations" in out


def test_verify_fault_injection_fails(capsys):
    code, out, _ = run(capsys, "verify", "--slope", "[0;2,(1)]", "--n-max", "10",
                       "--suite", "power-classification",
                       "--inject-fault", "flip-gamma")
    assert code == 1
    assert "FAIL" in out


def test_verify_fault_injection_needs_power_classification(capsys):
    # flip-gamma corrupts only power-classification; without that suite
    # the negative control would pass silently, so it is refused.
    code, out, err = run(capsys, "verify", "--n-max", "5", "--suite", "three-distance",
                         "--inject-fault", "flip-gamma")
    assert code == 1
    assert out == ""
    assert "power-classification" in err


def test_verify_n_max_needs_power_classification(capsys):
    # --n-max bounds only power-classification; without that suite it
    # would be accepted and ignored, so it is refused.
    code, out, err = run(capsys, "verify", "--n-max", "5", "--suite", "three-distance")
    assert code == 1
    assert out == ""
    assert "power-classification" in err


def test_verify_three_distance_on_a_truncation(capsys):
    # One table of reach 500 certifies every level n <= 500 of this cylinder.
    code, out, _ = run(capsys, "verify", "--suite", "three-distance",
                       "--slope", "[0;3,1,4,1,5,9,2,6]")
    assert code == 0
    assert "three-distance           PASS  (500 checks)" in out.splitlines()


def test_verify_three_distance_on_a_shallow_truncation_refuses(capsys):
    # Depth 3 cannot order the 501 points of the reach-500 table: the
    # suite's own line says so, and the gate exits 1.
    code, out, err = run(capsys, "verify", "--suite", "three-distance",
                         "--slope", "[0;2,1,1]")
    assert (code, err) == (1, "")
    assert out == ("three-distance           REFUSED  cannot certify 501 orbit points "
                   "for slope [0;2,1,1] within depth 3\nVERIFICATION FAILED\n")


def test_verify_reports_each_refusal_and_runs_the_rest(capsys):
    # a_1..a_7 cannot name q_8, which the run scan's text length needs.
    argv = ("verify", "--slope", "[0;3,1,4,1,5,9,2]")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == "best-approximations      PASS  (12 checks)"
    assert [line.split()[1] for line in lines[:-1]] == [
        "PASS", "PASS", "PASS", "PASS", "PASS", "PASS", "REFUSED", "PASS"]
    assert lines[-1] == "VERIFICATION FAILED"
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    for row, line in zip(json.loads(out)["results"], lines):
        # Only a refused row has the key, so passing rows keep their bytes.
        assert ("refusal" in row) == ("REFUSED" in line)
        if "refusal" in row:
            assert (row["passed"], row["checks"], row["failures"]) == (False, 0, [])
            assert line.endswith("REFUSED  " + row["refusal"])


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--slope", "[0;2,(1)]",
                       "--suite", "best-approximations", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify"
    assert doc["results"][0]["suite"] == "best-approximations"
    assert doc["results"][0]["passed"] is True


def test_depth_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("STURM_DEPTH_LIMIT", "32")
    code, out, _ = run(capsys, "factors", "--slope", "[0;2,(1)]", "--n", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["depth"] == 32


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("value, message", [
    ("abc", "STURM_DEPTH_LIMIT must be an integer, got 'abc'"),
    ("1", "STURM_DEPTH_LIMIT must be at least 2, got 1"),
])
@pytest.mark.parametrize("argv", [
    ["standard-word", "--slope", "[0;2,(1)]", "--k", "3"],
    ["factors", "--slope", "[0;2,(1)]", "--n", "2"],
    ["verify", "--suite", "best-approximations"],
], ids=["standard-word", "factors", "verify"])
def test_bad_depth_limit_is_refused_in_every_format(capsys, monkeypatch, argv, value,
                                                    message, fmt):
    monkeypatch.setenv("STURM_DEPTH_LIMIT", value)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["factors", "--slope", "[0;2,(1)]", "--n", "2", "--seed", "7"],
    ["factors", "--slope", "[0;2,(1)]", "--n", "2", "--boundary", "right"],
    ["factors", "--slope", "[0;2,(1)]", "--n", "2", "--depth", "10"],
    ["verify", "--slope", "[0;2,(1)]", "--n-max", "5", "--depth", "10"],
], ids=["seed", "boundary", "factors-depth", "verify-depth"])
def test_removed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("slope", ["[0;2,(1)]", "[0;3,(1,2)]"])
@pytest.mark.parametrize("depth", ["150", "200"])
def test_critical_exponent_deep_depth(capsys, slope, depth):
    def supremum(d: str) -> dict:
        code, out, _ = run(capsys, "critical-exponent", "--slope", slope,
                           "--depth", d, "--format", "json")
        assert code == 0
        return json.loads(out)["results"][0]["supremum"]

    assert supremum(depth) == supremum("30")


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("bad", [
    ["index", "--slope", "[0;2,(1,2)]", "--n", "3", "--word", "010"],
    ["index", "--slope", "[0;2,(1,2)]", "--n", "0"],
    ["index", "--slope", "[0;2,(1,2)]", "--format", "xml", "--n", "3"],
    ["index", "--n", "3"],
    ["nonsense"],
    ["verify", "--suite", "nope"],
], ids=["exclusive", "bad-int", "bad-choice", "missing-slope", "bad-command", "bad-suite"])
def test_usage_error_leaves_the_shared_parser_intact(bad, monkeypatch):
    # The same parser object serves both calls, so the error must not
    # leave anything behind that changes the next parse.
    monkeypatch.delenv("STURM_DEPTH_LIMIT", raising=False)
    good = ["index", "--word", "10010", "--slope", "[0;2,(1,2)]", "--format", "json"]
    golden = {tuple(case["argv"]): case
              for case in json.loads(FIXTURE.read_text(encoding="utf-8"))}
    assert invoke(bad)["exit"] == 2
    assert invoke(good) == golden[tuple(good)]


# ------------------------------------------------------------------
# the JSON writer
# ------------------------------------------------------------------

# Quotes, backslashes, control characters, a line separator, non-ASCII
# and astral text, mixed in with any other character.
JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d538')
                    | st.characters())
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**40, 10**40) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example({"a": [], "b": {}, "c": [[], {}, [[{}]]], "d": {"e": {"f": []}}})
@example(['"\\\b\x00 \u00e9 \U0001d538', True, False, None, 1, -10**40, 0])
def test_json_writer_prints_the_stdlib_indent_2_bytes(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, {1}, b"x", {1: "a"}, [0.5], {"a": {2: None}}, (1,)],
                         ids=["float", "set", "bytes", "int-key", "nested-float",
                              "nested-int-key", "tuple"])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value)


# ------------------------------------------------------------------
# the supremum's decimal against an independent surd
# ------------------------------------------------------------------

def _twelve_digits(x: Decimal) -> str:
    """x to 12 significant digits, rounding half up."""
    exp = x.adjusted() - 11
    out = x.quantize(Decimal(1).scaleb(exp), rounding=ROUND_HALF_UP)
    if out.adjusted() != x.adjusted():  # rounded up to the next power of ten
        out = out.quantize(Decimal(1).scaleb(exp + 1), rounding=ROUND_HALF_UP)
    return str(out)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=3),
       st.lists(st.integers(1, 6), min_size=1, max_size=3))
def test_printed_class_limit_matches_its_surd(preperiod, period):
    slope = "[0;" + ",".join(map(str, preperiod)) + ",(" + ",".join(map(str, period)) + ")]"
    case = invoke(["critical-exponent", "--slope", slope, "--depth", "2", "--format", "json"])
    assert case["exit"] == 0, case["stderr"]
    sup = json.loads(case["stdout"])["results"][0]["supremum"]
    assume(sup["limit_tail"] is not None)
    assert sup["exact"] is None
    tail = re.fullmatch(r"\[0;\(([\d,]+)\)\]", sup["limit_tail"])
    p, d, q = periodic_tail_surd([int(b) for b in tail.group(1).split(",")])
    with localcontext() as ctx:
        ctx.prec = 50
        value = sup["limit_offset"] + (p + Decimal(d).sqrt()) / q
    assert sup["approx"] == _twelve_digits(value)


def test_class_limit_too_shallow_to_render_is_refused(capsys, monkeypatch):
    # Depth 16 brackets 3 + [0;(1)] too loosely for 12 digits: an error,
    # never an uncertified decimal such as 3.61803393456.
    monkeypatch.setenv("STURM_DEPTH_LIMIT", "16")
    code, out, err = run(capsys, "critical-exponent", "--slope", "[0;2,(1)]", "--depth", "2")
    assert (code, out) == (1, "")
    assert err == "error: cannot render a+3 to 12 digits for slope [0;(1)]\n"


@pytest.mark.parametrize("suite, checks", [("square-lengths", 1),
                                           ("conjugacy-intervals", 22),
                                           ("closest-multiples", 47),
                                           ("cube-structure", 162)])
def test_semiconvergent_suites_on_truncations(capsys, monkeypatch, suite, checks):
    # The four suites that walk the standard family read a_k only while
    # q_{k-1} is within their bound.
    monkeypatch.delenv("STURM_DEPTH_LIMIT", raising=False)
    code, out, err = run(capsys, "verify", "--slope", "[0;2,1,1,1]", "--suite", suite)
    assert (code, err) == (1, "")
    assert out == (f"{suite:<24} REFUSED  quotient a_5 requested but expansion is only "
                   "valid to depth 4\nVERIFICATION FAILED\n")
    code, out, err = run(capsys, "verify", "--slope", "[0;3,1,4,1,5,9,2,6]", "--suite", suite)
    assert (code, err) == (0, "")
    assert out == f"{suite:<24} PASS  ({checks} checks)\nALL SUITES PASS\n"

# ------------------------------------------------------------------
# table and JSON say the same thing
# ------------------------------------------------------------------

_CELL = r"(\S+)  \[(\S+)\]"  # a form's decimal, then the form


def _cell(form: dict) -> tuple[str, str]:
    return form["approx"], str(LinearForm(form["q"], form["p"]))


def _dash(value) -> str:
    return "-" if value is None else str(value)


def _matches(pattern: str, lines: list[str]) -> list[tuple]:
    found = [re.fullmatch(pattern, line) for line in lines]
    assert all(found), [line for line, m in zip(lines, found) if m is None]
    return [m.groups() for m in found]


def _supremum_line(row: dict) -> str:
    sup = row["supremum"]
    if row["depth_limited"]:
        return f"supremum >= {sup['approx']} (lower bound, depth-limited at {row['depth']})"
    if row["attained"]:
        return (f"supremum = {sup['exact']} = {sup['approx']} "
                f"(attained, witness k = {row['witness_k']})")
    return (f"supremum = {sup['limit_offset']} + {sup['limit_tail']} = {sup['approx']} "
            f"(approached along the depth class of k = {row['witness_k']}, never attained)")


def _same_answer(command: str, lines: list[str], rows: list[dict]) -> None:
    """Assert that the table `lines` state what the JSON `rows` state."""
    if command == "factors":
        assert _matches(rf"(\S+) +(\d+) +(\d+)  {_CELL}", lines[1:]) == [
            (r["word"], str(r["left_idx"]), str(r["right_idx"]), *_cell(r["length"]))
            for r in rows]
    elif command == "index":
        assert _matches(r"(\S+) +(\d+)  (\S+) +(\S+)  (\S+)", lines[1:]) == [
            (r["word"], str(r["integer_index"]), r["case"], _dash(r["conjugate_position"]),
             _dash(r["fractional_index"])) for r in rows]
    elif command == "conjugacy":
        assert _matches(rf" *(\S+)  (\S+) +{_CELL}  \((.+)\)", lines[2:]) == [
            (_dash(r["position"]), r["word"], *_cell(r["interval_length"]),
             "outside the class" if r["position"] is None else r["block"]) for r in rows]
    elif command == "three-distance":
        (row,) = rows
        assert _matches(r"n = (\d+) decomposes as (\d+)\*q_(\S+) \+ q_(\S+) \+ (\d+)",
                        lines[:1]) == [tuple(map(str, (row["n"], row["l"], row["k"] - 1,
                                                       row["k"] - 2, row["r"])))]
        assert _matches(rf" *(\d+)  {_CELL}", lines[2:]) == [
            (str(g["count"]), *_cell(g["length"])) for g in row["gaps"]]
    elif command == "standard-word":
        (row,) = rows
        assert _matches(r"s_\S+ = ([01]+)  \(length (\d+)\)", lines) == [
            (row["word"], str(row["length"]))]
    elif command == "critical-exponent":
        (row,) = rows
        terms = len(row["terms"])
        assert _matches(r" *(\d+)  (\S+) +(\S+)", lines[1:terms + 1]) == [
            (str(t["k"]), t["value"], t["approx"]) for t in row["terms"]]
        assert lines[terms + 1:] == [_supremum_line(row)]
    elif command == "verify":
        suites = [line for line in lines[:-1] if not line.startswith("    ")]
        assert _matches(r"(\S+) +(PASS|FAIL)  \((\d+) checks\)", suites) == [
            (r["suite"], "PASS" if r["passed"] else "FAIL", str(r["checks"])) for r in rows]
        assert lines[-1] == ("ALL SUITES PASS" if all(r["passed"] for r in rows)
                             else "VERIFICATION FAILED")
    else:
        raise AssertionError(f"no table reader for {command}")


def _answered_in_both_formats() -> list[list[str]]:
    exits = {tuple(case["argv"]): case["exit"]
             for case in json.loads(FIXTURE.read_text(encoding="utf-8"))}
    return [argv for argv in cases() if argv[-1] == "table"
            and exits[tuple(argv)] == exits[tuple(argv[:-1] + ["json"])] == 0]


@pytest.mark.parametrize("argv", _answered_in_both_formats(), ids=" ".join)
def test_table_and_json_say_the_same(argv, monkeypatch):
    monkeypatch.delenv("STURM_DEPTH_LIMIT", raising=False)
    table, doc = invoke(argv), invoke(argv[:-1] + ["json"])
    assert table["exit"] == doc["exit"] == 0
    doc = json.loads(doc["stdout"])
    lines = table["stdout"].splitlines()
    if doc.get("letters_swapped_from_input"):
        assert lines.pop(0) == (f"# slope normalized to {doc['slope']}; letters 0/1 "
                                "are swapped relative to the input slope")
    assert doc["command"] == argv[0]
    _same_answer(argv[0], lines, doc["results"])
