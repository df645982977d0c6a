"""CLI behaviour: output shapes, determinism, exit codes."""

from __future__ import annotations

import json

import pytest

from sturmian.cli import _build_parser, main
from test_golden import FIXTURE, invoke


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


def test_slope_syntax_error_is_usage(capsys):
    code, _, err = run(capsys, "factors", "--slope", "oops", "--n", "2")
    assert code == 2
    assert "slope" in err


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
    assert "scan lower bound" in out


def _scan_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("scan lower bound")]


def test_critical_exponent_truncation_scans_what_its_cylinder_codes(capsys):
    # The cylinder's bracket p_7/q_7, (p_7 + p_6)/(q_7 + q_6) has
    # 2*111,950 + 21,909 > 2*100,001: its key table codes the scan's 100,000
    # letters, so the truncation prints the scan line of every slope in it.
    code, out, _ = run(capsys, "critical-exponent", "--slope", "[0;2,1,9,9,9,9,5]")
    assert code == 0
    scans = _scan_lines(out)
    assert scans == ["scan lower bound: exponent 977/88 ~ 11.1022727273 at period 264 "
                     "(prefix of 100000 letters)"]
    for extension in ("[0;2,1,9,9,9,9,5,(1)]", "[0;2,1,9,9,9,9,5,(7,2)]"):
        code, out, _ = run(capsys, "critical-exponent", "--slope", extension)
        assert code == 0 and _scan_lines(out) == scans, extension


def test_critical_exponent_truncated_slope(capsys):
    code, out, _ = run(capsys, "critical-exponent", "--slope", "[0;2,1,2,1,2]",
                       "--depth", "10")
    assert code == 0
    assert "lower bound, depth-limited" in out


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
    # One table of span 500 certifies every level n <= 500 of this cylinder.
    code, out, _ = run(capsys, "verify", "--suite", "three-distance",
                       "--slope", "[0;3,1,4,1,5,9,2,6]")
    assert code == 0
    assert "three-distance           PASS  (497 checks)" in out.splitlines()


def test_verify_three_distance_on_a_shallow_truncation_refuses(capsys):
    # Depth 3 cannot order the 1001 points of the span-500 table.
    code, out, err = run(capsys, "verify", "--suite", "three-distance",
                         "--slope", "[0;2,1,1]")
    assert code == 1
    assert out == ""
    assert err == "error: cannot certify 1001 orbit points for slope [0;2,1,1] within depth 3\n"


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
], ids=["exclusive", "bad-int", "bad-choice", "missing-slope", "bad-command"])
def test_usage_error_leaves_the_shared_parser_intact(bad, monkeypatch):
    # The same parser object serves both calls, so the error must not
    # leave anything behind that changes the next parse.
    monkeypatch.delenv("STURM_DEPTH_LIMIT", raising=False)
    good = ["index", "--word", "10010", "--slope", "[0;2,(1,2)]", "--format", "json"]
    golden = {tuple(case["argv"]): case
              for case in json.loads(FIXTURE.read_text(encoding="utf-8"))}
    assert invoke(bad)["exit"] == 2
    assert invoke(good) == golden[tuple(good)]
