"""The verification suites themselves: green on the family, red under fault."""

from __future__ import annotations

from fractions import Fraction

import pytest

from sturmian import oracles, verify
from sturmian.cli import main
from sturmian.exactnum import DepthExceededError, parse_slope
from sturmian.repetitions import NotAFactorError


@pytest.fixture(scope="module")
def small_family():
    return [parse_slope(s) for s in ("[0;2,(1)]", "[0;2,(1,2)]", "[0;3,(2)]")]


def test_all_suites_pass_small_family(small_family):
    results = verify.run_suites(slopes=small_family, n_max=40)
    assert [r.name for r in results] == list(verify.SUITES)
    for r in results:
        assert r.passed, r.line()
        assert r.checks > 0


@pytest.mark.parametrize("slope", ["[0;4,(1)]", "[0;5,(1)]", "[0;4,1,(1)]",
                                   "[0;2,1,3,(1)]", "[0;3,1,2,(1)]"])
def test_cube_structure_fourth_powers_off_all_ones_tails(slope):
    # a_1 >= 4, or a later quotient >= 2 in the preperiod, makes a fourth
    # power a factor even when the period is all ones.
    [result] = verify.run_suites(names=["cube-structure"], slopes=[parse_slope(slope)])
    assert result.passed, result.line()


def test_critical_exponent_suite_scans_what_a_truncation_cylinder_codes(monkeypatch):
    # The cylinder's bracket p_7/q_7, (p_7 + p_6)/(q_7 + q_6) has
    # 2*111,950 + 21,909 > 2*100,001: its key table codes the suite's
    # 100,000-letter scan window, so the truncation scans the same runs as
    # every slope in it.
    scans = []
    scan = oracles.max_run_exponent

    def recorded(text, max_period):
        scans.append(scan(text, max_period))
        return scans[-1]

    monkeypatch.setattr(oracles, "max_run_exponent", recorded)
    slopes = [parse_slope(s) for s in ("[0;2,1,9,9,9,9,5]", "[0;2,1,9,9,9,9,5,(1)]",
                                       "[0;2,1,9,9,9,9,5,(7,2)]")]
    [result] = verify.run_suites(names=["critical-exponent"], slopes=slopes)
    assert result.passed, result.line()
    assert scans == [(Fraction(977, 88), 264)] * 3


@pytest.mark.parametrize("suite", ["conjugacy-intervals", "closest-multiples"])
def test_standard_family_suites_answer_what_a_truncation_cylinder_fixes(suite):
    # q_9 = 584 exceeds both suites' bounds, so a_1..a_9 fix every length
    # they visit: the truncation runs the same checks as its extensions.
    results = [verify.run_suites(names=[suite], slopes=[parse_slope(s)])[0]
               for s in ("[0;2,1,1,1,1,1,1,1,10]", "[0;2,1,1,1,1,1,1,1,10,(1)]",
                         "[0;2,1,1,1,1,1,1,1,10,(7,2)]")]
    assert all(r.passed for r in results), [r.line() for r in results]
    assert len({r.checks for r in results}) == 1


def test_fault_injection_is_detected(small_family):
    results = verify.run_suites(names=["power-classification"],
                                slopes=small_family[:1], n_max=10,
                                inject_fault="flip-gamma")
    assert not results[0].passed
    assert results[0].failures


def test_power_classification_fails_on_a_short_window(monkeypatch):
    # The gate scans each length in one `oracle_window` prefix with no
    # retry, so a window a quarter as long as the one it claims to need
    # must show up as failures.
    full = verify.oracle_window
    monkeypatch.setattr(verify, "oracle_window", lambda cf, n: max(n, full(cf, n) // 4))
    [result] = verify.run_suites(names=["power-classification"])
    assert not result.passed
    assert "scan" in result.failures[0]


def test_unknown_suite_and_fault_rejected(small_family):
    with pytest.raises(ValueError):
        verify.run_suites(names=["nope"], slopes=small_family)
    with pytest.raises(ValueError):
        verify.run_suites(slopes=small_family, inject_fault="zzz")


def test_default_family_has_twelve_slopes():
    family = verify.default_family()
    assert len(family) == 12
    assert len({str(cf) for cf in family}) == 12
    assert all(cf.quotient(1) in (2, 3) for cf in family)


def test_three_distance_takes_one_oracle_key_table_per_slope(monkeypatch):
    # The oracle orders every level n <= 500 from one table of reach 500.
    calls = []
    real = oracles.key_table

    def counting(cf, reach):
        calls.append((str(cf), reach))
        return real(cf, reach)

    monkeypatch.setattr(oracles, "key_table", counting)
    family = verify.default_family()
    [result] = verify.run_suites(names=["three-distance"], slopes=family)
    assert result.passed and result.checks == 5970
    assert calls == [(str(cf), 500) for cf in family]


def test_a_refused_suite_does_not_end_the_gate():
    # a_1..a_8 of this truncation cannot settle the critical-exponent suite's
    # 100,000-letter text; it is refused on its own line, with the message,
    # and the other seven still run.
    results = verify.run_suites(slopes=[parse_slope("[0;3,1,4,1,5,9,2,6]")])
    assert [r.name for r in results] == list(verify.SUITES)
    refused = {r.name: r.refusal for r in results if r.refusal is not None}
    assert refused == {
        "critical-exponent":
            "cannot certify a coding of length 100000 from index 1 for slope [0;3,1,4,1,5,9,2,6]",
    }
    for r in results:
        if r.refusal is None:
            assert r.passed and r.checks > 0, r.line()
        else:
            assert not r.passed and (r.checks, r.failures) == (0, [])
            assert r.line() == f"{r.name:<24} REFUSED  {r.refusal}"


@pytest.mark.parametrize("slope", ["[0;3,1,4,1,5,9,2,6]", "[0;3,1,4,1,5,9,2,6,(1)]",
                                   "[0;3,1,4,1,5,9,2,6,(9)]", "[0;3,1,4,1,5,9,2,6,(2,1)]"])
def test_a_truncation_scans_what_its_cylinder_fixes(slope):
    # The oracle windows need q_j and q_{j+1} with q_j <= N < q_{j+1}, which
    # a_1..a_8 fix, so the truncation and every periodic extension of it
    # give the same lines.
    results = verify.run_suites(names=["square-lengths", "power-classification"],
                                slopes=[parse_slope(slope)])
    assert [r.line() for r in results] == ["square-lengths           PASS  (1 checks)",
                                           "power-classification     PASS  (11475 checks)"]


def test_the_runner_counts_prefixes_caps_and_refuses(monkeypatch):
    # The suites only yield (ok, message); run_suites keeps the books.
    calls = []

    def failing(cf, **kwargs):
        calls.append(("failing", str(cf), kwargs))
        yield True, "unused"
        for i in range(12):
            yield False, f"check {i}"

    def refused(cf, **kwargs):
        calls.append(("refused", str(cf), kwargs))
        yield True, "unused"
        yield False, "unused"
        raise DepthExceededError("too shallow")

    monkeypatch.setitem(verify.SUITES, "power-classification", failing)
    monkeypatch.setitem(verify.SUITES, "three-distance", refused)
    slopes = [parse_slope(s) for s in ("[0;2,(1)]", "[0;3,(2)]", "[0;2,(3)]")]
    capped, shallow = verify.run_suites(names=["power-classification", "three-distance"],
                                        slopes=slopes, n_max=7, inject_fault="flip-gamma")
    # 12 failures on the first slope and 9 on the second make 21: the suite
    # stops at its 21st failure and never reaches the third slope.
    assert (capped.checks, len(capped.failures), capped.passed) == (13 + 10, 21, False)
    assert capped.failures[11:13] == ["[0;2,(1)]: check 11", "[0;3,(2)]: check 0"]
    assert capped.failures[-1] == "[0;3,(2)]: check 8"
    # A DepthError after some checks refuses the suite: no checks, no failures.
    assert (shallow.checks, shallow.failures, shallow.passed) == (0, [], False)
    assert shallow.line() == "three-distance           REFUSED  too shallow"
    # Only power-classification receives n_max and inject_fault.
    fault = {"n_max": 7, "inject_fault": "flip-gamma"}
    assert calls == [("failing", "[0;2,(1)]", fault), ("failing", "[0;3,(2)]", fault),
                     ("refused", "[0;2,(1)]", {})]


def test_a_formula_self_check_fails_its_slope_only(monkeypatch, capsys):
    # An AssertionError from a formula is a failure of that slope: the suite
    # goes on with the next slope, the other suites still run, and the CLI
    # exits 1 with no traceback.  Any other error but a DepthError (a
    # refusal) does the same, written with its type name.
    real = verify.conjugacy_report
    broken = parse_slope("[0;2,(1)]")
    slopes = [broken, parse_slope("[0;3,(2)]")]
    for error, kind in [(AssertionError, ""), (NotAFactorError, "NotAFactorError: "),
                        (ZeroDivisionError, "ZeroDivisionError: ")]:
        written = f"{kind}expected exactly one non-conjugate factor at k=2"

        def report(cf, k, l):
            if cf == broken:
                raise error(f"expected exactly one non-conjugate factor at k={k}")
            return real(cf, k, l)

        monkeypatch.setattr(verify, "conjugacy_report", report)
        conjugacy, three = verify.run_suites(names=["conjugacy-intervals", "three-distance"],
                                             slopes=slopes)
        assert conjugacy.failures == [f"[0;2,(1)]: {written}"]
        assert conjugacy.checks == 1 + sum(2 for _ in verify.semiconvergents(slopes[1], 150))
        assert conjugacy.line().startswith("conjugacy-intervals      FAIL  (")
        assert three.passed and three.checks > 0
        assert main(["verify", "--slope", "[0;2,(1)]"]) == 1
        out, err = capsys.readouterr()
        assert ("conjugacy-intervals      FAIL  (1 checks)\n"
                f"    [0;2,(1)]: {written}") in out
        assert "power-classification     PASS" in out
        assert out.endswith("VERIFICATION FAILED\n") and "Traceback" not in out + err


def test_a_memory_error_is_no_failure_of_one_slope(monkeypatch):
    # Out of memory, the gate cannot vouch for any later slope: it ends.
    def report(cf, k, l):
        raise MemoryError

    monkeypatch.setattr(verify, "conjugacy_report", report)
    with pytest.raises(MemoryError):
        verify.run_suites(names=["conjugacy-intervals"], slopes=[parse_slope("[0;2,(1)]")])
