"""The verification suites themselves: green on the family, red under fault."""

from __future__ import annotations

from fractions import Fraction

import math
import os
import re
import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sturmian import exactnum, oracles, repetitions, rotation, verify
from sturmian.cli import main
from sturmian.exactnum import ContinuedFraction, DepthExceededError, parse_slope
from sturmian.repetitions import (
    CriticalExponentResult,
    NotAFactorError,
    critical_exponent,
    recurrence_window,
)
from sturmian.rotation import characteristic_prefix
from sturmian.words import reversal, standard_word


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


@pytest.mark.parametrize("slope, passed", [("[0;2,(1)]", False), ("[0;3,(1)]", True)])
def test_cube_structure_admits_the_cube_root_0_only_when_a_1_is_3(monkeypatch, slope, passed):
    # A scan that reports the cube 000: a factor at a_1 = 3, not at a_1 = 2.
    roots = oracles.power_roots
    monkeypatch.setattr(oracles, "power_roots", lambda text, n_max, exponent:
                        roots(text, n_max, exponent) | ({"0"} if exponent == 3 else set()))
    [result] = verify.run_suites(names=["cube-structure"], slopes=[parse_slope(slope)])
    assert result.failures == ([] if passed else
                               [f"{slope}: cube root 0 not conjugate to a standard-family word"])


def test_cube_structure_sees_a_hidden_cube_at_length_q_1(monkeypatch):
    # a_2 = 2: the cube of reversed s_1 = 01 is a factor.  An interval
    # route that loses it fails the one cube rule, at k = 1 only.
    cf = parse_slope("[0;2,(2)]")
    cube = reversal(standard_word(cf, 1)) * 3
    real = verify.word_interval
    monkeypatch.setattr(verify, "word_interval",
                        lambda cf, w: None if w == cube else real(cf, w))
    [result] = verify.run_suites(names=["cube-structure"], slopes=[cf])
    assert result.failures == ["[0;2,(2)]: cube at length q_1: found False, the rule says True"]


def test_conjugacy_sees_two_conjugate_positions_swapped(monkeypatch):
    # Positions r - 1 and r - 2 of each class swapped: every tag still fits
    # its interval and conjugate q_{k-1} - 2 is still s_{k,l}, so only the
    # comparison with the shifts of the formula's reversed root sees it.
    real = repetitions._conjugate_positions

    def swapped(cf, n, root, fmap):
        r = len(root)
        return [{r - 1: r - 2, r - 2: r - 1}.get(i, i) for i in real(cf, n, root, fmap)]

    monkeypatch.setattr(repetitions, "_conjugate_positions", swapped)
    [result] = verify.run_suites(names=["conjugacy-intervals"], slopes=[parse_slope("[0;2,(1)]")])
    # Every class of [0;2,(1)] up to length 150, k = 2..10, fails.
    assert result.failures == [f"[0;2,(1)]: class ({k},1) is not the shifts of "
                               f"reversed s_({k},1) in order" for k in range(2, 11)]


@contextmanager
def _recorded_scans():
    """Record the (exponent, period) and the text length of every run scan;
    yields the monkeypatch with the two lists."""
    scans, lengths = [], []
    scan = oracles.max_run_exponent

    def recorded(text, max_period):
        lengths.append(len(text))
        scans.append(scan(text, max_period))
        return scans[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "max_run_exponent", recorded)
        yield mp, scans, lengths


def _scans(slopes):
    """The critical-exponent suite's result on `slopes`, with its scans."""
    with _recorded_scans() as (_, scans, lengths):
        [result] = verify.run_suites(names=["critical-exponent"], slopes=slopes)
    return result, scans, lengths


def test_critical_exponent_suite_scans_what_a_truncation_cylinder_codes():
    # hi = t_5 = 26717/2405 gives N = 13,331 and R(N) = N + q_5 + q_6 - 1 =
    # 37,644 letters, inside the 2*q_7 + q_6 - 2 that a_1..a_7 fix, so the
    # truncation scans the same runs as every slope in its cylinder.
    slopes = [parse_slope(s) for s in ("[0;2,1,9,9,9,9,5]", "[0;2,1,9,9,9,9,5,(1)]",
                                       "[0;2,1,9,9,9,9,5,(7,2)]")]
    result, scans, lengths = _scans(slopes)
    assert result.passed, result.line()
    assert scans == [(Fraction(977, 88), 264)] * 3
    assert lengths[0] == 37_644


def test_a_large_quotient_scans_its_longest_run():
    # A fixed 100,000-letter text saw only 83/2 at period 2 here; the text
    # sized by hi ~ 42.02 holds the exponent-42 run of period 81.
    result, scans, lengths = _scans([parse_slope("[0;2,(40)]")])
    assert result.passed, result.line()
    assert (scans, lengths) == ([(Fraction(42), 81)], [183_432])


def _assert_scans_a_longer_text(cf):
    result, scans, _ = _scans([cf])
    assert result.passed, result.line()
    longest = math.floor(critical_exponent(cf, 30).bounds()[1] * 1200) + 1
    text = characteristic_prefix(cf, recurrence_window(cf, 2 * longest))
    assert scans == [oracles.max_run_exponent(text, 1200)], cf


@pytest.mark.parametrize("slope", verify.DEFAULT_FAMILY)
def test_the_run_scan_sees_what_twice_its_text_sees(slope):
    # Once the bound holds, every run fits in N letters, so R(N) letters
    # give the same (exponent, period) as R(2N).
    _assert_scans_a_longer_text(parse_slope(slope))


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 10), st.lists(st.integers(1, 10), max_size=2),
       st.lists(st.integers(1, 10), min_size=1, max_size=3))
def test_the_run_scan_sees_what_twice_its_text_sees_on_any_periodic_slope(a_1, pre, period):
    _assert_scans_a_longer_text(ContinuedFraction(tuple([a_1, *pre]), tuple(period)))


@pytest.mark.parametrize("slope", ["[0;2,(1)]", "[0;3,(1,3)]", "[0;2,(40)]"])
def test_a_bound_too_low_sizes_a_text_that_refutes_it(slope):
    # Negative control: the scan text is sized by the bound under test, so
    # lowering that bound shrinks the text, yet the text still holds a run
    # that exceeds it.  Just below the true exponent the run refuting it is
    # the one that attains it.  The suite runs here without the runner's
    # cap of 21 failures, which the terms above a low bound would reach.
    cf = parse_slope(slope)
    _, [(observed, period)], _ = _scans([cf])
    for hi in (observed - Fraction(1, 10**6), Fraction(2)):
        with _recorded_scans() as (mp, scans, _):
            mp.setattr(CriticalExponentResult, "bounds", lambda self: (hi, hi))
            ok, message = list(verify.suite_critical_exponent(cf))[-1]
        [(found, at)] = scans
        assert not ok and found > hi
        if hi > 2:
            assert (found, at) == (observed, period)
        assert message == (f"scanned repetition of exponent {found} (period {at}) "
                           f"exceeds the supremum bound {hi}")


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


@pytest.mark.parametrize("slope, n_max, checks", [("[0;2,(40)]", 150, 11475),
                                                  ("[0;3,3,1,4,2,1,2]", 60, 1890)])
def test_power_classification_builds_and_scans_each_length_window(
        monkeypatch, slope, n_max, checks):
    # Each length builds exactly its own window and scans it for its own
    # words, with its layout's coding as the cover: nothing is built ahead
    # for later lengths, on a periodic slope with a large quotient or on a
    # truncation.
    cf = parse_slope(slope)
    built, scanned = [], []
    build, scan = verify.characteristic_prefix, oracles.max_powers

    def recorded_build(cf, length):
        text = build(cf, length)
        built.append(length)
        return text

    def recorded_scan(text, words, cover):
        n = len(words[0])
        factors = rotation.factor_interval_map(cf, n)
        assert (words, cover) == (factors.words, factors.coding), n
        scanned.append(len(text))
        return scan(text, words, cover)

    monkeypatch.setattr(verify, "characteristic_prefix", recorded_build)
    monkeypatch.setattr(oracles, "max_powers", recorded_scan)
    [result] = verify.run_suites(names=["power-classification"], slopes=[cf], n_max=n_max)
    assert result.line() == f"power-classification     PASS  ({checks} checks)"
    windows = [verify.oracle_window(cf, n) for n in range(1, n_max + 1)]
    assert built == scanned == windows


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
    assert result.passed and result.checks == 6000
    assert calls == [(str(cf), 500) for cf in family]


def test_three_distance_gate_checks_the_levels_up_to_a_1(monkeypatch):
    # A wrong count at the levels n <= a_1 (k = 1) alone fails the suite,
    # once per such level.
    real = verify.three_distance

    def miscounted(cf, n):
        summary = real(cf, n)
        if n > cf.quotient(1):
            return summary
        (count, form), *rest = summary.gaps
        return summary._replace(gaps=((count + 1, form), *rest))

    monkeypatch.setattr(verify, "three_distance", miscounted)
    [result] = verify.run_suites(names=["three-distance"], slopes=[parse_slope("[0;5,(1,7)]")])
    assert result.checks == 500
    assert [re.search(r"gap counts at n=(\d+):", f)[1] for f in result.failures] == [
        "1", "2", "3", "4", "5"]


def test_power_classification_builds_each_map_once_and_rereads_it_twice():
    # indices_by_position builds the length's factor map, and
    # indices_by_interval and the scan's words and cover read it back: the
    # re-reads the map cache is sized by.
    rotation.factor_interval_map.cache_clear()
    [result] = verify.run_suites(names=["power-classification"],
                                 slopes=[parse_slope("[0;2,(1,2)]")], n_max=30)
    assert result.passed
    info = rotation.factor_interval_map.cache_info()
    assert (info.misses, info.hits) == (30, 60)


def test_a_refused_suite_does_not_end_the_gate():
    # The critical-exponent suite's text is R(N) at N = 13,389, which needs
    # q_8: a_1..a_7 of this truncation cannot name it.  The suite is refused
    # on its own line, with the message, and the other seven still run.
    results = verify.run_suites(slopes=[parse_slope("[0;3,1,4,1,5,9,2]")])
    assert [r.name for r in results] == list(verify.SUITES)
    refused = {r.name: r.refusal for r in results if r.refusal is not None}
    assert refused == {
        "critical-exponent": "quotient a_8 requested but expansion is only valid to depth 7",
    }
    for r in results:
        if r.refusal is None:
            assert r.passed and r.checks > 0, r.line()
        else:
            assert not r.passed and (r.checks, r.failures) == (0, [])
            assert r.line() == f"{r.name:<24} REFUSED  {r.refusal}"
    # A length whose interval formula the cylinder cannot settle refuses
    # power-classification with the formula's message, before its window
    # is built.
    for slope, form in [("[0;5,2,7]", "6a-1/11a-2"), ("[0;2,2,1,3]", "-2a+1/-7a+3")]:
        [r] = verify.run_suites(names=["power-classification"], slopes=[parse_slope(slope)])
        assert r.line() == (f"power-classification     REFUSED  "
                            f"floor({form}) undecided for slope {slope}")


@pytest.mark.parametrize("slope", ["[0;3,1,4,1,5,9,2,6]", "[0;3,1,4,1,5,9,2,6,(1)]",
                                   "[0;3,1,4,1,5,9,2,6,(9)]", "[0;3,1,4,1,5,9,2,6,(2,1)]"])
def test_a_truncation_scans_what_its_cylinder_fixes(slope):
    # The oracle windows need q_j and q_{j+1} with q_j <= N < q_{j+1}, which
    # a_1..a_8 fix, so the truncation and every periodic extension of it
    # give the same lines and find the same longest run.  On the
    # truncation hi = t_5 = 1495/134, and R(13,389) = 32,761 letters read
    # only q_7 and q_8; a_1..a_8 fix 36,152.
    results = verify.run_suites(names=["square-lengths", "power-classification"],
                                slopes=[parse_slope(slope)])
    assert [r.line() for r in results] == ["square-lengths           PASS  (1 checks)",
                                           "power-classification     PASS  (11475 checks)"]
    result, scans, lengths = _scans([parse_slope(slope)])
    assert result.passed, result.line()
    assert scans == [(Fraction(1495, 134), 134)]
    if slope == "[0;3,1,4,1,5,9,2,6]":
        assert (result.line(), lengths) == ("critical-exponent        PASS  (12 checks)", [32_761])


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
    # The line says that the runner stopped the suite: 16 more is not a total.
    assert capped.line().splitlines()[-1] == "    ... and 16 more (stopped at the 21st failure)"
    # A DepthError after some checks refuses the suite: no checks, no failures.
    assert (shallow.checks, shallow.failures, shallow.passed) == (0, [], False)
    assert shallow.line() == "three-distance           REFUSED  too shallow"
    # A result is the tuple of its fields, and it is immutable.
    assert shallow == ("three-distance", 0, shallow.seconds, [], "too shallow")
    with pytest.raises(AttributeError):
        shallow.refusal = None
    # Only power-classification receives n_max and inject_fault.
    fault = {"n_max": 7, "inject_fault": "flip-gamma"}
    assert calls == [("failing", "[0;2,(1)]", fault), ("failing", "[0;3,(2)]", fault),
                     ("refused", "[0;2,(1)]", {})]
    # A suite that ends below the cap, here with 12 failures, keeps the plain count.
    (whole,) = verify.run_suites(names=["power-classification"], slopes=slopes[:1], n_max=7)
    assert (len(whole.failures), whole.line().splitlines()[-1]) == (12, "    ... and 7 more")
    assert verify.SuiteResult("s", 20, 0.0, ["f"] * 20).line().endswith("\n    ... and 15 more")


def test_an_item_of_n_passes_keeps_the_books_of_n_single_checks(monkeypatch):
    # A suite may yield (n, "") for n passing checks.  Mixed with failures,
    # it gives the result of the same stream yielded one check at a time,
    # through the stop at the 21st failure on the second slope.
    def batched(cf, **kwargs):
        for i in range(15):
            yield 3 + i, ""
            yield False, f"check {i}"
            yield True, "unused"

    def single(cf, **kwargs):
        for ok, message in batched(cf):
            yield from [(ok, message)] if type(ok) is bool else [(True, "")] * ok

    slopes = [parse_slope(s) for s in ("[0;2,(1)]", "[0;3,(2)]", "[0;2,(3)]")]
    for some in slopes[:1], slopes:
        monkeypatch.setitem(verify.SUITES, "power-classification", batched)
        got = verify.run_suites(names=["power-classification"], slopes=some)
        monkeypatch.setitem(verify.SUITES, "power-classification", single)
        want = verify.run_suites(names=["power-classification"], slopes=some)
        assert _answers(got) == _answers(want)
        assert [r.line() for r in got] == [r.line() for r in want]
    # 180 checks on the first slope; on the second, six items of 3..8
    # passes, six failures and the five single passes between them.
    assert (got[0].checks, len(got[0].failures)) == (180 + 33 + 6 + 5, 21)
    assert got[0].failures[-1] == "[0;3,(2)]: check 5"
    assert got[0].line().endswith("(stopped at the 21st failure)")


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


# ------------------------------------------------------------------
# one depth cap per run: the query context
# ------------------------------------------------------------------

@pytest.mark.parametrize("value, message", [
    ("zzz", "STURM_DEPTH_LIMIT must be an integer, got 'zzz'"),
    ("1", "STURM_DEPTH_LIMIT must be at least 2, got 1"),
])
def test_query_a_bad_cap_is_refused_once_when_the_run_opens(monkeypatch, small_family,
                                                            value, message):
    # One ValueError, as for n_max < 1, before any suite runs: not one
    # failure per slope in each suite.
    calls = []
    monkeypatch.setitem(verify.SUITES, "best-approximations",
                        lambda cf: iter(calls.append(cf) or ()))
    monkeypatch.setenv("STURM_DEPTH_LIMIT", value)
    with pytest.raises(ValueError, match=re.escape(message)):
        verify.run_suites(names=["best-approximations"], slopes=small_family)
    assert calls == []


def test_query_a_run_that_raises_leaves_no_cap_behind(monkeypatch, small_family):
    monkeypatch.setenv("STURM_DEPTH_LIMIT", "64")
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suites(names=["best-approximations", "nope"], slopes=small_family)
    # Outside any query the cap is read on every call again.
    assert exactnum._QUERY_CAP.get() is None
    monkeypatch.setenv("STURM_DEPTH_LIMIT", "4")
    assert exactnum.depth_limit() == 4 == small_family[0].max_depth()


def test_query_a_run_inside_an_open_query_keeps_its_cap(monkeypatch, small_family):
    # run_suites opens a query only when none is open: inside one, it reads
    # neither the environment nor a cap of its own.
    monkeypatch.setenv("STURM_DEPTH_LIMIT", "64")
    with exactnum.query():
        monkeypatch.setenv("STURM_DEPTH_LIMIT", "zzz")
        [result] = verify.run_suites(names=["three-distance"], slopes=small_family[:1])
        assert exactnum.depth_limit() == 64
    assert result.passed and result.checks == 500
    assert exactnum._QUERY_CAP.get() is None


def _answers(results: list[verify.SuiteResult]) -> list[verify.SuiteResult]:
    return [r._replace(seconds=0.0) for r in results]


def test_query_threads_keep_their_runs_cap_while_another_lowers_it(monkeypatch):
    # More runs than cores, preempted every microsecond, each opened under
    # cap 64.  Once every run is inside its first suite, another thread sets
    # cap 4, which refuses both suites; every run still answers as a serial
    # run does.
    slopes = [parse_slope("[0;2,(1)]"), parse_slope("[0;3,(1,2)]")]
    names = ["best-approximations", "three-distance"]
    monkeypatch.setenv("STURM_DEPTH_LIMIT", "4")
    lowered = _answers(verify.run_suites(names=names, slopes=slopes))
    monkeypatch.setenv("STURM_DEPTH_LIMIT", "64")
    serial = _answers(verify.run_suites(names=names, slopes=slopes))
    assert all(r.passed for r in serial) and all(r.refusal for r in lowered)

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    runners = min(cores or 1, 32) + 1
    inside = threading.Barrier(runners + 1)
    real = verify.SUITES["best-approximations"]

    def held(cf):
        if cf is slopes[0]:
            inside.wait(timeout=60)  # every run has opened its query
            inside.wait(timeout=60)  # and the cap is now 4
        yield from real(cf)

    def lower() -> None:
        inside.wait(timeout=60)
        os.environ["STURM_DEPTH_LIMIT"] = "4"
        inside.wait(timeout=60)

    answers: list = [None] * runners

    def run(t: int) -> None:
        answers[t] = _answers(verify.run_suites(names=names, slopes=slopes))

    monkeypatch.setitem(verify.SUITES, "best-approximations", held)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(runners)]
        threads.append(threading.Thread(target=lower))
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(th.is_alive() for th in threads)
    assert os.environ["STURM_DEPTH_LIMIT"] == "4"
    assert answers == [serial] * runners


# ------------------------------------------------------------------
# power-classification: whole-length agreement, else the per-word loop
# ------------------------------------------------------------------

def reference_power_classification(cf: ContinuedFraction, n_max: int,
                                   inject_fault: str | None):
    """The suite as a per-word loop over every length, with no whole-length
    comparison, on `classify_length`'s reports and a scan with no cover:
    the messages and checks the suite must reproduce."""
    for n in range(1, n_max + 1):
        try:
            reports = repetitions.classify_length(cf, n)
        except AssertionError as exc:
            yield False, str(exc)
            continue
        formulas = verify.indices_by_interval(cf, n)
        if inject_fault == "flip-gamma":
            factors = verify.factor_interval_map(cf, n)
            dist = verify.distance(cf, n)
            formulas = [index + (1 if factors.lengths[d] == dist else -1)
                        for index, d in zip(formulas, factors.gaps)]
        window = verify.characteristic_prefix(cf, verify.oracle_window(cf, n))
        scans = oracles.max_powers(window, [r.word for r in reports])
        for report, formula, scanned in zip(reports, formulas, scans, strict=True):
            w, case = report.word, report.integer_index
            if case == formula:
                ok = scanned == formula
                yield ok, ("" if ok else
                           f"n={n} {w}: case index {case}, formula {formula}, scan {scanned}")
            else:
                yield False, f"n={n} {w}: case index {case} != formula {formula}"


def test_power_classification_fails_as_the_per_word_loop_does(monkeypatch, small_family):
    # A scan that misreports one word of length 7, and flip-gamma, give the
    # failure lines and check counts of the per-word loop.
    scan = oracles.max_powers

    def misreported(text, words, cover=""):
        scans = scan(text, words, cover)
        if len(words[0]) == 7:
            scans[words.index(sorted(words)[3])] += 1
        return scans

    # 350 words of lengths 1..25 per slope; flip-gamma fails every word and
    # stops the suite at its 21st failure.
    for patch, fault, books in [(scan, None, (1050, 0)), (misreported, None, (1050, 3)),
                                (scan, "flip-gamma", (21, 21))]:
        with monkeypatch.context() as mp:
            mp.setattr(oracles, "max_powers", patch)
            got = verify.run_suites(names=["power-classification"], slopes=small_family,
                                    n_max=25, inject_fault=fault)
            mp.setitem(verify.SUITES, "power-classification", reference_power_classification)
            want = verify.run_suites(names=["power-classification"], slopes=small_family,
                                     n_max=25, inject_fault=fault)
        assert _answers(got) == _answers(want), fault
        assert [r.line() for r in got] == [r.line() for r in want]
        assert (got[0].checks, len(got[0].failures)) == books
