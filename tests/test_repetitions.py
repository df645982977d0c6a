"""Tests for the power classification, squares, conjugacy, and critical exponent."""

from __future__ import annotations

import inspect
import itertools
import math
import random
import re
import sys
import textwrap
import threading
import tracemalloc
from fractions import Fraction
from typing import Iterable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILY_SLOPES, periodic_tail_surd
from sturmian import oracles, repetitions, rotation
from sturmian.cli import main
from sturmian.exactnum import (
    ContinuedFraction,
    DepthError,
    DepthExceededError,
    LinearForm,
    _ctx,
    convergent,
    distance,
    floor_ratio,
    parse_slope,
    semiconvergents,
)
from sturmian.repetitions import (
    IndexReport,
    NotAFactorError,
    classify_length,
    classify_word,
    conjugacy_report,
    critical_exponent,
    fractional_index,
    indices_by_interval,
    indices_by_position,
    index_by_interval,
    index_oracle,
    length_case,
    oracle_window,
    recurrence_window,
    square_lengths,
)
from sturmian.rotation import (
    characteristic_prefix,
    factor_interval_map,
    factors_of_length,
    key_table,
    language_extension,
    word_interval,
)
from sturmian.words import check_word, reversal, standard_word


# ------------------------------------------------------------------
# integer index
# ------------------------------------------------------------------

def test_index_formula_examples(example_slope, fib_slope):
    assert index_by_interval(example_slope, "10010") == 2
    assert index_by_interval(example_slope, "0") == 2  # index of 0 is a_1
    assert index_by_interval(fib_slope, "010") == 3    # a_3 + 2


def test_index_formula_rejects_non_factors(example_slope):
    with pytest.raises(NotAFactorError):
        index_by_interval(example_slope, "11")
    with pytest.raises(NotAFactorError):
        index_by_interval(example_slope, "")


def test_index_oracle_examples(example_slope, fib_slope):
    assert index_oracle(example_slope, "00") == 1      # 0^{a_1}
    assert index_oracle(example_slope, "1") == 1       # 11 never occurs
    assert index_oracle(fib_slope, "010") == 3


def test_index_formula_matches_oracle_small_sweep(family):
    for cf in family[:4]:
        for n in range(1, 30):
            for w, _ in factors_of_length(cf, n):
                assert index_by_interval(cf, w) == index_oracle(cf, w)


def _recurrence(cf: ContinuedFraction, n: int) -> int:
    """R(n) = n + q_j + q_{j+1} - 1 for q_j <= n < q_{j+1}, on `_ctx`'s q_j."""
    ctx = _ctx(cf)
    j = 0
    while ctx.pair(j + 1)[1] <= n:
        j += 1
    return n + ctx.pair(j)[1] + ctx.pair(j + 1)[1] - 1


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.lists(st.integers(1, 6), max_size=2),
       st.lists(st.integers(1, 6), min_size=1, max_size=3))
def test_every_factor_occurs_in_every_recurrence_window(a_1, pre, period):
    # Morse-Hedlund: every R(n) consecutive letters of c_alpha hold every
    # factor of length n.  Checked here on a long prefix: each factor first
    # occurs within the first R(n) letters, recurs with gaps of at most
    # R(n) - n + 1, and occurs in the last R(n) letters.
    cf = ContinuedFraction(tuple([a_1, *pre]), tuple(period))
    text = characteristic_prefix(cf, 2500)
    for n in range(1, 60):
        window = _recurrence(cf, n)
        assert recurrence_window(cf, n) == window
        assert 4 * window <= len(text)
        starts: dict[str, list[int]] = {}
        for i in range(len(text) - n + 1):
            starts.setdefault(text[i:i + n], []).append(i)
        assert len(starts) == n + 1
        for w, found in starts.items():
            assert found[0] <= window - n, (cf, n, w)
            assert max(b - a for a, b in zip([found[0], *found], found)) <= window - n + 1
            assert found[-1] >= len(text) - window, (cf, n, w)
    # The gate's window is R(N) at the longest pattern N = (a_{k+1} + 3)*n.
    for n in range(1, 15):
        k = max(j for j in range(n + 1) if _ctx(cf).pair(j)[1] <= n)
        assert oracle_window(cf, n) == _recurrence(cf, (cf.quotient(k + 1) + 3) * n)


def test_level_brackets_each_length_between_convergents(family):
    # `_level` reads k off the three-distance decomposition; the q_k here
    # come from `convergent` alone.
    for cf in family:
        for n in range(1, 2001):
            k = repetitions._level(cf, n)
            assert convergent(cf, k).q <= n < convergent(cf, k + 1).q, (str(cf), n)


@settings(max_examples=35, deadline=None)
@given(st.integers(2, 6), st.lists(st.integers(1, 6), max_size=5))
def test_recurrence_window_refuses_a_quotient_past_the_truncation(a_1, rest):
    # R(n) needs q_{j+1} for q_j <= n < q_{j+1}: a truncation [0;a_1..a_m]
    # answers below q_m, as every extension of its cylinder does, and from
    # q_m on asks for a_{m+1}.
    pre = (a_1, *rest)
    m, cf = len(pre), ContinuedFraction(pre)
    q_prev, q_m = convergent(cf, m - 1).q, convergent(cf, m).q
    message = f"quotient a_{m + 1} requested but expansion is only valid to depth {m}"
    extensions = [ContinuedFraction(pre, (a,)) for a in (1, 7)]
    for n in range(1, q_m + q_prev + 2):
        if n >= q_m:
            with pytest.raises(DepthExceededError, match=re.escape(message)):
                recurrence_window(cf, n)
        else:
            assert {recurrence_window(cf, n)} == {recurrence_window(ext, n) for ext in extensions}


def _direct_indices(cf, n) -> dict[str, int | None]:
    """The formula evaluated from scratch for each factor alone (None where
    a truncation refuses it)."""
    out = {}
    for w, interval in factors_of_length(cf, n):
        try:
            dist = distance(cf, n)
            gamma = 0 if interval.length == dist else 1
            out[w] = gamma + floor_ratio(cf, interval.length, dist)
        except DepthError:
            out[w] = None
    return out


def test_indices_by_interval_match_direct_formula(family):
    # One formula evaluation per interval length must give, for every
    # factor, what the formula gives for that factor alone.  Entry t of both
    # whole-length routes is the layout's word t: the gate zips them.
    for cf in family:
        for n in range(1, 61):
            words = factor_interval_map(cf, n).words
            indices = indices_by_interval(cf, n)
            assert [r.word for r in classify_length(cf, n)] == words, (cf, n)
            assert len(indices) == len(words) == n + 1
            for t, index in enumerate(indices):
                assert index_by_interval(cf, words[t]) == index, (cf, n, t)
            if cf in (family[0], family[5], family[10]):
                assert dict(zip(words, indices)) == _direct_indices(cf, n), (cf, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(1, 5), min_size=1, max_size=11))
def test_indices_by_interval_on_drawn_truncations(a_1, rest):
    # On a truncation the map answers exactly when every factor's formula
    # answers, and then gives the same indices.
    cf = ContinuedFraction((a_1, *rest))
    for n in range(1, 41):
        try:
            direct = _direct_indices(cf, n)
        except DepthError:  # no certified factor map at this length
            continue
        if None in direct.values():
            with pytest.raises(DepthError):
                indices_by_interval(cf, n)
        else:
            assert indices_by_interval(cf, n) == list(direct.values()), (str(cf), n)


def test_indices_by_position_are_the_reports_indices(family):
    # The gate's positional route: the indices of `classify_length`, in
    # its order, at every length the gate checks.
    for cf in family:
        for n in range(1, 151):
            assert indices_by_position(cf, n) == [
                r.integer_index for r in classify_length(cf, n)], (str(cf), n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(1, 5), min_size=1, max_size=11))
def test_indices_by_position_on_drawn_truncations(a_1, rest):
    # On a truncation both routes answer alike or refuse alike, with the
    # same error and message.
    cf = ContinuedFraction((a_1, *rest))
    for n in range(1, 41):
        answers = []
        for route in (indices_by_position,
                      lambda cf, n: [r.integer_index for r in classify_length(cf, n)]):
            try:
                answers.append(route(cf, n))
            except (DepthError, AssertionError) as exc:
                answers.append((type(exc), str(exc)))
        assert answers[0] == answers[1], (str(cf), n)


# ------------------------------------------------------------------
# classification by length
# ------------------------------------------------------------------

def test_case_tags_examples(example_slope, fib_slope):
    assert length_case(example_slope, 1)[0] == "i"
    assert length_case(example_slope, 2)[0] == "ii"
    assert length_case(fib_slope, 3)[0] == "iii"
    assert length_case(example_slope, 5)[0] == "iv"
    assert length_case(parse_slope("[0;2,(3)]"), 4)[0] == "v"
    assert length_case(parse_slope("[0;2,(2)]"), 10)[0] == "vi"
    assert length_case(example_slope, 7)[0] == "vii"


@pytest.mark.parametrize("slope, n, tag, pattern", [
    ("[0;5,(1)]", 2, "i", ("10", 0, 1, 1, 2)),
    ("[0;2,(1,2)]", 2, "ii", ("10", 0, 3, 2, 1)),
    ("[0;2,(1)]", 3, "iii", ("010", 1, 3, 2, 1)),
    ("[0;2,(1,2)]", 5, "iv", ("10010", 2, 2, 1, 1)),
    ("[0;2,(3)]", 4, "v", ("10", 0, 2, 2, 1)),
    ("[0;2,(2)]", 10, "vi", ("01010", 1, 2, 1, 1)),
    ("[0;2,(1,2)]", 7, "vii", ("", 0, 1, 1, 1)),
])
def test_length_case_patterns(slope, n, tag, pattern):
    # (root, split, first, rest, other) of one length per case.
    assert length_case(parse_slope(slope), n) == (tag, pattern)


@settings(max_examples=35, deadline=None)
@given(st.integers(2, 6), st.lists(st.integers(1, 6), max_size=4))
@pytest.mark.parametrize("slope, n, k", [("[0;2]", 2, 2), ("[0;2,1,1]", 5, 4), ("[0;2,3]", 7, 3)])
def test_length_case_refuses_a_quotient_past_the_truncation(slope, n, k, a_1, rest):
    # Case ii at a_1 of a depth-1 truncation, and case iii at n = q_m of a
    # depth-m one, need a_k for their pattern.
    cf = parse_slope(slope)
    message = f"quotient a_{k} requested but expansion is only valid to depth {k - 1}"
    for fn in (length_case, classify_length):
        with pytest.raises(DepthExceededError, match=message):
            fn(cf, n)
    # The rule on a drawn truncation [0;a_1..a_m]: n >= a_1 needs a_{m+1}
    # exactly at n = q_m and from q_m + q_{m-1} on; below, the answer holds
    # for every extension of the cylinder.
    pre = (a_1, *rest)
    m, cf = len(pre), ContinuedFraction(pre)
    q_prev, q_m = convergent(cf, m - 1).q, convergent(cf, m).q
    message = f"quotient a_{m + 1} requested but expansion is only valid to depth {m}"
    extensions = [ContinuedFraction(pre, (a,)) for a in (1, 7)]
    for n in range(1, 2 * q_m + q_prev + 1):
        if n >= a_1 and (n == q_m or n >= q_m + q_prev):
            with pytest.raises(DepthExceededError, match=re.escape(message)):
                length_case(cf, n)
        else:
            assert {length_case(cf, n)} == {length_case(ext, n) for ext in extensions}, (pre, n)


def test_classify_worked_example(example_slope):
    reports = {r.word: r for r in classify_length(example_slope, 5)}
    assert len(reports) == 6
    assert all(r.case_tag == "iv" for r in reports.values())
    assert reports["10010"].integer_index == 2
    assert reports["01001"].integer_index == 2
    assert reports["10010"].conjugate_position == 0
    assert reports["01001"].conjugate_position == 1
    for w in ("00100", "00101", "01010", "10100"):
        assert reports[w].integer_index == 1


def test_classify_convergent_length(fib_slope):
    reports = {r.word: r for r in classify_length(fib_slope, 3)}
    assert sorted(r.integer_index for r in reports.values()) == [1, 2, 2, 3]
    assert reports["010"].integer_index == 3  # reversed s_2 = 010, position 0
    assert reports["101"].integer_index == 1  # the non-conjugate factor


def test_classify_short_lengths():
    cf = parse_slope("[0;3,(1)]")
    reports = {r.word: r for r in classify_length(cf, 1)}
    assert reports["0"].integer_index == 3
    assert reports["1"].integer_index == 1
    reports = {r.word: r for r in classify_length(cf, 2)}
    assert reports["00"].integer_index == 1
    assert reports["10"].integer_index == 1


def test_classify_multiple_lengths():
    cf = parse_slope("[0;2,(3)]")  # a_2 = 3 allows m = 2, 3 at q_1 = 2
    reports = classify_length(cf, 4)
    assert all(r.case_tag == "v" for r in reports)
    by_word = {r.word: r for r in reports}
    assert by_word["1010"].integer_index == 2  # floor((a_2 + 1)/2)
    assert by_word["0101"].integer_index == 2
    cf2 = parse_slope("[0;2,(2)]")  # q_2 = 5, a_3 = 2: n = 10 is case vi
    reports2 = {r.word: r for r in classify_length(cf2, 10)}
    base = reversal(standard_word(cf2, 2)) * 2
    assert reports2[base].integer_index == 2  # floor((a_3 + 2)/2)
    ones = [r for r in reports2.values() if r.integer_index == 1]
    assert len(ones) == 10


def test_classify_matches_formula_and_oracle(family):
    for cf in family[:3]:
        for n in range(1, 40):
            for report in classify_length(cf, n):
                formula = index_by_interval(cf, report.word)
                assert report.integer_index == formula, (cf, n, report)
                assert index_oracle(cf, report.word) == formula


def test_classify_with_fractional(fib_slope):
    reports = classify_length(fib_slope, 3, with_fractional=True)
    by_word = {r.word: r for r in reports}
    assert by_word["010"].fractional_index == 3
    for r in reports:
        assert r.fractional_index is not None
        assert 0 <= r.fractional_index - r.integer_index < 1


def classify_each_word(cf, n) -> list[IndexReport]:
    """The single-word route, `classify_word`, on every factor of length n."""
    return [classify_word(cf, w) for w in factor_interval_map(cf, n).words]


@pytest.mark.parametrize("classify", [classify_length, classify_each_word], ids=["length", "word"])
@pytest.mark.parametrize("root", ["11", "1010"])
def test_classify_refuses_a_root_without_distinct_factor_shifts(monkeypatch, fib_slope, root,
                                                                 classify):
    # 11 is not a factor, so no end block passes; 1010 is not primitive.
    # A single word runs the same self-check as its whole length.
    case = repetitions.length_case
    monkeypatch.setattr(repetitions, "length_case",
                        lambda cf, n: (case(cf, n)[0], (root, 0, 1, 1, 1)))
    with pytest.raises(AssertionError, match="not distinct factors"):
        classify(fib_slope, len(root))


def test_classify_word_refuses_a_primitive_root_outside_the_language(monkeypatch, fib_slope):
    # 110 is primitive but no factor, so no end block of the length-3
    # coding is its class.  101 is one of its shifts: the per-word rule
    # placed it at position 2, while the block rule refuses one word as it
    # refuses the whole length.
    case = repetitions.length_case
    monkeypatch.setattr(repetitions, "length_case",
                        lambda cf, n: (case(cf, n)[0], ("110", 0, 1, 1, 1)))
    assert reference_conjugate_positions(3, "110", ["101"]) == [2]
    for classify in (classify_length, classify_each_word):
        with pytest.raises(AssertionError, match="not distinct factors"):
            classify(fib_slope, 3)
    with pytest.raises(AssertionError, match="not distinct factors"):
        classify_word(fib_slope, "101")


def reference_conjugate_positions(n: int, root: str, words: Iterable[str]) -> list[int | None]:
    """The per-word rule that the block rule replaced, kept as its
    reference: w is C^i(root)^m, n = m*|root|, when w[:|root|] first occurs
    at -i mod |root| in root + root and w is m copies of it."""
    r, doubled = len(root), root * 2
    m = n // r if root else 1
    return [-j % r if root and (j := doubled.find(w[:r])) >= 0 and w == w[:r] * m else None
            for w in words]


def assert_positions_match_the_reference(cf: ContinuedFraction, n: int) -> int:
    """The conjugate positions of `classify_length` and of `classify_word`
    on each factor of length n against the per-word rule; returns the
    number of words compared.  A truncation's refusal of the length, or of
    one word's exit table, skips it."""
    try:
        _, (root, *_) = length_case(cf, n)
        reports = classify_length(cf, n)
    except DepthError:
        return 0
    words = [r.word for r in reports]
    expected = reference_conjugate_positions(n, root, words)
    assert [r.conjugate_position for r in reports] == expected, (str(cf), n)
    compared = 0
    for w, position in zip(words, expected):
        try:
            report = classify_word(cf, w)
        except DepthError:
            continue
        assert report.conjugate_position == position, (str(cf), w)
        compared += 1
    return compared


def test_block_rule_matches_the_per_word_rule(family):
    # Both ends of the class's block: at n = q_10 = 144 of [0;2,(1)] the
    # class sits at left indices 0..r-1, at q_11 = 233 at n - r + 1..n.
    for cf in family:
        for n in range(1, 41):
            assert_positions_match_the_reference(cf, n)
    for n, block in ((144, range(144)), (233, range(1, 234))):
        assert assert_positions_match_the_reference(family[0], n) == n + 1
        reports = classify_length(family[0], n)
        lefts = factor_interval_map(family[0], n).lefts
        assert {i for i, r in zip(lefts, reports) if r.conjugate_position is not None} == set(block)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.lists(st.integers(1, 40), max_size=3),
       st.lists(st.integers(1, 40), min_size=1, max_size=3), st.booleans(), st.data())
def test_block_rule_matches_the_per_word_rule_on_drawn_slopes(a_1, preperiod, period,
                                                             truncated, data):
    # A length with a root (every case but vii), n <= 400.
    quotients = (a_1, *preperiod)
    cf = (ContinuedFraction((*quotients, *period)) if truncated
          else ContinuedFraction(quotients, tuple(period)))
    lengths = []
    for n in range(1, 401):
        try:
            if length_case(cf, n)[1][0]:
                lengths.append(n)
        except DepthError:
            continue
    assert_positions_match_the_reference(cf, data.draw(st.sampled_from(lengths)))


# Each mutant edits one clause of `_conjugate_positions`: the low block
# read one left index up (1..r), the offset j one off, and a block passing
# on its period alone (at n = 1, root 1, both one-letter blocks pass).
BLOCK_RULE_MUTANTS = {
    "block-shifted": ("(r - 1, coding[n - r + 1:])", "(r, coding[n - r:-1])"),
    "offset-off-by-one": ("(i - top - j) % r", "(i - top - j + 1) % r"),
    "period-without-find": ("(j := doubled.find(block[:r])) >= 0",
                            "(j := doubled.find(block[:r])) >= -1"),
}


@pytest.mark.parametrize("clause, mutated", BLOCK_RULE_MUTANTS.values(), ids=BLOCK_RULE_MUTANTS)
def test_block_rule_mutants_are_caught(monkeypatch, family, clause, mutated):
    source = textwrap.dedent(inspect.getsource(repetitions._conjugate_positions))
    assert source.count(clause) == 1
    namespace = dict(vars(repetitions))
    exec(source.replace(clause, mutated), namespace)
    monkeypatch.setattr(repetitions, "_conjugate_positions", namespace["_conjugate_positions"])
    with pytest.raises(AssertionError):
        for cf in family:
            for n in range(1, 41):
                assert_positions_match_the_reference(cf, n)


@pytest.mark.parametrize("classify", [lambda cf, n: classify_length(cf, n, with_fractional=True),
                                      classify_each_word], ids=["length", "word"])
def test_classify_with_fractional_refuses_a_wrong_index(monkeypatch, fib_slope, classify):
    # Length 3 is case iii with first = 3 and rest = 2: flipping them gives
    # positional indices that the fractional indices' floors contradict.
    case = repetitions.length_case

    def flipped(cf, n):
        tag, (root, split, first, rest, other) = case(cf, n)
        return tag, (root, split, rest, first, other)

    monkeypatch.setattr(repetitions, "length_case", flipped)
    classify_length(fib_slope, 3)  # without fractional indices nothing checks
    with pytest.raises(AssertionError, match="fractional index"):
        classify(fib_slope, 3)


def test_classify_with_fractional_refuses_a_late_exit(monkeypatch, family):
    # The exit side of the same check: one period late, every floor
    # (t - 1) // n is one above the positional index.
    exits = repetitions._exits
    monkeypatch.setattr(repetitions, "_exits",
                        lambda cf, n, windows, reach: [t + n for t in exits(cf, n, windows, reach)])
    for cf in family:
        with pytest.raises(AssertionError, match="fractional index"):
            for n in range(1, 21):
                classify_length(cf, n, with_fractional=True)


def test_classify_with_fractional_names_the_one_late_word(monkeypatch, family):
    # One word's exit a period late: the floors are compared as one list,
    # and the refusal still names that word, with its tag, positional index
    # and the fractional index one above its own.
    exits = repetitions._exits
    for cf in family[:4]:
        for n in (3, 5, 8):
            reports = classify_length(cf, n, with_fractional=True)
            for late, r in enumerate(reports):
                monkeypatch.setattr(repetitions, "_exits", lambda cf, n, windows, reach: [
                    t + n * (j == late) for j, t in enumerate(exits(cf, n, windows, reach))])
                with pytest.raises(AssertionError) as refused:
                    classify_length(cf, n, with_fractional=True)
                assert str(refused.value) == (
                    f"case {r.case_tag}: {r.word!r} has index {r.integer_index} but "
                    f"fractional index {r.fractional_index + 1} for {cf}")
            monkeypatch.setattr(repetitions, "_exits", exits)


@pytest.mark.parametrize("classify", [classify_length,
                                      lambda cf, n: classify_length(cf, n, with_fractional=True),
                                      classify_each_word], ids=["length", "fractional", "word"])
def test_reports_are_built_as_index_reports(family, classify):
    # The reports are filled by tuple.__new__, not by calling the class:
    # each must still be the tuple the class builds from the same fields.
    for cf in family[:3]:
        for n in range(1, 13):
            for r in classify(cf, n):
                built = IndexReport(*r)
                assert type(r) is IndexReport
                assert r == built
                assert r._asdict() == built._asdict()
                assert repr(r) == repr(built)


def test_index_report_is_an_unordered_value_tuple(capsys):
    assert IndexReport._fields == ("word", "integer_index", "case_tag",
                                   "conjugate_position", "fractional_index")
    assert IndexReport._field_defaults == {"conjugate_position": None, "fractional_index": None}
    assert repr(IndexReport("01", 2, "ii", 0, Fraction(5, 2))) == (
        "IndexReport(word='01', integer_index=2, case_tag='ii', "
        "conjugate_position=0, fractional_index=Fraction(5, 2))")
    cf, w = parse_slope("[0;2,(3)]"), "01010100101010010101001"
    [report] = [r for r in classify_length(cf, len(w)) if r.word == w]
    assert report == IndexReport(w, 5, "iii", 5)
    with pytest.raises(TypeError):
        sorted([report, report])
    with pytest.raises(AttributeError):
        report.integer_index = 6
    # `index --word` prints the word's own report, its fractional index filled in.
    row = classify_word(cf, w)
    assert row == (w, 5, "iii", 5, Fraction(120, 23))
    assert main(["index", "--slope", "[0;2,(3)]", "--word", w]) == 0
    printed = capsys.readouterr().out.splitlines()[-1].split()
    assert printed == [row.word, str(row.integer_index), row.case_tag,
                       str(row.conjugate_position), str(row.fractional_index)]


def check_each_word_matches_its_length(cf, n_max: int) -> None:
    for n in range(1, n_max + 1):
        for report in classify_length(cf, n, with_fractional=True):
            assert classify_word(cf, report.word) == report, (str(cf), report)


def test_classify_word_matches_its_length(family):
    for cf in family:
        check_each_word_matches_its_length(cf, 60)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 9), st.lists(st.integers(1, 9), max_size=3),
       st.lists(st.integers(1, 9), min_size=1, max_size=4))
def test_classify_word_matches_its_length_on_drawn_slopes(a_1, preperiod, period):
    check_each_word_matches_its_length(ContinuedFraction((a_1, *preperiod), tuple(period)), 60)


def reference_word_report(cf, w) -> IndexReport:
    """The whole-length route to one word's report: its row of
    `classify_length`, then its exit on a table sized by that row's index,
    with no interval formula between them."""
    check_word(w)
    if not w:
        raise NotAFactorError("the empty word has no index")
    reports = [r for r in classify_length(cf, len(w)) if r.word == w]
    if not reports:
        raise NotAFactorError(f"{w!r} is not a factor for slope {cf}")
    n, (i, j, _) = len(w), word_interval(cf, w)
    [t] = repetitions._exits(cf, n, [(i, i - j)], (reports[0].integer_index + 1) * n)
    return reports[0]._replace(fractional_index=Fraction(t - 1, n))


def outcome(route, cf, w):
    """A route's report, or the type and message of its refusal."""
    try:
        return route(cf, w)
    except (DepthError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(1, 5), min_size=1, max_size=8))
def test_classify_word_matches_the_whole_length_route_on_drawn_truncations(a_1, rest):
    # The factors of an extension of the truncation and every one-letter
    # mutant of them: the same report, or the same refusal in the same order
    # (alphabet, empty word, case, key table, not a factor, exit table).
    cf = ContinuedFraction((a_1, *rest))
    extension = ContinuedFraction((a_1, *rest), (1,))
    words = ["", "012"]
    for n in range(1, 17):
        for w in factor_interval_map(extension, n).words:
            words.append(w)
            words.extend(w[:j] + "10"[int(w[j])] + w[j + 1:] for j in range(n))
    for w in words:
        assert outcome(classify_word, cf, w) == outcome(reference_word_report, cf, w), (str(cf), w)


def test_index_word_builds_no_factor_map(capsys):
    # Reversed s_17 of [0;2,(1)], 4,181 letters, and a non-factor of that
    # length: the answer and the refusal both come from the word alone.
    w = reversal(standard_word(parse_slope("[0;2,(1)]"), 17))
    before = factor_interval_map.cache_info()
    assert main(["index", "--slope", "[0;2,(1)]", "--word", w]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == [w, "3", "iii", "0", "3"]
    assert main(["index", "--slope", "[0;2,(1)]", "--word", "11" + w[2:]]) == 1
    assert capsys.readouterr().err.startswith("error: '11")
    after = factor_interval_map.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses,
                                                          before.currsize)


def _case_clauses(cf: ContinuedFraction, n: int) -> list[tuple[str, int, int]]:
    """(tag, q, m) of each Damanik-Lenz condition n meets, read off
    `convergent` and `semiconvergents`: n = m*q with the root length q."""
    a_1, a_2 = cf.quotient(1), cf.quotient(2)
    clauses = [("i", n, 1)] * (n < a_1) + [("ii", a_1, 1)] * (n == a_1)
    clauses += [("iv", q, 1) for k, l, q in semiconvergents(cf, n) if q == n and l < cf.quotient(k)]
    if n % a_1 == 0 and 2 <= n // a_1 <= a_2:
        clauses.append(("v", a_1, n // a_1))
    k = 2
    while (q := convergent(cf, k).q) <= n:
        if n == q:
            clauses.append(("iii", q, 1))
        if n % q == 0 and 2 <= n // q <= cf.quotient(k + 1) + 1:
            clauses.append(("vi", q, n // q))
        k += 1
    return clauses or [("vii", 0, 1)]


def test_classify_cases_exhaustive(family):
    rng = random.Random(412)
    drawn = [ContinuedFraction((rng.randint(2, 12), *(rng.randint(1, 12) for _ in range(rng.randint(0, 2)))),
                               tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 3))))
             for _ in range(30)]
    for cf in family + drawn:
        for n in range(1, 401):
            [(tag, q, m)] = _case_clauses(cf, n)  # exactly one condition holds
            found, (root, *_) = length_case(cf, n)  # one case per decomposition
            m_found = n // len(root) if root else 1  # n = m*|root|
            assert (found, len(root), m_found) == (tag, q, m), (str(cf), n)


# ------------------------------------------------------------------
# square lengths
# ------------------------------------------------------------------

def test_square_lengths_examples(example_slope, fib_slope):
    assert square_lengths(example_slope, 8) == {1, 2, 3, 5, 8}
    assert square_lengths(fib_slope, 13) == {1, 2, 3, 5, 8, 13}
    assert square_lengths(example_slope, 1) == {1}


def test_square_lengths_match_scan(family):
    for cf in family:
        formula = square_lengths(cf, 60)
        window = characteristic_prefix(cf, 4000)
        scanned = oracles.square_root_lengths(window, 60)
        assert scanned == formula


# ------------------------------------------------------------------
# conjugacy classes
# ------------------------------------------------------------------

def test_conjugacy_report_worked_example(example_slope):
    rep = conjugacy_report(example_slope, 3, 1)
    assert rep.conjugates[:2] == ("10010", "01001")  # the base, reversed s_{3,1}, first
    assert rep.gaps == ((2, LinearForm(-2, -1)), (3, LinearForm(3, 1)),
                        (1, LinearForm(-5, -2)))  # (wide, narrow, outside)
    assert rep.leftover == "00100"
    assert rep.conjugates[1] == "01001"  # position q_2 - 2 = 1 is s_{3,1}


def test_result_records_are_the_tuples_of_their_fields(example_slope):
    rep = conjugacy_report(example_slope, 3, 1)
    assert rep == (rep.conjugates, "00100", rep.gaps)
    res = critical_exponent(parse_slope("[0;5,1,(1)]"), 10)
    assert res == (res.terms, 0, 5, None, None)
    assert res.bounds() == (5, 5)


def test_conjugacy_report_full_standard_word(example_slope):
    rep = conjugacy_report(example_slope, 3, 2)  # l = a_3: the word s_3
    assert rep.gaps[2] == (1, LinearForm(-8, -3))  # the unique minimum gap
    assert len(rep.conjugates) == 8


def test_conjugacy_counts(family):
    for cf in family:
        for k in range(2, 6):
            for l in range(1, cf.quotient(k) + 1):
                n = l * parse_len(cf, k - 1) + parse_len(cf, k - 2)
                if n > 150:
                    continue
                rep = conjugacy_report(cf, k, l)
                assert sum(count for count, _ in rep.gaps) == n + 1
                assert rep.conjugates[parse_len(cf, k - 1) - 2] == reversal(rep.conjugates[0])


@pytest.mark.parametrize("text, k, l", [("[0;2,1,1]", 3, 1), ("[0;2,3]", 2, 3),
                                        ("[0;5,2,7]", 3, 7)])
def test_conjugacy_report_answers_a_truncation_at_its_last_k(text, k, l):
    # The report reads a_1..a_k and the length's factor map, which the
    # cylinder fixes, so it answers as every slope of the cylinder does;
    # the length's case reads a_{k+1} and refuses.
    cf = parse_slope(text)
    rep = conjugacy_report(cf, k, l)
    for tail in ((1,), (3,)):
        assert conjugacy_report(ContinuedFraction(cf.preperiod, tail), k, l) == rep, tail
    with pytest.raises(DepthError, match=f"a_{k + 1}"):
        length_case(cf, len(rep.conjugates[0]))


def parse_len(cf, k):
    from sturmian.exactnum import convergent
    return convergent(cf, k).q


def test_conjugacy_range_errors(example_slope):
    with pytest.raises(ValueError):
        conjugacy_report(example_slope, 1, 1)
    with pytest.raises(ValueError):
        conjugacy_report(example_slope, 3, 3)


# ------------------------------------------------------------------
# fractional index
# ------------------------------------------------------------------

def reference_fractional_index(cf, w) -> Fraction:
    """The per-letter route: w^ind, then `language_extension` along w[:-1]."""
    ind = index_by_interval(cf, w)
    if len(w) == 1:
        return Fraction(ind)
    return Fraction(ind * len(w) + language_extension(cf, w * ind, w[:-1]), len(w))


def classified_fractions(cf, n) -> list[tuple[str, Fraction]]:
    """The one whole-length route: the fractional indices `classify_length`
    fills in, in circular order."""
    return [(r.word, r.fractional_index) for r in classify_length(cf, n, with_fractional=True)]


def test_fractional_indices_match_the_walk(family):
    words = 0
    for cf in (*family, parse_slope("[0;5,(1,7)]"), parse_slope("[0;9,(2)]")):
        for n in range(1, 41):
            expected = {w: reference_fractional_index(cf, w)
                        for w in factor_interval_map(cf, n).words}
            got = dict(classified_fractions(cf, n))
            assert list(got) == list(expected)
            assert got == expected, (str(cf), n)
            # Words of equal fractional index share one Fraction.
            assert len({id(f) for f in got.values()}) == len(set(got.values()))
            words += len(got)
    assert words == 12_040


def reference_period_exit(keys: list[int], q: int) -> int:
    """The exit rule on one word's own window keys[:n + 1], with the max and
    min of its first n keys taken afresh: the per-word slice route, kept
    apart from `repetitions._exits` so that a fault in either shows."""
    n = len(keys) - 1
    head = keys[:n]
    hi, lo = max(head), min(head)
    drift = keys[0] - keys[n]
    k = -((hi - lo - q) // abs(drift))
    if drift > 0:
        bound = hi - q + k * drift
        s = next(s for s, key in enumerate(head) if key <= bound)
    else:
        bound = lo + q + k * drift
        s = next(s for s, key in enumerate(head) if key >= bound)
    return k * n + s


def reference_fractional_indices(cf, n) -> list[tuple[str, Fraction]]:
    """Every word's window sliced from the shared key list, in circular order,
    on a table sized by the length's largest index: the exit comes by
    t = (ind + 1)*n, the largest difference compared."""
    ind = max(indices_by_interval(cf, n))
    table = key_table(cf, (ind + 1) * n)
    p, q = table.p, table.q
    keys = [m % q for m in range(-n * p, (n + 1) * p, p)]
    return [(w, Fraction(reference_period_exit(keys[n - i: 2 * n + 1 - i], q) - 1, n))
            for w, (i, _, _) in factors_of_length(cf, n)]


def test_fractional_indices_match_the_slice_route(family):
    # The truncation's cylinder certifies every length here as well.
    for cf in (*family, *map(parse_slope, ("[0;5,(1,7)]", "[0;9,(2)]", "[0;3,1,4,1,5,9,2,6]"))):
        for n in range(1, 151):
            assert classified_fractions(cf, n) == reference_fractional_indices(cf, n), (str(cf), n)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.lists(st.integers(1, 9), max_size=3),
       st.lists(st.integers(1, 9), min_size=1, max_size=4), st.integers(1, 150))
def test_fractional_indices_match_the_slice_route_on_drawn_slopes(a_1, preperiod, period, n):
    cf = ContinuedFraction((a_1, *preperiod), tuple(period))
    assert classified_fractions(cf, n) == reference_fractional_indices(cf, n)


def check_exits_against_the_walk(cf, lengths: Iterable[int]) -> tuple[set[tuple[bool, bool]], int]:
    """`_exits` of every factor of the given lengths against the height walk
    of w^(ind + 2), whose longest factor prefix has t - 1 letters.  Lengths
    and words whose tables a truncation refuses are skipped.  Returns the
    kinds (drift > 0, k >= 2) met, k = t // n the period of the exit, and
    the number of words compared."""
    kinds, compared = set(), 0
    for n in lengths:
        try:
            indices = indices_by_interval(cf, n)
            factors = factor_interval_map(cf, n)
            exits = repetitions._exits(cf, n, zip(factors.lefts, factors.gaps),
                                       (max(indices) + 1) * n)
        except DepthError:
            continue
        for w, ind, t in zip(factors.words, indices, exits):
            power = w * (ind + 2)
            try:
                table = key_table(cf, len(power))
            except DepthError:
                continue
            assert rotation._height_walk(table, power)[0] + 1 == t, (str(cf), w)
            kinds.add((w.count("1") * table.q > n * table.p, t // n >= 2))
            compared += 1
    return kinds, compared


def test_exits_match_the_walk_of_a_power(family):
    # Both drift signs, each with exits in the first period and past it.
    for cf in family:
        kinds, compared = check_exits_against_the_walk(cf, range(1, 41))
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}, str(cf)
        assert compared == 860


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(1, 5), min_size=1, max_size=8))
def test_exits_match_the_walk_of_a_power_on_drawn_truncations(a_1, rest):
    check_exits_against_the_walk(ContinuedFraction((a_1, *rest)), range(1, 41))


def whole_and_single_exits(cf, n) -> tuple[list[int], list[int]]:
    """`_exits` of every factor of length n in one call, with the layout's
    gaps, and one call per word, each with the gap left_idx - right_idx of
    its own `word_interval` and on a table sized by that word's index; the
    indices come from the interval formula."""
    factors = factor_interval_map(cf, n)
    whole = repetitions._exits(cf, n, zip(factors.lefts, factors.gaps),
                               (max(indices_by_interval(cf, n)) + 1) * n)
    single = [t for w in factors.words for i, j, _ in [word_interval(cf, w)]
              for t in repetitions._exits(cf, n, [(i, i - j)], (index_by_interval(cf, w) + 1) * n)]
    return whole, single


def test_exits_of_a_whole_length_match_word_by_word(family):
    # The whole-length route reads each window's gap from the layout; one
    # word at a time, its gap from its own height walk and on a table sized
    # by its own length, must give the same exits, with the heights
    # drifting both ways.
    signs = set()
    for cf in family:
        for n in range(1, 61):
            whole, single = whole_and_single_exits(cf, n)
            assert whole == single, (str(cf), n)
            factors = factor_interval_map(cf, n)
            table = key_table(cf, n)
            signs.update(w.count("1") * table.q > n * table.p for w in factors.words)
    assert signs == {True, False}


def lengths_near_convergents(cf, n_max: int) -> list[int]:
    """1, 2 and q_k - 1, q_k, q_k + 1, q_k + q_{k-1} for each known q_k,
    k >= 1, those <= n_max."""
    lengths, k = {1, 2}, 1
    try:
        while (q := convergent(cf, k).q) <= n_max:
            lengths.update((q - 1, q, q + 1, q + convergent(cf, k - 1).q))
            k += 1
    except DepthError:  # a truncation knows q_k up to its last quotient
        pass
    return sorted(n for n in lengths if n <= n_max)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.lists(st.integers(1, 40), max_size=3),
       st.lists(st.integers(1, 40), min_size=1, max_size=3), st.booleans())
def test_exits_of_a_whole_length_match_on_large_quotients(a_1, preperiod, period, truncated):
    # Each window a = n - i takes its largest key from the end {-j*alpha}
    # of its interval, K(-d) for d = i - j (i = 0 wraps: d = -j), and its
    # least as K(0) = 0.  Large quotients put exits several periods out,
    # near the lengths where windows wrap.
    quotients = (a_1, *preperiod)
    cf = (ContinuedFraction((*quotients, *period)) if truncated
          else ContinuedFraction(quotients, tuple(period)))
    lengths = lengths_near_convergents(cf, 300)
    for n in lengths:
        try:
            whole, single = whole_and_single_exits(cf, n)
        except DepthError:
            continue
        assert whole == single, (str(cf), n)
    check_exits_against_the_walk(cf, lengths)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.lists(st.integers(1, 40), max_size=3),
       st.lists(st.integers(1, 40), min_size=1, max_size=3), st.booleans(), st.integers(1, 60))
def test_exits_within_the_reach_are_exact_and_the_rest_refused(a_1, preperiod, period, truncated, n):
    # The certificate `_reports` relies on: on a table of reach m*n, for
    # every m up to the interval formula's largest index + 1, the exits
    # either include a floor (t - 1)//n >= m, above every index a reach of
    # m*n claims, which the floor check refuses, or are the exact ones.
    quotients = (a_1, *preperiod)
    cf = (ContinuedFraction((*quotients, *period)) if truncated
          else ContinuedFraction(quotients, tuple(period)))
    try:
        expected = [f for _, f in reference_fractional_indices(cf, n)]
        factors = factor_interval_map(cf, n)
    except DepthError:
        return
    top = max(indices_by_interval(cf, n)) + 1
    for m in range(1, top + 1):
        exits = repetitions._exits(cf, n, zip(factors.lefts, factors.gaps), m * n)
        floors = [(t - 1) // n for t in exits]
        if max(floors) < m:
            assert [Fraction(t - 1, n) for t in exits] == expected, (str(cf), n, m)
        else:
            assert m < top, (str(cf), n)  # the interval formula's reach is exact


def test_classify_refuses_an_underclaimed_index_at_each_convergent(monkeypatch, family):
    # Mutant: at n = q_k every factor claims index 1, so the exit table
    # reaches only 2*n.  Each such length must raise, naming a word whose
    # exit floor (t - 1)//n is above 1, and never return reports.
    case = repetitions.length_case

    def underclaimed(cf, n):
        tag, (root, split, *_) = case(cf, n)
        return tag, (root, split, 1, 1, 1)

    monkeypatch.setattr(repetitions, "length_case", underclaimed)
    for cf in (*family, parse_slope("[0;3,1,4,1,5,9,2,6]")):
        last = cf.truncation_depth or 12  # length_case at q_m reads a_(m+1)
        for n in [q for k in range(last) if (q := convergent(cf, k).q) <= 400]:
            with pytest.raises(AssertionError) as refused:
                classify_length(cf, n, with_fractional=True)
            found = re.fullmatch(r"case (i|ii|iii): '([01]+)' has index 1 but fractional "
                                 rf"index (\S+) for {re.escape(str(cf))}", str(refused.value))
            assert found, (str(cf), n, str(refused.value))
            words = factor_interval_map(cf, n).words
            assert Fraction(found[3]) >= 2, (str(cf), n)
            assert indices_by_interval(cf, n)[words.index(found[2])] >= 2, (str(cf), n)


def test_fractional_index_matches_the_walk_on_truncations():
    # Where the walk answers, the exit answers the same.  Its table reaches
    # (ind + 1)*n, one past the walk's, and here it answers wherever the
    # walk does.  A word waits on floor_ratio for its own interval length
    # only, not for the other lengths of its n.
    answered = 0
    for cf in (parse_slope("[0;3,1,4,1,5,9,2,6]"), parse_slope("[0;2,1,1]")):
        for n in range(1, 41):
            try:
                words = factor_interval_map(cf, n).words
            except DepthError:
                continue
            for w in words:
                try:
                    expected = reference_fractional_index(cf, w)
                except DepthError:
                    continue
                assert fractional_index(cf, w) == expected, (str(cf), w)
                answered += 1
    assert answered == 880


def test_exit_tables_are_sized_by_the_intervals_asked_for():
    # A whole length takes the table of its largest index, one word that of
    # its own: a truncation refuses the length yet answers the word.  The
    # length-10 map of [0;2,3] reaches 10 and answers; its exits reach
    # (1 + 1)*10, past the cylinder's n* - 1 = 15.
    cf = parse_slope("[0;2,3]")
    factors = factor_interval_map(cf, 10)
    assert len(factors.words) == 11
    with pytest.raises(DepthError, match=re.escape(
            "cannot certify 21 orbit points for slope [0;2,3] within depth 2")):
        repetitions._exits(cf, 10, zip(factors.lefts, factors.gaps),
                           (max(indices_by_interval(cf, 10)) + 1) * 10)
    assert fractional_index(cf, "01001") == Fraction(8, 5)
    cf = parse_slope("[0;7,7]")
    factors = factor_interval_map(cf, 36)
    with pytest.raises(DepthError):
        repetitions._exits(cf, 36, zip(factors.lefts, factors.gaps),
                           (max(indices_by_interval(cf, 36)) + 1) * 36)
    answered = {}
    for w in factors.words:
        try:
            answered[w] = fractional_index(cf, w)
        except DepthError:
            continue
    assert len(answered) == 31
    # Each answer holds on the whole cylinder.
    for tail in ("[0;7,7,(1)]", "[0;7,7,(9,2)]"):
        extension = dict(classified_fractions(parse_slope(tail), 36))
        assert all(extension[w] == f for w, f in answered.items()), tail


def test_single_words_skip_the_factor_map(family):
    # index_by_interval and fractional_index read [w] off the height walk:
    # no factor map is built or looked up.
    before = factor_interval_map.cache_info()
    for cf in family[:4]:
        for k in range(1, 7):
            w = reversal(standard_word(cf, k))
            assert index_by_interval(cf, w) == index_oracle(cf, w)
            assert int(fractional_index(cf, w)) == index_by_interval(cf, w)
        for call in (index_by_interval, fractional_index):
            with pytest.raises(NotAFactorError, match="'11' is not a factor"):
                call(cf, "11")
            with pytest.raises(NotAFactorError, match="the empty word has no index"):
                call(cf, "")
    after = factor_interval_map.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_a_long_single_word_takes_linear_memory():
    # Reversed s_17 of [0;2,(1)] has 4,181 letters: its length's factor map
    # alone would hold 4,182 words of that length, some 18 MB.
    cf = parse_slope("[0;2,(1)]")
    w = reversal(standard_word(cf, 17))
    assert len(w) == 4181
    tracemalloc.start()
    try:
        assert fractional_index(cf, w) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_fractional_index_on_a_shallow_cylinder():
    # (01)^3 is not a factor, so the exit comes by t = 6: a table of reach 6,
    # within the 7 that [0;2,1] certifies (n* = 2*q_2 + q_1 = 8).
    cf = parse_slope("[0;2,1]")
    assert fractional_index(cf, "01") == reference_fractional_index(cf, "01") == Fraction(5, 2)
    assert fractional_index(cf, "10") == 2
    for extension in ("[0;2,1,(1)]", "[0;2,1,(6)]", "[0;2,1,2,(3,1)]"):
        ext = parse_slope(extension)
        assert fractional_index(ext, "01") == reference_fractional_index(ext, "01") == Fraction(5, 2)
        assert fractional_index(ext, "10") == reference_fractional_index(ext, "10") == 2
    # At the edge: [0;3,1] certifies reach 10 (n* = 11).  00010 has index
    # 1, so its exit reaches 2*5 = 10 and answers; 000100's reaches 12 and
    # is refused, though its length-6 map answers.
    cf = parse_slope("[0;3,1]")
    assert fractional_index(cf, "00010") == Fraction(7, 5)
    for extension in ("[0;3,1,(1)]", "[0;3,1,(6)]", "[0;3,1,2,(3,1)]"):
        assert fractional_index(parse_slope(extension), "00010") == Fraction(7, 5)
    assert "000100" in factor_interval_map(cf, 6).words
    with pytest.raises(DepthError, match=re.escape(
            "cannot certify 13 orbit points for slope [0;3,1] within depth 2")):
        fractional_index(cf, "000100")


def test_fractional_index_answers_the_words_the_report_answers():
    # The interval floors of 01010 on [0;2,2,2] stay undecided, but its
    # positional index 4 sizes a table of reach 25 that the cylinder
    # certifies (n* = 2*q_3 + q_2 = 29), as it does for the word's report.
    cf = ContinuedFraction((2, 2, 2))
    with pytest.raises(DepthError, match="undecided"):
        index_by_interval(cf, "01010")
    assert fractional_index(cf, "01010") == classify_word(cf, "01010").fractional_index == 4
    for extension in ("[0;2,2,2,(1)]", "[0;2,2,2,(7,3)]"):
        assert fractional_index(parse_slope(extension), "01010") == 4


def test_fractional_index_standard_words(fib_slope):
    assert fractional_index(fib_slope, "010") == 3           # 3 + (q_1 - 2)/q_2
    s4 = standard_word(fib_slope, 4)
    assert fractional_index(fib_slope, s4) == Fraction(27, 8)  # 3 + 3/8


def test_fractional_index_matches_oracle(example_slope, fib_slope):
    for cf in (example_slope, fib_slope):
        window = characteristic_prefix(cf, 6000)
        for n in range(1, 13):
            for w, _ in factors_of_length(cf, n):
                expected = oracles.max_fractional_power(window, w)
                assert fractional_index(cf, w) == expected, (cf, w)


def test_fractional_index_invariants(family):
    for cf in family[:4]:
        for n in (1, 2, 3, 5, 8):
            for w, _ in factors_of_length(cf, n):
                frac = fractional_index(cf, w)
                ind = index_by_interval(cf, w)
                assert 0 <= frac - ind < 1
                assert (frac * n).denominator == 1


# ------------------------------------------------------------------
# critical exponent
# ------------------------------------------------------------------

def test_critical_exponent_fibonacci(fib_slope):
    res = critical_exponent(fib_slope, 30)
    assert res.limit_tail is not None
    assert res.limit_offset == 3
    assert res.limit_tail.period == (1,)
    lo, hi = res.bounds()
    target = Fraction(3618033988749894848, 10**18)  # 3 + 1/phi
    assert abs((lo + hi) / 2 - target) < Fraction(1, 10**9)
    assert hi - lo < Fraction(1, 10**12)


def test_critical_exponent_pell(  ):
    res = critical_exponent(parse_slope("[0;2,(2)]"), 30)
    assert res.limit_tail is not None
    lo, hi = res.bounds()
    target = Fraction(4414213562373095048, 10**18)  # 3 + sqrt(2)
    assert abs((lo + hi) / 2 - target) < Fraction(1, 10**9)


def test_critical_exponent_attained_at_a1():
    res = critical_exponent(parse_slope("[0;5,1,(1)]"), 10)
    assert res.limit_tail is None
    assert res.value_attained == 5
    assert res.witness_k == 0


def test_critical_exponent_terms_are_lower_bounds(family):
    for cf in family:
        res = critical_exponent(cf, 12)
        lo, hi = res.bounds()
        assert all(t <= hi for _, t in res.terms)
        assert Fraction(cf.quotient(1)) <= hi


def test_critical_exponent_dominates_observed_powers(family):
    for cf in family[:4]:
        res = critical_exponent(cf, 20)
        _, hi = res.bounds()
        window = characteristic_prefix(cf, 30000)
        observed, _ = oracles.max_run_exponent(window, 500)
        assert observed <= hi


@pytest.mark.parametrize("slope, witness, offset, tail", [
    (ContinuedFraction((2,), (1, 1)), 5, 3, "[0;(1,1)]"),
    (ContinuedFraction((3,), (2, 2)), 5, 4, "[0;(2,2)]"),
    (parse_slope("[0;2,(1,3)]"), 4, 5, "[0;(1,3)]")], ids=str)
def test_critical_exponent_tie_keeps_the_later_class(slope, witness, offset, tail):
    # Both class limits of a doubled period are equal; the later one wins.
    # `parse_slope` halves such a period, so the library's own spelling is
    # the only way in.  Without a tie the larger class wins, here the earlier one.
    res = critical_exponent(slope, 30)
    assert res.limit_tail is not None
    assert (res.witness_k, res.limit_offset, str(res.limit_tail)) == (witness, offset, tail)


# ------------------------------------------------------------------
# the order of the critical exponent's candidates
# ------------------------------------------------------------------

def reference_quotient_stream(value: Fraction, tail: ContinuedFraction | None
                              ) -> Iterator[int]:
    """Continued-fraction quotients of value, or of value + tail for an
    integer value: finite for a rational, eventually periodic otherwise."""
    if tail is None:
        num, den = value.numerator, value.denominator
        while den:
            b, r = divmod(num, den)
            yield b
            num, den = den, r
    else:
        yield int(value)
        yield from tail.preperiod
        yield from itertools.cycle(tail.period)


def reference_candidate_le(a: tuple[Fraction, ContinuedFraction | None],
                           b: tuple[Fraction, ContinuedFraction | None]) -> bool:
    """Exact a <= b for candidates rational (+ purely periodic CF tail).

    The first differing quotient decides: a larger quotient means a larger
    number at even positions and a smaller one at odd positions, and a
    finished stream counts as infinity.  Two periodic streams that agree
    through both heads and a common period agree forever.
    """
    (fa, ta), (fb, tb) = a, b
    limit = None
    if ta is not None and tb is not None:
        limit = (2 + max(len(ta.preperiod), len(tb.preperiod))
                 + math.lcm(len(ta.period), len(tb.period)))
    pairs = itertools.zip_longest(reference_quotient_stream(fa, ta),
                                  reference_quotient_stream(fb, tb))
    for i, (x, y) in enumerate(pairs):
        if i == limit:
            break
        if x != y:
            a_larger = y is not None and (x is None or x > y)
            return a_larger == (i % 2 == 1)
    return True


def check_candidate_order(cf: ContinuedFraction) -> None:
    """The sign test orders every pair of terms and class limits of a
    periodic slope as the quotient streams do, ties included, and each
    class limit A + B*sqrt(D) is its tail's surd plus 2 + a_{k0+1}."""
    m, period = len(cf.preperiod), len(cf.period)
    cands = [((t, Fraction(0)), (t, None))
             for t in itertools.starmap(Fraction, repetitions._terms(cf, m + 2 * period + 2))]
    shared = set()
    for k0 in range(m + period + 1, m + 2 * period + 1):
        a, b, d, tail = repetitions._class_limit(cf, k0)
        ref_tail = ContinuedFraction((), tuple(cf.quotient(k0 - j) for j in range(period)))
        offset = 2 + cf.quotient(k0 + 1)
        p, surd_d, q = periodic_tail_surd(list(ref_tail.period))
        assert (a, b, d, tail) == (offset + Fraction(p, q), Fraction(1, q), surd_d, ref_tail)
        shared.add(d)
        cands.append(((a, b), (Fraction(offset), ref_tail)))
    assert len(shared) == 1, (str(cf), shared)
    d = shared.pop()
    for (x, x_ref), (y, y_ref) in itertools.product(cands, repeat=2):
        assert repetitions._surd_le(x, y, d) == reference_candidate_le(x_ref, y_ref), \
            (str(cf), x_ref, y_ref)


@pytest.mark.parametrize("slope", FAMILY_SLOPES + ["[0;2,(1,1)]", "[0;3,(2,2)]"])
def test_candidate_order_matches_the_quotient_streams(slope):
    check_candidate_order(parse_slope(slope))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=4), st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_candidate_order_matches_the_quotient_streams_on_drawn_slopes(preperiod, period):
    check_candidate_order(ContinuedFraction(tuple(preperiod), tuple(period)))


def reference_critical_exponent(cf: ContinuedFraction, depth_bound: int) -> tuple:
    """(terms, witness_k, attained, value_attained, limit_offset, limit_tail)
    with each term added up as a_{k+1} + 2 + Fraction(q_{k-1} - 2, q_k) from
    the test's own q recurrence, and the supremum the last maximal candidate
    under `reference_candidate_le`: the terms by k, then the class limits.

    A periodic slope lists terms 60 past its preperiod, two periods and the
    depth: beyond the formula's horizon each term lies strictly below its
    class limit, so no extra term can become the maximum.
    """
    m, period = len(cf.preperiod), len(cf.period)
    last = max(depth_bound, m + 2 * period + 60) if period else min(depth_bound, m - 1)
    qs = [0, 1]  # q_{-1}, q_0
    for k in range(1, last + 1):
        qs.append(cf.quotient(k) * qs[-1] + qs[-2])
    cands = [(cf.quotient(k + 1) + 2 + Fraction(qs[k] - 2, qs[k + 1]), None, k)
             for k in range(last + 1)]
    terms = tuple((k, t) for t, _, k in cands[2:depth_bound + 1])
    for k0 in range(m + period + 1, m + 2 * period + 1) if period else ():
        tail = ContinuedFraction((), tuple(cf.quotient(k0 - j) for j in range(period)))
        cands.append((Fraction(2 + cf.quotient(k0 + 1)), tail, k0))
    best = cands[0]
    for cand in cands[1:]:
        if reference_candidate_le(best[:2], cand[:2]):
            best = cand
    value, tail, k = best
    if tail is None:
        return terms, k, True, value, None, None
    return terms, k, False, None, value, tail


def scanned_critical_exponent(cf: ContinuedFraction, depth_bound: int
                              ) -> repetitions.CriticalExponentResult:
    """The critical exponent by the scan the integer pick replaced: every term
    t_k = (q_{k+1} + 2 q_k - 2)/q_k a Fraction, and every candidate, the terms
    by k and then the class limits, compared by `_surd_le` with the one before;
    a tie keeps the later candidate."""
    m, period = len(cf.preperiod), len(cf.period)
    if period:
        q_m = convergent(cf, m).q
        s, fib_a, fib_b = 1, 1, 1
        while fib_b < q_m:
            fib_a, fib_b = fib_b, fib_a + fib_b
            s += 1
        last = max(m + period + 1, m + s + 1, depth_bound)
    else:
        last = min(depth_bound, m - 1)
    qs = [_ctx(cf).pair(k)[1] for k in range(last + 2)]
    candidates = [(Fraction(q2 + 2 * q1 - 2, q1), 0, None, k)
                  for k, (q1, q2) in enumerate(zip(qs, qs[1:]))]
    terms = tuple((k, t) for t, _, _, k in candidates[2:depth_bound + 1])
    d = 0
    for k0 in range(m + period + 1, m + 2 * period + 1):
        a, b, d, tail = repetitions._class_limit(cf, k0)
        candidates.append((a, b, tail, k0))
    best = candidates[0]
    for cand in candidates[1:]:
        if repetitions._surd_le(best[:2], cand[:2], d):
            best = cand
    value, _, tail, witness = best
    return repetitions.CriticalExponentResult(
        terms=terms, witness_k=witness, value_attained=value if tail is None else None,
        limit_offset=None if tail is None else 2 + cf.quotient(witness + 1), limit_tail=tail)


def check_critical_exponent(cf: ContinuedFraction, depth_bound: int) -> None:
    res = critical_exponent(cf, depth_bound)
    got = (res.terms, res.witness_k, res.limit_tail is None, res.value_attained,
           res.limit_offset, res.limit_tail)
    assert got == reference_critical_exponent(cf, depth_bound), (str(cf), depth_bound)
    assert res == scanned_critical_exponent(cf, depth_bound), (str(cf), depth_bound)


@pytest.mark.parametrize("depth", [2, 30, 200])
@pytest.mark.parametrize("slope", FAMILY_SLOPES)
def test_critical_exponent_matches_the_reference_arithmetic(slope, depth):
    check_critical_exponent(parse_slope(slope), depth)


DRAWN_PERIODIC = st.builds(lambda a_1, pre, period: ContinuedFraction((a_1, *pre), tuple(period)),
                           st.integers(2, 6), st.lists(st.integers(1, 6), max_size=3),
                           st.lists(st.integers(1, 6), min_size=1, max_size=4))
DRAWN_TRUNCATED = st.builds(lambda a_1, rest: ContinuedFraction((a_1, *rest)),
                            st.integers(2, 6), st.lists(st.integers(1, 6), max_size=24))


@settings(max_examples=80, deadline=None)
@given(DRAWN_PERIODIC | DRAWN_TRUNCATED, st.integers(2, 200))
def test_critical_exponent_matches_the_reference_on_drawn_slopes(cf, depth):
    check_critical_exponent(cf, depth)


@pytest.mark.parametrize("slope", ["[0;3,1,2,1,1]", "[0;2,(1,3)]"])
def test_critical_exponent_tie_of_best_terms_keeps_the_later_k(monkeypatch, slope):
    # No slope drawn so far had two equal best terms, so the tie is built: t_1
    # and t_4 spell the same value 27/2 as different integer pairs, and only
    # the cross-multiplication sees them equal.  The value beats the class
    # limits of the periodic slope (5 + [0;(1,3)] the larger).
    pairs = [(3, 1), (27, 2), (12, 4), (1, 1), (54, 4)]
    monkeypatch.setattr(repetitions, "_terms",
                        lambda cf, last: (pairs + [(1, 1)] * last)[:last + 1])
    res = critical_exponent(parse_slope(slope), 4)
    assert res.terms == ((2, 3), (3, 1), (4, Fraction(27, 2)))
    assert (res.witness_k, res.value_attained, res.limit_tail) == (4, Fraction(27, 2), None)


def test_critical_exponent_is_thread_safe():
    # One thread asks for the terms of a fresh slope to a large depth while
    # another extends the same convergent cache one pair at a time, so
    # shorter lists keep being published around the deep one; a tiny switch
    # interval makes preemption inside the terms' walk likely.  The answers
    # must be those of a serial run.
    slopes = [ContinuedFraction((3, 1 + i % 6, 1 + i // 6), (1, 2)) for i in range(40)]
    depth, shallow = 1000, 700
    expected = [critical_exponent(cf, depth) for cf in slopes]
    _ctx.cache_clear()
    for cf in slopes:
        _ctx(cf)
    barrier = threading.Barrier(2)
    seen = []

    def work(t: int) -> None:
        for cf in slopes:
            barrier.wait(timeout=60)
            if t == 0:
                seen.append(critical_exponent(cf, depth))
            else:
                ctx = _ctx(cf)
                for k in range(shallow):
                    ctx.pair(k)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(th.is_alive() for th in threads)
    assert seen == expected


def test_critical_exponent_truncation_lower_bound():
    res = critical_exponent(parse_slope("[0;2,1,2,1,2]"), 10)
    assert res.limit_tail is None
    assert res.value_attained >= 2


def test_critical_exponent_truncation_reaches_t1():
    # [0;3,5] knows t_0 = 3 and t_1 = a_2 + 2 - 1/a_1 = 20/3, the best
    # fractional index of its length-3 class in every slope it stands for.
    res = critical_exponent(parse_slope("[0;3,5]"), 10)
    assert res.limit_tail is None
    assert res.terms == ()
    assert (res.value_attained, res.witness_k) == (Fraction(20, 3), 1)
    assert critical_exponent(parse_slope("[0;3,5,(1)]"), 10).value_attained == Fraction(20, 3)


def test_critical_exponent_truncation_uses_its_last_term():
    # t_4 = a_5 + 2 + (q_3 - 2)/q_4 = 11 + 3/8 is the last term [0;2,1,1,1,9] knows.
    res = critical_exponent(parse_slope("[0;2,1,1,1,9]"), 10)
    assert [k for k, _ in res.terms] == [2, 3, 4]
    assert (res.value_attained, res.witness_k) == (Fraction(91, 8), 4)


def test_critical_exponent_depth_validation(fib_slope):
    with pytest.raises(ValueError):
        critical_exponent(fib_slope, 1)
