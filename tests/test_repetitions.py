"""Tests for the power classification, squares, conjugacy, and critical exponent."""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from typing import Iterator

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
    distance,
    floor_ratio,
    parse_slope,
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
    # factor, what the formula gives for that factor alone.
    for cf in (family[0], family[5], family[10]):
        for n in range(1, 61):
            indices = indices_by_interval(cf, n)
            assert list(indices) == [w for w, _ in factors_of_length(cf, n)]
            assert indices == _direct_indices(cf, n), (cf, n)
            for w, index in indices.items():
                assert index_by_interval(cf, w) == index


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
            assert indices_by_interval(cf, n) == direct, (str(cf), n)


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
    ("[0;5,(1)]", 2, "i", ("10", 1, 0, 1, 1, 2)),
    ("[0;2,(1,2)]", 2, "ii", ("10", 1, 0, 2, 2, 1)),
    ("[0;2,(1)]", 3, "iii", ("010", 1, 1, 3, 2, 1)),
    ("[0;2,(1,2)]", 5, "iv", ("10010", 1, 2, 2, 1, 1)),
    ("[0;2,(3)]", 4, "v", ("10", 2, 0, 2, 2, 1)),
    ("[0;2,(2)]", 10, "vi", ("01010", 2, 1, 2, 1, 1)),
    ("[0;2,(1,2)]", 7, "vii", ("", 1, 0, 1, 1, 1)),
])
def test_length_case_patterns(slope, n, tag, pattern):
    # (root, m, split, first, rest, other) of one length per case.
    assert length_case(parse_slope(slope), n) == (tag, pattern)


@pytest.mark.parametrize("slope, n, k", [("[0;2]", 2, 2), ("[0;2,1,1]", 5, 4), ("[0;2,3]", 7, 3)])
def test_length_case_refuses_a_quotient_past_the_truncation(slope, n, k):
    # Case ii at a_1 of a depth-1 truncation, and case iii at n = q_m of a
    # depth-m one, need a_k for their pattern.
    cf = parse_slope(slope)
    message = f"quotient a_{k} requested but expansion is only valid to depth {k - 1}"
    for fn in (length_case, classify_length):
        with pytest.raises(DepthExceededError, match=message):
            fn(cf, n)


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
    return [classify_word(cf, w) for w in factor_interval_map(cf, n)]


@pytest.mark.parametrize("classify", [classify_length, classify_each_word], ids=["length", "word"])
@pytest.mark.parametrize("root", ["11", "1010"])
def test_classify_refuses_a_root_without_distinct_factor_shifts(monkeypatch, fib_slope, root,
                                                                 classify):
    # 11 is not a factor; 1010 has only two distinct shifts.  A single word
    # sees the second: neither root is primitive.
    case = repetitions.length_case
    monkeypatch.setattr(repetitions, "length_case",
                        lambda cf, n: (case(cf, n)[0], (root, 1, 0, 1, 1, 1)))
    with pytest.raises(AssertionError, match="not distinct factors"):
        classify(fib_slope, len(root))


@pytest.mark.parametrize("classify", [lambda cf, n: classify_length(cf, n, with_fractional=True),
                                      classify_each_word], ids=["length", "word"])
def test_classify_with_fractional_refuses_a_wrong_index(monkeypatch, fib_slope, classify):
    # Length 3 is case iii with first = 3 and rest = 2: flipping them gives
    # positional indices that the fractional indices' floors contradict.
    case = repetitions.length_case

    def flipped(cf, n):
        tag, (root, m, split, first, rest, other) = case(cf, n)
        return tag, (root, m, split, rest, first, other)

    monkeypatch.setattr(repetitions, "length_case", flipped)
    classify_length(fib_slope, 3)  # without fractional indices nothing checks
    with pytest.raises(AssertionError, match="fractional index"):
        classify(fib_slope, 3)


def test_classify_with_fractional_refuses_a_late_exit(monkeypatch, family):
    # The exit side of the same check: one period late, every floor
    # (t - 1) // n is one above the positional index.
    exits = repetitions._exits
    monkeypatch.setattr(repetitions, "_exits",
                        lambda cf, n, lefts, lengths: [t + n for t in exits(cf, n, lefts, lengths)])
    for cf in family:
        with pytest.raises(AssertionError, match="fractional index"):
            for n in range(1, 21):
                classify_length(cf, n, with_fractional=True)


def test_index_report_is_an_unordered_value_tuple(capsys):
    assert IndexReport._fields == ("word", "n", "integer_index", "case_tag",
                                   "conjugate_position", "fractional_index")
    assert IndexReport._field_defaults == {"conjugate_position": None, "fractional_index": None}
    assert repr(IndexReport("01", 2, 2, "ii", 0, Fraction(5, 2))) == (
        "IndexReport(word='01', n=2, integer_index=2, case_tag='ii', "
        "conjugate_position=0, fractional_index=Fraction(5, 2))")
    cf, w = parse_slope("[0;2,(3)]"), "01010100101010010101001"
    [report] = [r for r in classify_length(cf, len(w)) if r.word == w]
    assert report == IndexReport(w, 23, 5, "iii", 5)
    with pytest.raises(TypeError):
        sorted([report, report])
    with pytest.raises(AttributeError):
        report.integer_index = 6
    # `index --word` prints the word's own report, its fractional index filled in.
    row = classify_word(cf, w)
    assert row == (w, 23, 5, "iii", 5, Fraction(120, 23))
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
    `classify_length`, then `fractional_index` filled in."""
    check_word(w)
    if not w:
        raise NotAFactorError("the empty word has no index")
    reports = [r for r in classify_length(cf, len(w)) if r.word == w]
    if not reports:
        raise NotAFactorError(f"{w!r} is not a factor for slope {cf}")
    return reports[0]._replace(fractional_index=fractional_index(cf, w))


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
        for w in factor_interval_map(extension, n):
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


def test_classify_cases_exhaustive(family):
    for cf in family:
        for n in range(1, 120):
            tag, _ = length_case(cf, n)  # double matches raise inside
            assert tag in ("i", "ii", "iii", "iv", "v", "vi", "vii")


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
    assert rep.base == "10010"
    assert rep.conjugates[:2] == ("10010", "01001")
    assert rep.wide_count == 2 and rep.wide_length == LinearForm(-2, -1)
    assert rep.narrow_count == 3 and rep.narrow_length == LinearForm(3, 1)
    assert rep.leftover == "00100" and rep.leftover_length == LinearForm(-5, -2)
    assert rep.conjugates[1] == "01001"  # position q_2 - 2 = 1 is s_{3,1}


def test_conjugacy_report_full_standard_word(example_slope):
    rep = conjugacy_report(example_slope, 3, 2)  # l = a_3: the word s_3
    assert rep.leftover_length == LinearForm(-8, -3)  # the unique minimum gap
    assert len(rep.conjugates) == 8


def test_conjugacy_counts(family):
    for cf in family:
        for k in range(2, 6):
            for l in range(1, cf.quotient(k) + 1):
                n = l * parse_len(cf, k - 1) + parse_len(cf, k - 2)
                if n > 150:
                    continue
                rep = conjugacy_report(cf, k, l)
                assert rep.wide_count + rep.narrow_count + 1 == n + 1
                assert rep.conjugates[parse_len(cf, k - 1) - 2] == reversal(rep.base)


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
            expected = {w: reference_fractional_index(cf, w) for w in factor_interval_map(cf, n)}
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
    intervals = factor_interval_map(cf, n)
    ind = max(indices_by_interval(cf, n).values())
    table = key_table(cf, (ind + 1) * n)
    p, q = table.p, table.q
    keys = [m % q for m in range(-n * p, (n + 1) * p, p)]
    return [(w, Fraction(reference_period_exit(keys[n - i: 2 * n + 1 - i], q) - 1, n))
            for w, (i, _, _) in intervals.items()]


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


def check_exits_against_the_walk(cf, n_max: int) -> tuple[set[tuple[bool, bool]], int]:
    """`_exits` of every factor of lengths 1..n_max against the height walk
    of w^(ind + 2), whose longest factor prefix has t - 1 letters.  Lengths
    and words whose tables a truncation refuses are skipped.  Returns the
    kinds (drift > 0, k >= 2) met, k = t // n the period of the exit, and
    the number of words compared."""
    kinds, compared = set(), 0
    for n in range(1, n_max + 1):
        try:
            indices = indices_by_interval(cf, n)
            factors = factor_interval_map(cf, n)
            exits = repetitions._exits(cf, n, factors.lefts, factors.lengths.values())
        except DepthError:
            continue
        for (w, ind), t in zip(indices.items(), exits):
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
        kinds, compared = check_exits_against_the_walk(cf, 40)
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}, str(cf)
        assert compared == 860


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(1, 5), min_size=1, max_size=8))
def test_exits_match_the_walk_of_a_power_on_drawn_truncations(a_1, rest):
    check_exits_against_the_walk(ContinuedFraction((a_1, *rest)), 40)


def test_exits_of_a_whole_length_match_word_by_word(family):
    # The whole-length route maps every window's drift, k and k*drift at
    # once; one word at a time, on a table sized by its own length, must
    # give the same exits, with the heights drifting both ways.
    signs = set()
    for cf in family:
        for n in range(1, 61):
            factors = factor_interval_map(cf, n)
            whole = repetitions._exits(cf, n, factors.lefts, factors.lengths.values())
            single = [t for i, d in zip(factors.lefts, factors.gaps)
                      for t in repetitions._exits(cf, n, [i], [factors.lengths[d]])]
            assert whole == single, (str(cf), n)
            table = key_table(cf, n)
            signs.update(w.count("1") * table.q > n * table.p for w in factors)
    assert signs == {True, False}


def test_fractional_index_matches_the_walk_on_truncations():
    # Where the walk answers, the exit answers the same.  Its table reaches
    # (ind + 1)*n, one past the walk's, and here it answers wherever the
    # walk does.  A word waits on floor_ratio for its own interval length
    # only, not for the other lengths of its n.
    answered = 0
    for cf in (parse_slope("[0;3,1,4,1,5,9,2,6]"), parse_slope("[0;2,1,1]")):
        for n in range(1, 41):
            try:
                words = list(factor_interval_map(cf, n))
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
    assert len(factors) == 11
    with pytest.raises(DepthError, match=re.escape(
            "cannot certify 21 orbit points for slope [0;2,3] within depth 2")):
        repetitions._exits(cf, 10, factors.lefts, factors.lengths.values())
    assert fractional_index(cf, "01001") == Fraction(8, 5)
    cf = parse_slope("[0;7,7]")
    factors = factor_interval_map(cf, 36)
    with pytest.raises(DepthError):
        repetitions._exits(cf, 36, factors.lefts, factors.lengths.values())
    answered = {}
    for w in factors:
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
    assert "000100" in factor_interval_map(cf, 6)
    with pytest.raises(DepthError, match=re.escape(
            "cannot certify 13 orbit points for slope [0;3,1] within depth 2")):
        fractional_index(cf, "000100")


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
    assert not res.attained
    assert res.limit_offset == 3
    assert res.limit_tail.period == (1,)
    lo, hi = res.bounds()
    target = Fraction(3618033988749894848, 10**18)  # 3 + 1/phi
    assert abs((lo + hi) / 2 - target) < Fraction(1, 10**9)
    assert hi - lo < Fraction(1, 10**12)


def test_critical_exponent_pell(  ):
    res = critical_exponent(parse_slope("[0;2,(2)]"), 30)
    assert not res.attained
    lo, hi = res.bounds()
    target = Fraction(4414213562373095048, 10**18)  # 3 + sqrt(2)
    assert abs((lo + hi) / 2 - target) < Fraction(1, 10**9)


def test_critical_exponent_attained_at_a1():
    res = critical_exponent(parse_slope("[0;5,1,(1)]"), 10)
    assert res.attained
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


@pytest.mark.parametrize("slope, offset, tail", [("[0;2,(1,1)]", 3, "[0;(1,1)]"),
                                                 ("[0;3,(2,2)]", 4, "[0;(2,2)]")])
def test_critical_exponent_tie_keeps_the_later_class(slope, offset, tail):
    # Both class limits of a doubled period are equal; the later one wins.
    res = critical_exponent(parse_slope(slope), 30)
    assert not res.attained
    assert (res.witness_k, res.limit_offset, str(res.limit_tail)) == (5, offset, tail)


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
    cands = [((repetitions._term(cf, k), Fraction(0)), (repetitions._term(cf, k), None))
             for k in range(m + 2 * period + 3)]
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


def test_critical_exponent_truncation_lower_bound():
    res = critical_exponent(parse_slope("[0;2,1,2,1,2]"), 10)
    assert res.depth_limited
    assert res.attained
    assert res.value_attained >= 2


def test_critical_exponent_truncation_reaches_t1():
    # [0;3,5] knows t_0 = 3 and t_1 = a_2 + 2 - 1/a_1 = 20/3, the best
    # fractional index of its length-3 class in every slope it stands for.
    res = critical_exponent(parse_slope("[0;3,5]"), 10)
    assert res.depth_limited and res.attained
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
