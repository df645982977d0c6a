"""Stress checks on slopes outside the default family.

Larger quotients, longer periods, and real preperiods exercise code paths
the curated family cannot: class-limit selection with mixed tails,
preperiod-dominated suprema, and deeper key tables.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sturmian import oracles
from sturmian.exactnum import (
    ContinuedFraction,
    DepthError,
    DepthExceededError,
    UndecidedError,
    approx_str,
    distance,
    parse_slope,
)
from sturmian.repetitions import (
    _exits,
    _length_indices,
    _terms,
    classify_length,
    classify_word,
    critical_exponent,
    fractional_index,
    index_by_interval,
    index_oracle,
    oracle_window,
    square_lengths,
)
from sturmian.rotation import (
    characteristic_prefix,
    coding_prefix,
    factors_of_length,
    three_distance,
    word_interval,
)
from sturmian.words import conjugates, reversal, standard_word
from test_oracles import check_gap_spectra
from test_rotation import mediant_denominator

TORTURE = ["[0;4,(5,1,2)]", "[0;2,7,1,(3,1,4)]", "[0;9,(1,1,2)]", "[0;2,(10)]"]


@pytest.fixture(scope="module", params=TORTURE)
def slope(request):
    return parse_slope(request.param)


def check_indices_match_oracle(slope, lengths):
    for n in lengths:
        reports = classify_length(slope, n)
        text = characteristic_prefix(slope, oracle_window(slope, n))
        scans = oracles.max_powers(text, [report.word for report in reports])
        for report in reports:
            formula = index_by_interval(slope, report.word)
            assert report.integer_index == formula
            assert index_oracle(slope, report.word) == formula
            assert scans[report.word] == formula


def check_three_distance_matches_spectrum(slope, lengths):
    for n in lengths:
        s = three_distance(slope, n)
        counts = oracles.gap_spectrum(slope, n, [form for _, form in s.gaps])
        assert counts == [count for count, _ in s.gaps]


def test_indices_match_oracle_off_family(slope):
    check_indices_match_oracle(slope, range(1, 41))


def test_three_distance_off_family(slope):
    check_three_distance_matches_spectrum(slope, range(slope.quotient(1) + 1, 121))
    check_gap_spectra(slope, 120)


def test_square_lengths_off_family(slope):
    formula = square_lengths(slope, 80)
    window = characteristic_prefix(slope, 12000)
    assert oracles.square_root_lengths(window, 80) == formula


def test_critical_exponent_dominates_off_family(slope):
    res = critical_exponent(slope, 24)
    _, hi = res.bounds()
    window = characteristic_prefix(slope, 60000)
    observed, period = oracles.max_run_exponent(window, 1500)
    assert observed <= hi, (str(slope), observed, period)
    # The supremum is sharp: some scanned repetition comes within 2% of it.
    assert observed > hi * 49 / 50


def test_preperiod_dominated_supremum():
    # A huge early quotient wins over every periodic-tail class limit.
    cf = parse_slope("[0;2,1,12,(1,2)]")
    res = critical_exponent(cf, 16)
    assert res.limit_tail is None
    assert res.value_attained == 14  # k = 2: a_3 + 2 + (q_1 - 2)/q_2 = 14 + 0/3
    assert res.witness_k == 2
    _, hi = res.bounds()
    window = characteristic_prefix(cf, 60000)
    observed, _ = oracles.max_run_exponent(window, 800)
    assert observed <= hi


# ------------------------------------------------------------------
# drawn slopes: a_1 in 2..5, later quotients in 1..5
# ------------------------------------------------------------------

A1 = st.integers(2, 5)
QUOTIENTS = st.integers(1, 5)


def periodic_tails(max_preperiod: int):
    return st.tuples(st.lists(QUOTIENTS, max_size=max_preperiod),
                     st.lists(QUOTIENTS, min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(A1, periodic_tails(1), st.integers(1, 30))
def test_formulas_match_oracles_on_drawn_slopes(a_1, tail, n):
    # Preperiod a_1 plus at most one more quotient, period of at most 3.
    pre, per = tail
    slope = ContinuedFraction((a_1, *pre), tuple(per))
    check_indices_match_oracle(slope, [n])
    if n > a_1:
        check_three_distance_matches_spectrum(slope, [n])
    check_gap_spectra(slope, 4 * n)
    # A window certifying the power scans at every length up to n.
    window = characteristic_prefix(slope, max(oracle_window(slope, m) for m in range(1, n + 1)))
    assert square_lengths(slope, n) == oracles.square_root_lengths(window, n)
    for w, _ in factors_of_length(slope, n):
        assert fractional_index(slope, w) == oracles.max_fractional_power(window, w), w
    for report in classify_length(slope, n, with_fractional=True):
        expected = oracles.max_fractional_power(window, report.word)
        assert report.fractional_index == expected, report


# ------------------------------------------------------------------
# the first terms of the critical-exponent formula
# ------------------------------------------------------------------

def check_first_terms(slope):
    # t_0 is the index of the letter 0; t_1 is the best fractional index
    # of the length-q_1 class, by interval iteration and by a scan.
    t_0, t_1 = (Fraction(*pair) for pair in _terms(slope, 1))
    assert t_0 == slope.quotient(1) == fractional_index(slope, "0")
    q_1 = slope.quotient(1)
    window = characteristic_prefix(slope, oracle_window(slope, q_1))
    words = set(conjugates(reversal(standard_word(slope, 1))))
    assert t_1 == slope.quotient(2) + 2 - Fraction(1, q_1)
    assert t_1 == max(fractional_index(slope, w) for w in words)
    assert t_1 == max(oracles.max_fractional_power(window, w) for w in words)


def test_first_terms_on_the_family(family):
    for slope in family:
        check_first_terms(slope)


@settings(max_examples=40, deadline=None)
@given(A1, periodic_tails(2))
def test_first_terms_on_drawn_slopes(a_1, tail):
    pre, per = tail
    check_first_terms(ContinuedFraction((a_1, *pre), tuple(per)))


def _query(cf: ContinuedFraction, kind: str, arg):
    if kind == "distance":
        return distance(cf, arg)
    if kind == "approx":
        return approx_str(cf, distance(cf, arg))
    if kind == "three-distance":
        return three_distance(cf, arg)
    if kind == "factors":
        return sorted(factors_of_length(cf, arg))
    if kind == "coding":
        return coding_prefix(cf, *arg)
    if kind == "prefix":
        return characteristic_prefix(cf, arg)
    if kind == "interval":
        interval = word_interval(cf, arg)
        return "not a factor" if interval is None else interval
    if kind == "fractional":
        return fractional_index(cf, arg)
    if kind == "report":
        return classify_word(cf, arg)
    return index_by_interval(cf, arg)


def _answers(cf: ContinuedFraction, n_max: int) -> dict:
    """(kind, argument) -> answer, or None where a DepthError refused it."""
    out = {}

    def ask(kind, arg):
        try:
            out[kind, arg] = _query(cf, kind, arg)
        except DepthError:
            out[kind, arg] = None

    for n in range(1, n_max + 1):
        for kind in ("distance", "approx", "three-distance", "factors"):
            ask(kind, n)
        for w, _ in out["factors", n] or ():
            for kind, arg in (("index", w), ("interval", w), ("interval", w + w),
                              ("fractional", w), ("report", w)):
                ask(kind, arg)
    for length in (1, 7, 60, 500, 4000):
        for start in (-300, -40, -1, 0, 1, 25):
            ask("coding", (start, length))
        ask("prefix", length)
    return out


@settings(max_examples=60, deadline=None)
@given(A1, st.lists(QUOTIENTS, min_size=1, max_size=11), periodic_tails(2),
       periodic_tails(2))
# [0;2,2,2] answers 01010 (index 4, fractional index 4) from an exit table
# sized by its positional index, where the interval floors stay undecided.
@example(2, [2, 2], ([], [1]), ([], [9, 2]))
def test_truncation_answers_hold_for_extensions(a_1, rest, tail_1, tail_2):
    # Whatever [0;a_1..a_m] answers, codings, word intervals, fractional
    # indices and per-word reports included, must hold for every slope of
    # its cylinder, here two periodic extensions; the rest must be refused.
    known = (a_1, *rest)
    truncation = ContinuedFraction(known)
    # Every length up to 16, and on up to n* = 2*q_m + q_{m-1}, the first
    # one the cylinder does not fix, when n* <= 40.
    n_star = mediant_denominator(known)
    answers = _answers(truncation, max(16, n_star) if n_star <= 40 else 16)
    if n_star <= 40:
        assert answers["factors", n_star - 1] is not None, str(truncation)
        assert answers["factors", n_star] is None, str(truncation)
    # fractional_index answers each word the per-word report answers, and each
    # word the exit table sized by the interval formula's index answers (its
    # route before the positional index sized it), with the same value.
    for (kind, w), report in answers.items():
        if kind == "report":
            fractional = None if report is None else report.fractional_index
            assert answers["fractional", w] == fractional, w
            interval_sized = _interval_sized_fractional_index(truncation, w)
            assert interval_sized in (None, answers["fractional", w]), w
    # The critical exponent of the truncation is the best term it knows,
    # t_0..t_{m-1}: at least the older bound max(a_1, a_2 + 1, t_2..), and
    # at most the supremum of every slope in the cylinder.
    terms = _terms_by_hand(known)
    lower = critical_exponent(truncation, 16).value_attained
    assert lower == max(terms)
    assert lower >= max(a_1, known[1] + 1, *terms[2:])
    for pre, per in (tail_1, tail_2):
        extension = ContinuedFraction(known + tuple(pre), tuple(per))
        for key, got in answers.items():
            if got is not None:
                assert _query(extension, *key) == got, (str(truncation), str(extension), key)
        assert lower <= critical_exponent(extension, 16).bounds()[1], str(extension)


def _interval_sized_fractional_index(cf: ContinuedFraction, w: str) -> Fraction | None:
    """(t - 1)/|w| for the exit t of w on the table that the interval formula's
    index ind sizes, t <= (ind + 1)*|w|; None where a DepthError refuses it."""
    n = len(w)
    try:
        i, j, length = word_interval(cf, w)
        [t] = _exits(cf, n, [(i, i - j)], (_length_indices(cf, n, [length])[0] + 1) * n)
    except DepthError:
        return None
    return Fraction(t - 1, n)


def _terms_by_hand(quotients: tuple[int, ...]) -> list[Fraction]:
    """t_k = a_{k+1} + 2 + (q_{k-1} - 2)/q_k for k < len(quotients), from
    q_{-1} = 0, q_0 = 1 and the denominator recurrence."""
    q_prev, q = 0, 1
    out = []
    for a_next in quotients:
        out.append(a_next + 2 + Fraction(q_prev - 2, q))
        q_prev, q = q, a_next * q + q_prev
    return out


# ------------------------------------------------------------------
# truncation behaviour
# ------------------------------------------------------------------

def test_truncation_answers_within_depth():
    cf = parse_slope("[0;2,1,2,1,2,1,2,1]")  # depth-8 truncation
    assert [w for w, _ in factors_of_length(cf, 4)]
    assert distance(cf, 10).q != 0
    for n in range(3, 20):
        s = three_distance(cf, n)
        assert sum(count for count, _ in s.gaps) == n + 1


def test_truncation_raises_beyond_depth():
    cf = parse_slope("[0;2,1,2]")
    with pytest.raises((UndecidedError, DepthExceededError)):
        factors_of_length(cf, 400)
    with pytest.raises((UndecidedError, DepthExceededError)):
        characteristic_prefix(cf, 100_000)
