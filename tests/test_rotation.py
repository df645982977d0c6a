"""Tests for orbit codings, factor intervals, and the three-distance partition."""

from __future__ import annotations

import gc
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILY_SLOPES, alpha_oracle, form_bounds
from sturmian import exactnum, oracles, repetitions, rotation
from sturmian.exactnum import (
    ALPHA,
    ONE,
    ContinuedFraction,
    LinearForm,
    Ordering,
    UndecidedError,
    compare,
    parse_slope,
)
from sturmian.rotation import (
    FactorInterval,
    FactorMap,
    characteristic_prefix,
    coding_prefix,
    factor_interval_map,
    factors_of_length,
    key_table,
    language_extension,
    three_distance,
    three_distance_decomposition,
    word_interval,
)
from sturmian.words import standard_word


# ------------------------------------------------------------------
# key tables and point order
# ------------------------------------------------------------------

def test_key_table_orders_match_oracle(example_slope):
    table = key_table(example_slope, 32)  # 33 points, differences up to 32
    bounds = {m: form_bounds(example_slope, table.position_form(m)) for m in range(-16, 17)}
    # position_form must land in [0, 1), and the keys must sort the points
    # as their disjoint oracle intervals do.
    assert all(0 <= lo and hi < 1 for lo, hi in bounds.values())
    by_oracle = sorted(bounds, key=lambda m: bounds[m][0])
    assert all(bounds[i][1] < bounds[j][0] for i, j in zip(by_oracle, by_oracle[1:]))
    assert sorted(range(-16, 17), key=table.key) == by_oracle


KEY_SPANS = [*range(1, 129), *sorted(random.Random(4096).sample(range(129, 4097), 24)),
             1 << 16]
A1 = st.integers(2, 5)
QUOTIENTS = st.integers(1, 5)
TAILS = st.tuples(st.lists(QUOTIENTS, max_size=2), st.lists(QUOTIENTS, min_size=1, max_size=3))


def _oracle_order(cf: ContinuedFraction, span: int) -> tuple[list[int], list[int]]:
    """The indices m in [-span, span] sorted by {m*alpha}, and floor(m*alpha)
    per m, at both ends of the independent bracket `alpha_oracle(cf, 40)`.
    Both ends must agree; then every point between, alpha included, has
    the same floors (they are monotone) and the same order (each {m*x} is
    then linear in x)."""
    ms = range(-span, span + 1)
    ends = []
    for end in alpha_oracle(cf, 40):
        num, den = end.numerator, end.denominator
        ends.append((sorted(ms, key=lambda m: m * num % den), [m * num // den for m in ms]))
    assert ends[0] == ends[1], (str(cf), span)
    return ends[0]


def _check_table(table: rotation.KeyTable, span: int, cf: ContinuedFraction) -> None:
    """The table's keys order [-span, span] as the oracle does at cf, with no
    tie, and its position forms carry the oracle's floors; its reach is the
    largest difference there, 2*span."""
    order, floors = _oracle_order(cf, span)
    ms = range(-span, span + 1)
    assert table.reach == 2 * span
    assert len({table.key(m) for m in ms}) == 2 * span + 1, (str(cf), span)
    assert sorted(ms, key=table.key) == order, (str(cf), span)
    assert [table.position_form(m).p for m in ms] == floors, (str(cf), span)


def test_key_tables_match_oracle_on_family():
    for text in FAMILY_SLOPES:
        cf = parse_slope(text)
        for span in KEY_SPANS:
            _check_table(key_table(cf, 2 * span), span, cf)


@settings(max_examples=10, deadline=None)
@given(A1, TAILS)
def test_key_tables_match_oracle_on_drawn_slopes(a_1, tail):
    pre, per = tail
    cf = ContinuedFraction((a_1, *pre), tuple(per))
    for span in KEY_SPANS:
        _check_table(key_table(cf, 2 * span), span, cf)


def _cylinder_ends(quotients: tuple[int, ...]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ends p_m/q_m and (p_m + p_{m-1})/(q_m + q_{m-1}) of the cylinder
    of [0;a_1..a_m] as (numerator, denominator), lower end first, from the
    convergent recurrence by hand."""
    p_prev, q_prev, p, q = 1, 0, 0, 1
    for a in quotients:
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
    lower, upper = sorted([(p, q), (p + p_prev, q + q_prev)], key=lambda f: Fraction(*f))
    return lower, upper


def mediant_denominator(quotients: tuple[int, ...]) -> int:
    """n* = 2*q_m + q_{m-1}, the denominator of the mediant of the ends of
    the cylinder of [0;a_1..a_m]: the first length its factor maps refuse."""
    lower, upper = _cylinder_ends(quotients)
    return lower[1] + upper[1]


def _smallest_denominator_inside(quotients: tuple[int, ...]) -> int:
    """Smallest k such that some j/k lies strictly inside the cylinder of
    [0;a_1..a_m]; found by trying every k."""
    (ln, ld), (hn, hd) = _cylinder_ends(quotients)
    k = 1
    while (ln * k // ld + 1) * hd >= hn * k:  # the first j/k above lo is not below hi
        k += 1
    return k


def check_truncation_key_tables(known: tuple[int, ...], extensions, spans) -> list[int]:
    """key_table on [0;known] answers exactly the spans whose 2*span + 1
    points no fraction inside the cylinder can collide (2*span below its
    smallest denominator), and each answer holds at both extensions.
    Returns the answered spans."""
    truncation = ContinuedFraction(known)
    k_min = _smallest_denominator_inside(known)
    answered = []
    for span in spans:
        if 2 * span >= k_min:
            with pytest.raises(UndecidedError, match=f"cannot certify {2 * span + 1} orbit"):
                key_table(truncation, 2 * span)
            continue
        table = key_table(truncation, 2 * span)
        for pre, per in extensions:
            _check_table(table, span, ContinuedFraction(known + tuple(pre), tuple(per)))
        answered.append(span)
    return answered


@pytest.mark.parametrize("text, answered", [
    ("[0;3,1,4,1,5,9,2,6]", KEY_SPANS[:-1]),  # all but 65,536
    ("[0;2,1,1]", [1, 2, 3, 4, 5, 6]),
    ("[0;2]", [1, 2]),
])
def test_key_tables_on_truncations_hold_for_extensions(text, answered):
    known = parse_slope(text).preperiod
    assert check_truncation_key_tables(known, [((), (1,)), ((7,), (2, 1))], KEY_SPANS) == answered


@settings(max_examples=40, deadline=None)
@given(A1, st.lists(QUOTIENTS, max_size=8), TAILS, TAILS)
def test_key_tables_on_drawn_truncations_hold_for_extensions(a_1, rest, tail_1, tail_2):
    check_truncation_key_tables((a_1, *rest), (tail_1, tail_2), KEY_SPANS[:128])


def test_key_table_retains_only_its_certificate():
    cf = ContinuedFraction((2,), (3, 1, 4243))  # a slope no other test builds
    # A cache dict that grows its table inside the measurement would count
    # tens of KB, depending on how full earlier tests left it: start empty.
    for cache in (exactnum._ctx, exactnum.alpha_bounds):
        cache.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        table = key_table(cf, 1 << 16)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.reach == 1 << 16
    assert retained < 4096, retained


def test_key_table_reads_the_cap_on_every_call(monkeypatch):
    cf = parse_slope("[0;2,(1)]")
    monkeypatch.setenv("STURM_DEPTH_LIMIT", "64")
    assert key_table(cf, 24).depth == 5
    monkeypatch.setenv("STURM_DEPTH_LIMIT", "4")
    with pytest.raises(UndecidedError) as info:
        key_table(cf, 24)
    assert str(info.value) == ("cannot certify 25 orbit points for slope [0;2,(1)] "
                               "within depth 4")
    monkeypatch.setenv("STURM_DEPTH_LIMIT", "64")
    assert key_table(cf, 24).depth == 5


def reference_farey_bracket(cf: ContinuedFraction, lo: int, hi: int
                            ) -> tuple[int, int, int] | None:
    """The walk over every depth that `_farey_bracket` replaced: (d, p, q)
    for the first depth d whose bracket holds no fraction with a denominator
    in [lo, hi], and its mediant p/q; None if no depth does."""
    for d in range(1, cf.max_depth() + 1):
        a, b, c, e = exactnum.alpha_bounds(cf, d)
        q = b + e
        if q > hi:
            return d, a + c, q
        if q < lo and hi <= b * e:
            inv = pow(b, -1, e)
            if not any((m * inv % e or e) * b + e <= m for m in range(lo, hi + 1)):
                return d, a + c, q
    return None


# On the last two, about a third of the windows to one side of 0 (drawn as
# in the coding test below) read a deeper bracket than the walk finds.
BRACKET_TRUNCATIONS = ["[0;2,1,1]", "[0;3,1,4,1,5,9,2,6]", "[0;2,1,9,9,9,9,5]"]


@pytest.mark.parametrize("slope", [*FAMILY_SLOPES, *BRACKET_TRUNCATIONS])
def test_key_table_brackets_match_the_every_depth_walk(slope):
    # With lo = 1, as for every key table, the depth, mediant and all agree.
    cf = parse_slope(slope)
    for hi in range(2, 20_001, 2):
        assert rotation._farey_bracket(cf, 1, hi) == reference_farey_bracket(cf, 1, hi), hi


def test_key_order_matches_circle_figure(example_slope):
    # alpha ~ 0.366: positions 0, .634, .268, .902, .536, .170 for 0..-5.
    table = key_table(example_slope, 5)
    assert sorted([0, -1, -2, -3, -4, -5], key=table.key) == [0, -5, -2, -4, -1, -3]


# ------------------------------------------------------------------
# codings
# ------------------------------------------------------------------

def test_coding_prefix_left_special(example_slope):
    assert coding_prefix(example_slope, 1, 5) == "01001"


def test_coding_prefix_start_zero(example_slope):
    assert coding_prefix(example_slope, 0, 1) == "0"


def test_coding_matches_standard_word(fib_slope):
    assert coding_prefix(fib_slope, 1, 13) == standard_word(fib_slope, 5)


def test_coding_matches_standard_words_sweep(family):
    for cf in family:
        w = standard_word(cf, 8)
        assert coding_prefix(cf, 1, len(w)) == w


def test_coding_of_special_orbit(example_slope):
    # The orbit of 0 passes through both cut points: {-alpha} at t = 5 lies
    # in I_1 = [1-alpha, 1) and codes 1, {0} at t = 6 lies in
    # I_0 = [0, 1-alpha) and codes 0.  alpha ~ 0.366 puts {-6a}, ..., {3a}
    # at .804, .170, .536, .902, .268, .634, 0, .366, .732, .098.
    assert coding_prefix(example_slope, -6, 10) == "1001010010"


def test_coding_requires_normalized():
    with pytest.raises(ValueError):
        coding_prefix(parse_slope("[0;(1)]"), 1, 5)


def _reference_depths(cf: ContinuedFraction, reach: int):
    """Candidate depths for certifying orbit indices |m| <= reach.

    Yields (p_d, q_d, err) for even d, where err bounds in key units how far
    m*p_d mod q_d may sit from {m*alpha}*q_d.  Skips depths with
    q_d*q_{d+1} < 64*reach^2, where the key margins (about q_d/reach)
    cannot yet beat the errors (about reach/q_{d+1}), but always offers the
    last usable depth."""
    top = cf.max_depth()
    for d in range(2, top, 2):
        conv = exactnum.convergent(cf, d)
        q_next = exactnum.convergent(cf, d + 1).q
        if conv.q * q_next >= 64 * reach * reach or d + 1 == top:
            yield conv.p, conv.q, reach // q_next + 1


def reference_coding_prefix(cf: ContinuedFraction, start: int, length: int) -> str:
    """The convergent-margin coding: step key(j) = j*p_d mod q_d by p_d one
    letter at a time, certify each letter by its margins to 0 and to the cut
    key(-1), and read it off the side of the cut.  The cut points j = 0 and
    j = -1 code 0 and 1 (I_0 = [0, 1-alpha))."""
    rotation.require_normalized(cf)
    max_j = max(abs(start), abs(start + length - 1), 1)
    for p, q, err in _reference_depths(cf, max_j):
        err2 = 2 * err
        boundary = (-p) % q
        out = []
        cur = (start * p) % q
        for j in range(start, start + length):
            if j == 0:
                out.append("0")
            elif j == -1:
                out.append("1")
            else:
                delta = cur - boundary
                if cur < err2 or q - cur < err2 or -err2 < delta < err2:
                    break  # margin too small at this depth
                out.append("0" if delta < 0 else "1")
            cur = (cur + p) % q
        else:
            return "".join(out)
    raise UndecidedError(
        f"cannot certify a coding of length {length} from index {start} for slope {cf}"
    )


def _coding_or_refusal(code, *args):
    try:
        return code(*args)
    except UndecidedError as exc:
        return ("refused", str(exc))


def check_against_reference(cf: ContinuedFraction, start: int, length: int) -> bool:
    """coding_prefix agrees with the reference wherever the reference
    answers, refuses only what the reference refuses (with the same
    message), and answers more only on a truncation.  Returns whether the
    window is such a gain."""
    expected = _coding_or_refusal(reference_coding_prefix, cf, start, length)
    got = _coding_or_refusal(coding_prefix, cf, start, length)
    gained = isinstance(expected, tuple) and not isinstance(got, tuple)
    assert got == expected or gained, (str(cf), start, length)
    assert not (gained and cf.period), (str(cf), start, length)
    return gained


# A periodic slope, a truncation that codes short windows only (its key
# tables and its codings through 0 stop at reach 36,153, and the
# reference's depth 6 certifies reach <= 222 except near +-q_5 = +-134)
# and one that codes almost nothing: reach up to 12, as do its key tables,
# only windows inside the exempt indices {-1, 0} for the reference.
CODING_SLOPES = ["[0;2,(1,3)]", "[0;3,1,4,1,5,9,2,6]", "[0;2,1,1]"]


# Windows coding_prefix codes and the reference refuses.  [0;2,1,1] codes
# the 316 windows its cylinder fixes: the 300 with
# max(|start|, |start + length|) <= 12 and 16 to one side of 0, such as
# start 14, length 3.  The reference codes 3 of them.
@pytest.mark.parametrize("slope, gains", [
    ("[0;2,(1,3)]", 0),
    ("[0;3,1,4,1,5,9,2,6]", 13_527),
    ("[0;2,1,1]", 316 - 3),
])
def test_coding_prefix_matches_reference_near_zero(slope, gains):
    cf = parse_slope(slope)
    gained = sum(check_against_reference(cf, start, length)
                 for start in range(-40, 41) for length in range(1, 301))
    assert gained == gains


@pytest.mark.parametrize("slope", CODING_SLOPES)
def test_coding_prefix_matches_reference_near_convergent_indices(slope):
    # key(q_k) and key(-q_k) are -1 and +1 (in some order) at depth k + 1:
    # windows around both signs reach both ends of the residue window.
    cf = parse_slope(slope)
    for k in range(1, cf.max_depth()):
        q_k = exactnum.convergent(cf, k).q
        if q_k > 300:
            break
        for centre in (q_k, -q_k):
            for start in range(centre - 20, centre + 1):
                for length in range(1, 41):
                    check_against_reference(cf, start, length)


@pytest.mark.parametrize("slope", [*CODING_SLOPES, "[0;4,(1,5)]"])
@pytest.mark.parametrize("start", [-40, -1, 0, 1, 40])
def test_coding_prefix_matches_reference_at_100k(slope, start):
    cf = parse_slope(slope)
    assert not check_against_reference(cf, start, 100_000)
    refused = isinstance(_coding_or_refusal(coding_prefix, cf, start, 100_000), tuple)
    assert refused == ("(" not in slope)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(1, 9), min_size=1, max_size=24),
       st.booleans(), st.integers(-5000, 5000), st.integers(1, 5000))
def test_coding_prefix_matches_reference_on_drawn_slopes(a_1, rest, periodic, start, length):
    cf = (ContinuedFraction((a_1,), tuple(rest[:3])) if periodic
          else ContinuedFraction((a_1, *rest)))
    check_against_reference(cf, start, length)


@settings(max_examples=200, deadline=None)
@given(A1, st.lists(st.integers(1, 9), min_size=1, max_size=8), st.integers(-3000, 3000),
       st.one_of(st.integers(1, 4), st.integers(1, 3000)))
def test_coding_prefix_answers_what_the_cylinder_fixes(a_1, rest, start, length):
    # A truncation codes a window exactly when floor(m*x), m in
    # [start, start + length], is constant on its open cylinder: no integer
    # lies strictly between |m| times its two ends.  Then the coding holds
    # for a slope of the cylinder.
    known = (a_1, *rest)
    (ln, ld), (hn, hd) = _cylinder_ends(known)
    fixed = all(-(-m * hn // hd) - m * ln // ld == 1
                for m in map(abs, range(start, start + length + 1)) if m)
    got = _coding_or_refusal(coding_prefix, ContinuedFraction(known), start, length)
    assert isinstance(got, str) == fixed, (known, start, length)
    if fixed:
        assert got == coding_prefix(ContinuedFraction(known, (1, 2)), start, length)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BRACKET_TRUNCATIONS), st.one_of(st.integers(2, 40), st.integers(2, 40_000)),
       st.one_of(st.integers(1, 4), st.integers(1, 3000)), st.booleans())
def test_codings_to_one_side_of_zero_keep_their_letters(slope, first, length, left):
    # A window with start > 1 or stop < -1 may read a deeper bracket than the
    # every-depth walk found; its letters and refusals stay the same.
    cf = parse_slope(slope)
    start = -first - length if left else first  # left: stop = -first
    got = _coding_or_refusal(coding_prefix, cf, start, length)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rotation, "_farey_bracket", reference_farey_bracket)
        assert got == _coding_or_refusal(coding_prefix, cf, start, length)
    check_against_reference(cf, start, length)


@pytest.mark.parametrize("slope", ["[0;2,3]", "[0;2,1,1]"])
def test_shallow_truncation_refuses_100k_letters_at_once(slope):
    # No key table covers the window, so nothing of its size is built.
    cf = parse_slope(slope)
    tracemalloc.start()
    try:
        with pytest.raises(UndecidedError, match="cannot certify a coding of length 100000"):
            coding_prefix(cf, 1, 100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000, peak


@pytest.mark.parametrize("slope", [*FAMILY_SLOPES, "[0;5,(1,4,2)]", "[0;2,1,3,(7)]",
                                   "[0;4,(1)]"])
def test_characteristic_prefix_is_the_coding_from_index_1(slope):
    cf = parse_slope(slope)
    assert characteristic_prefix(cf, 200_000) == coding_prefix(cf, 1, 200_000)


# The longest text each truncation certifies: s_m s_{m-1} s_m less its
# last two letters.
CERTIFIED_TEXT = {"[0;3,1,4,1,5,9,2,6]": 36_152, "[0;2,1,1]": 11,
                  "[0;2,1,9,9,9,9,5]": 245_807, "[0;2,3]": 14, "[0;5]": 9, "[0;2]": 3}


@pytest.mark.parametrize("slope", list(CERTIFIED_TEXT))
def test_characteristic_prefix_answers_what_a_truncation_certifies(slope):
    cf, certified = parse_slope(slope), CERTIFIED_TEXT[slope]
    for length in [*range(1, min(certified, 200) + 1), certified]:
        assert characteristic_prefix(cf, length) == coding_prefix(cf, 1, length), length
    message = (f"cannot certify a coding of length {certified + 1} "
               f"from index 1 for slope {slope}")
    for refuse in (characteristic_prefix, lambda cf, n: coding_prefix(cf, 1, n)):
        with pytest.raises(UndecidedError) as info:
            refuse(cf, certified + 1)
        assert str(info.value) == message


def test_characteristic_prefix_reads_only_the_quotients(monkeypatch):
    expected = {s: coding_prefix(parse_slope(s), 1, 5000)
                for s in ("[0;2,(1,3)]", "[0;3,1,4,1,5,9,2,6]")}

    def refuse(*args):
        raise AssertionError("the certified core was called")

    for name in ("key_table", "_farey_bracket", "coding_prefix", "alpha_bounds", "_ctx"):
        monkeypatch.setattr(rotation, name, refuse)
    for slope, text in expected.items():
        assert characteristic_prefix(parse_slope(slope), 5000) == text


def test_characteristic_prefix_builds_no_standard_word_past_its_length(monkeypatch):
    # s_k = s_{k-1}^(a_k) s_{k-2} is cut to the copies the length needs, so
    # a large a_k costs no more than the letters asked for.
    built = []

    def recording(cf, k):
        word = standard_word(cf, k)
        built.append(len(word))
        return word

    monkeypatch.setattr(rotation, "standard_word", recording)
    cf = parse_slope("[0;2,(40)]")
    for length in (1, 2, 3, 80, 83, 137_302):
        built.clear()
        text = characteristic_prefix(cf, length)
        assert built and max(built) <= length, (length, built)
        assert text == coding_prefix(cf, 1, length)


def test_characteristic_prefix_rejects_negative_lengths():
    cf = parse_slope("[0;2,(1,3)]")
    with pytest.raises(ValueError):
        characteristic_prefix(cf, -3)
    assert characteristic_prefix(cf, 0) == ""


def test_characteristic_prefix_requires_a_normalized_slope():
    # With a_1 = 1, s_0 = 0 is no prefix of the characteristic word.
    with pytest.raises(ValueError, match="normalize_slope"):
        characteristic_prefix(parse_slope("[0;1,(2)]"), 10)


# ------------------------------------------------------------------
# factors of a given length
# ------------------------------------------------------------------

def test_factors_worked_example(example_slope):
    words = sorted(w for w, _ in factors_of_length(example_slope, 5))
    assert words == ["00100", "00101", "01001", "01010", "10010", "10100"]


def test_factors_length_one(example_slope):
    got = dict(factors_of_length(example_slope, 1))
    assert sorted(got) == ["0", "1"]
    assert got["1"].length == LinearForm(1, 0)  # |[1]| = alpha


def test_factors_small_other_slope():
    cf = parse_slope("[0;3,(1)]")
    assert sorted(w for w, _ in factors_of_length(cf, 2)) == ["00", "01", "10"]


def test_factor_counts_and_window_consistency(family):
    for cf in family:
        for n in (1, 2, 3, 5, 8, 13, 21, 40):
            factors = factors_of_length(cf, n)
            assert len(factors) == n + 1
            assert len({w for w, _ in factors}) == n + 1
            window = characteristic_prefix(cf, 4 * (n + 64))
            for w, _ in factors:
                assert w in window


def test_factors_circular_chain(example_slope):
    factors = factors_of_length(example_slope, 7)
    assert factors[0][1].left_idx == 0  # circular order starts at the point 0
    for (_, a), (_, b) in zip(factors, factors[1:]):
        assert a.right_idx == b.left_idx
    assert factors[-1][1].right_idx == factors[0][1].left_idx


def test_factor_interval_is_a_value_tuple(example_slope):
    got = dict(factors_of_length(example_slope, 3))
    assert repr(got["101"]) == ("FactorInterval(left_idx=3, right_idx=0, "
                                "length=LinearForm(q=3, p=1))")
    for w, interval in got.items():
        again = word_interval(example_slope, w)
        assert again == interval and hash(again) == hash(interval)
        assert interval == (interval.left_idx, interval.right_idx, interval.length)
    # Two words share |[w]| = ||2a||; their intervals differ but are not ordered.
    assert got["001"].length == got["100"].length and got["001"] != got["100"]
    lookup = {interval: w for w, interval in got.items()}
    assert [lookup[word_interval(example_slope, w)] for w in got] == list(got)
    with pytest.raises(TypeError):
        sorted(got.values())


@settings(max_examples=100, deadline=None)
@given(A1, st.lists(QUOTIENTS, max_size=8))
def test_truncation_factor_maps_stop_at_the_mediant(a_1, rest):
    # [0;a_1..a_m], cut to n* <= 400, answers every length below n*, and
    # the answer holds on the cylinder; at n* it refuses, and must: the
    # mediant of the cylinder's ends, of denominator n*, splits it into
    # slopes with a_{m+1} = 1 and slopes with a_{m+1} >= 2, whose maps differ.
    known = (a_1,)
    for a in rest:
        if mediant_denominator((*known, a)) > 400:
            break
        known += (a,)
    n_star = mediant_denominator(known)
    truncation = ContinuedFraction(known)
    answer = factors_of_length(truncation, n_star - 1)
    for tail in ((1,), (9,), (2, 1)):
        extension = ContinuedFraction(known, tail)
        assert factors_of_length(extension, n_star - 1) == answer, str(extension)
    with pytest.raises(UndecidedError, match=re.escape(
            f"cannot certify {n_star + 1} orbit points for slope {truncation} within depth")):
        factor_interval_map(truncation, n_star)
    ones, threes = (factors_of_length(ContinuedFraction(known, (a,)), n_star) for a in (1, 3))
    assert ones != threes, str(truncation)


@pytest.mark.parametrize("text, n_star", [
    ("[0;2,3]", 16), ("[0;7,7]", 107), ("[0;2,2,2,2,2,2]", 408)])
def test_truncation_factor_maps_stop_at_the_worked_mediants(text, n_star):
    cf = parse_slope(text)
    assert mediant_denominator(cf.preperiod) == n_star
    assert len(factor_interval_map(cf, n_star - 1).words) == n_star
    with pytest.raises(UndecidedError, match=f"cannot certify {n_star + 1} orbit points"):
        factor_interval_map(cf, n_star)


def test_factor_interval_lengths_sum_to_one(family):
    for cf in family:
        for n in (1, 4, 9, 30):
            total = LinearForm(0, 0)
            for _, interval in factors_of_length(cf, n):
                total = total + interval.length
            assert total == LinearForm(0, -1)  # exactly 1


def reference_factor_interval_map(cf: ContinuedFraction, n: int) -> dict[str, FactorInterval]:
    """The per-entry construction that shared forms replaced: one new
    LinearForm per gap, the wrap picked out by its position."""
    table = key_table(cf, n)
    p, q = table.p, table.q
    keys = [m % q for m in range(-n * p, n * p, p)]
    boundary = keys[n - 1]
    bitstr = "".join(["0" if k < boundary else "1" for k in keys])
    floors = [m // q for m in range(0, -(n + 1) * p, -p)]
    order = sorted(range(n + 1), key=keys[n::-1].__getitem__)
    out = {}
    for t, i in enumerate(order):
        nxt = order[(t + 1) % (n + 1)]
        length = LinearForm(i - nxt, floors[nxt] - floors[i] - (t == n))
        out[bitstr[n - i: 2 * n - i]] = FactorInterval(i, nxt, length)
    return out


def layout_items(got: FactorMap) -> list[tuple[str, FactorInterval]]:
    """The layout's (word, interval) pairs in order, read off `interval(t)`."""
    return list(zip(got.words, map(got.interval, range(len(got.words)))))


def assert_gap_identity(cf: ContinuedFraction, n: int, got: FactorMap) -> None:
    """The layout's uniform rule, each gap {d*alpha} for d = left - right
    with floor(d*alpha) = d*p//q, the wrap gap included, against the
    per-entry construction; the gaps take at most three d, each one form."""
    items = layout_items(got)
    assert items == list(reference_factor_interval_map(cf, n).items()), (str(cf), n)
    intervals = [iv for _, iv in items]
    assert len({iv.length for iv in intervals}) <= 3
    assert len({id(iv.length) for iv in intervals}) == len(got.lengths) <= 3


def test_shared_form_maps_match_the_per_entry_construction(family):
    for cf in family:
        for n in (*range(1, 201), 1000):
            assert_gap_identity(cf, n, factor_interval_map(cf, n))


@settings(max_examples=50, deadline=None)
@given(A1, st.lists(QUOTIENTS, min_size=1, max_size=8))
def test_gap_length_identity_on_drawn_truncations(a_1, rest):
    known = (a_1, *rest)
    cf = ContinuedFraction(known)
    for n in range(1, min(mediant_denominator(known), 201)):
        assert_gap_identity(cf, n, factor_interval_map(cf, n))


def test_gap_length_identity_catches_a_wrap_gap_one_off(family):
    # Mutant: the wrap gap's form given an extra -1 in its constant, as the
    # wrap's special case once had, the other n gaps left as they are.
    for cf in family:
        for n in (1, 7, 40):
            got = factor_interval_map(cf, n)
            d = got.gaps[-1]
            mutant = FactorMap(got.coding, got.lefts, [*got.gaps[:-1], None],
                               {**got.lengths, None: got.lengths[d] + ONE})
            assert layout_items(mutant)[:-1] == layout_items(got)[:-1]
            with pytest.raises(AssertionError, match=re.escape(str((str(cf), n)))):
                assert_gap_identity(cf, n, mutant)


def test_factor_intervals_match_partition_lengths(example_slope):
    # Every |[w]| at level n must be one of the three partition lengths.
    for n in (5, 7, 11):
        summary = three_distance(example_slope, n)
        allowed = {form for _, form in summary.gaps}
        for _, interval in factors_of_length(example_slope, n):
            assert interval.length in allowed


def _special_factors(cf: ContinuedFraction, n: int) -> tuple[str, str]:
    """(left special, right special): the length-n prefix of the
    characteristic word and its reversal."""
    left = characteristic_prefix(cf, n)
    return left, left[::-1]


def _factor_containing_point(cf: ContinuedFraction, n: int, m: int) -> str:
    """The length-n factor whose interval contains {m*alpha}, m outside [-n, 0]:
    the one with the last left endpoint at or before it in key order."""
    table = key_table(cf, max(n, abs(m)))
    target = table.key(m)
    lefts = {table.key(-iv.left_idx): w for w, iv in factors_of_length(cf, n)}
    return lefts[max(k for k in lefts if k <= target)]


def test_special_factors_worked_example(example_slope):
    assert _special_factors(example_slope, 5) == ("01001", "10010")


def test_special_factors_length_one(example_slope):
    assert _special_factors(example_slope, 1) == ("0", "0")


def test_special_factors_mirror_and_membership(family):
    for cf in family:
        for n in (1, 3, 8, 21):
            left, right = _special_factors(cf, n)
            words = {w for w, _ in factors_of_length(cf, n)}
            assert left in words and right in words
            # Both one-letter extensions of the left special occur.
            bigger = {w for w, _ in factors_of_length(cf, n + 1)}
            assert "0" + left in bigger and "1" + left in bigger


def test_right_special_interval_contains_next_point(family):
    for cf in family:
        for n in (2, 5, 13, 34):
            _, right = _special_factors(cf, n)
            assert _factor_containing_point(cf, n, -(n + 1)) == right


# ------------------------------------------------------------------
# word intervals from height bounds
# ------------------------------------------------------------------

def reference_walk_arc(table: rotation.KeyTable, w: str) -> tuple[int, int, int]:
    """The arc automaton [w_0..w_t] = [w_0..w_{t-1}] /\\ R^{-t}(I_{w_t}) on
    the circle: a second route to [w], independent of the height bounds.

    Returns (t, lo_idx, hi_idx): the first t letters of w keep the arc
    nonempty, and the arc runs from {-lo_idx * alpha} to {-hi_idx * alpha}
    (index 0 on the right is the point 1).  When t < len(w) the indices
    are those of the step that emptied it.
    """
    q = table.q
    step = -table.p % q  # key(-(t + 1)) = key(-t) + step mod q
    y = step  # key(-1)
    if w[0] == "0":
        lo, lo_idx, hi, hi_idx = 0, 0, y, 1
    else:
        lo, lo_idx, hi, hi_idx = y, 1, q, 0  # hi is the point 1

    for t in range(1, len(w)):
        x = y
        y += step
        if y >= q:
            y -= q
        if w[t] == "0":
            bs, bs_idx, be, be_idx = x, t, y, t + 1
        else:
            bs, bs_idx, be, be_idx = y, t + 1, x, t
        if bs < be:
            # B is a plain arc: intersect directly.
            if bs > lo:
                lo, lo_idx = bs, bs_idx
            if be < hi:
                hi, hi_idx = be, be_idx
            if lo >= hi:
                return t, lo_idx, hi_idx
        else:
            # B wraps: remove the complement gap G = [be, bs) from [lo, hi).
            if bs <= lo or be >= hi:
                pass  # G misses the arc
            elif be <= lo:
                if bs >= hi:
                    return t, lo_idx, hi_idx
                lo, lo_idx = bs, bs_idx
            elif bs >= hi:
                hi, hi_idx = be, be_idx
            else:
                raise AssertionError(f"arc split into two components at step {t} for {w!r}")
    return len(w), lo_idx, hi_idx


# The family, two truncations (one certifying key tables up to reach 12
# only) and two slopes with long runs of 0.
WALK_SLOPES = [*FAMILY_SLOPES, "[0;3,1,4,1,5,9,2,6]", "[0;2,1,1]", "[0;5,(1,7)]", "[0;9,(2)]"]


@pytest.mark.parametrize("slope", WALK_SLOPES)
def test_height_walk_matches_arc_automaton(slope):
    # Every binary word up to length 12: the same longest factor prefix
    # w[:t], and the same endpoints of [w[:t]] as the automaton gives on
    # w[:t] itself (on w, when w is a factor).
    cf = parse_slope(slope)
    for n in range(1, 13):
        table = key_table(cf, n)
        for bits in range(1 << n):
            w = format(bits, f"0{n}b")
            t, lo_idx, hi_idx = rotation._height_walk(table, w)
            assert t == reference_walk_arc(table, w)[0], (slope, w)
            assert (t, lo_idx, hi_idx) == reference_walk_arc(table, w[:t]), (slope, w)


def test_language_extension_matches_arc_automaton_on_power_extensions(family):
    # The fractional index's calls: how far w^ind extends along w[:-1].
    for cf in family:
        for n in range(1, 41):
            words = factor_interval_map(cf, n).words
            for w, ind in zip(words, repetitions.indices_by_interval(cf, n), strict=True):
                base, word = w * ind, w * ind + w[:-1]
                t = reference_walk_arc(key_table(cf, len(word)), word)[0]
                assert language_extension(cf, base, w[:-1]) == t - len(base), (str(cf), w)


def test_language_extension_rejects_a_base_outside_the_language(example_slope):
    with pytest.raises(ValueError, match="not a factor"):
        language_extension(example_slope, "11", "0")
    with pytest.raises(ValueError, match="not a factor"):
        language_extension(example_slope, "01001" * 3, "")
    # (01001)^2 extends by one letter of 0100, as a scan of the coding shows.
    text = characteristic_prefix(example_slope, 20_000)
    base = "01001" * 2
    scanned = max(j for j in range(5) if base + "0100"[:j] in text)
    assert language_extension(example_slope, base, "0100") == scanned == 1


def test_word_interval_agrees_with_partition(family):
    for cf in family:
        for n in (1, 2, 5, 9, 14):
            for w, interval in factors_of_length(cf, n):
                via_heights = word_interval(cf, w)
                assert via_heights is not None
                assert via_heights.length == interval.length
                assert {via_heights.left_idx, via_heights.right_idx} == \
                    {interval.left_idx, interval.right_idx}


def test_word_interval_rejects_non_factors(example_slope):
    assert word_interval(example_slope, "11") is None  # a_1 = 2 forbids 11
    assert word_interval(example_slope, "000") is None  # a_1 = 2 caps runs of 0


def test_word_interval_decides_membership_exhaustively(example_slope):
    words6 = {w for w, _ in factors_of_length(example_slope, 6)}
    for bits in range(64):
        w = format(bits, "06b")
        assert (word_interval(example_slope, w) is not None) == (w in words6)


def test_word_interval_of_squares(example_slope):
    # s_{3,1} = 01001 squares inside the language; its interval is exact.
    sq = word_interval(example_slope, "01001" * 2)
    assert sq is not None
    lo, hi = form_bounds(example_slope, sq.length)
    assert 0 < lo and hi < Fraction(1, 10)


def _square_or_refusal(square, cf: ContinuedFraction, w: str):
    try:
        return square(cf, w)
    except UndecidedError as exc:
        return type(exc), str(exc)


def check_square_certificate(cf: ContinuedFraction, source: ContinuedFraction
                             ) -> tuple[int, int]:
    """`_square_is_factor` against the walk of w*2 itself, on every factor
    of `source` of lengths 1..60 and every one-letter flip of it: the same
    verdict, or the same refusal.  Returns how many words are squared and
    how many refused."""
    words = set()
    for n in range(1, 61):
        for w in factor_interval_map(source, n).words:
            words.add(w)
            words.update(w[:j] + "10"[int(w[j])] + w[j + 1:] for j in range(n))
    squares = refusals = 0
    for w in words:
        got = _square_or_refusal(rotation._square_is_factor, cf, w)
        expected = _square_or_refusal(lambda cf, w: word_interval(cf, w * 2) is not None, cf, w)
        assert got == expected, (str(cf), w)
        squares += got is True
        refusals += type(got) is tuple
    return squares, refusals


@pytest.mark.parametrize("slope", FAMILY_SLOPES)
def test_square_certificate_matches_the_walk_of_the_square(slope):
    cf = parse_slope(slope)
    assert check_square_certificate(cf, cf)[0] > 0


@settings(max_examples=3, deadline=None)
@given(st.integers(2, 9), st.lists(st.integers(1, 9), max_size=3),
       st.lists(st.integers(1, 9), min_size=1, max_size=4))
def test_square_certificate_matches_the_walk_on_drawn_slopes(a_1, preperiod, period):
    cf = ContinuedFraction((a_1, *preperiod), tuple(period))
    assert check_square_certificate(cf, cf)[0] > 0


@pytest.mark.parametrize("slope, counts", [("[0;3,1,4,1,5,9,2,6]", (110, 0)),
                                           ("[0;2,1,1]", (11, 73_660))])
def test_square_certificate_refuses_as_the_walk_on_truncations(slope, counts):
    # Words of an extension, so that lengths past the cylinder's factor
    # maps are asked too: [0;2,1,1] certifies reach 12 only, so every word
    # of 7 letters or more is refused, by both routes with the same message.
    cf = parse_slope(slope)
    assert check_square_certificate(cf, ContinuedFraction(cf.preperiod, (1,))) == counts


# ------------------------------------------------------------------
# three-distance partition
# ------------------------------------------------------------------

def test_three_distance_worked_example(example_slope):
    summary = three_distance(example_slope, 5)
    assert (summary.k, summary.l, summary.r) == (3, 1, 0)
    assert summary.gaps == ((3, LinearForm(3, 1)), (1, LinearForm(-5, -2)),
                            (2, LinearForm(-2, -1)))  # (short, mid, long)


def test_three_distance_at_convergent_length(example_slope):
    # n = q_3 = 8: exactly one gap of length ||q_3 alpha||.
    summary = three_distance(example_slope, 8)
    assert summary.l == 2 and summary.r == 0
    assert summary.gaps[0] == (1, LinearForm(-8, -3))  # the short type


def test_three_distance_precondition(example_slope):
    with pytest.raises(ValueError, match=re.escape("n must be >= 1, got 0")):
        three_distance(example_slope, 0)


def test_three_distance_counts_sum(family):
    for cf in family:
        for n in range(cf.quotient(1) + 1, 80):
            s = three_distance(cf, n)
            (_, short), (_, mid), (_, long) = s.gaps
            assert sum(count for count, _ in s.gaps) == n + 1
            assert long == short + mid
            # Ascending by the certified sign test of `compare`.
            assert compare(cf, short, mid) is compare(cf, mid, long) is Ordering.LT, (str(cf), n)


def test_three_distance_matches_gap_oracle(family):
    for cf in family:
        for n in range(cf.quotient(1) + 1, 120):
            s = three_distance(cf, n)
            counts = oracles.gap_spectrum(cf, n, [form for _, form in s.gaps])
            assert counts == [count for count, _ in s.gaps]


def assert_level_one_partition(cf: ContinuedFraction, n: int) -> None:
    """n <= a_1: n gaps alpha and one gap 1 - n*alpha, the shorter one from
    n = a_1 on (l = a_k); counts as the gap oracle finds them, lengths
    ascending by `compare`, long = short + mid."""
    s = three_distance(cf, n)
    (_, short), (_, mid), (_, long) = s.gaps
    assert (s.k, s.l, s.r) == (1, n, 0)
    assert long == short + mid
    assert compare(cf, short, mid) is compare(cf, mid, long) is Ordering.LT, (str(cf), n)
    assert oracles.gap_spectrum(cf, n, [short, mid, long]) == [c for c, _ in s.gaps]
    types = ((n, ALPHA), (1, ONE - n * ALPHA))
    assert s.gaps[:2] == (types if n < cf.quotient(1) else types[::-1])


@pytest.mark.parametrize("slope", ["[0;5,(1,7)]", "[0;7,(2)]", "[0;40,(3)]", "[0;9,1,2]", "[0;6]"])
def test_three_distance_answers_every_n_up_to_a_1(slope):
    cf = parse_slope(slope)
    for n in range(1, cf.quotient(1) + 1):
        assert_level_one_partition(cf, n)


def test_decomposition_uniqueness(family):
    # From n = 1: k = 1 has q_{-1} = 0 and q_0 = 1, so n <= a_1 is (1, n, 0),
    # and `three_distance` answers those n too; n < 1 is refused.
    from sturmian.exactnum import convergent
    for cf in family:
        a_1 = cf.quotient(1)
        for n in range(1, 200):
            k, l, r = three_distance_decomposition(cf, n)
            q_prev = convergent(cf, k - 1).q
            q_prev2 = convergent(cf, k - 2).q if k > 1 else 0
            assert n == l * q_prev + q_prev2 + r
            assert 1 <= k and 0 < l <= cf.quotient(k) and 0 <= r < q_prev
            assert (k == 1) == (n <= a_1)
            if n <= a_1:
                assert (k, l, r) == (1, n, 0)
                assert_level_one_partition(cf, n)
        # Below n = 1 no (k, l, r) with l > 0 exists: refused, not (1, n, 0).
        for n in (0, -3):
            with pytest.raises(ValueError, match=re.escape(f"n must be >= 1, got {n}")):
                three_distance_decomposition(cf, n)


# ------------------------------------------------------------------
# bounded slope-keyed caches
# ------------------------------------------------------------------

def test_slope_keyed_caches_are_bounded():
    for cache in (exactnum._ctx, exactnum.alpha_bounds, rotation.factor_interval_map):
        assert cache.cache_info().maxsize is not None, cache


def test_many_fresh_slopes_keep_memory_bounded():
    # 200 slopes no other test uses, 16 factor maps and 17 indices each.
    # With every cache unbounded this retains about 9 MB; once the caches
    # fill, their bounds hold it near 0.3 MB (one factor map is kept).
    slopes = [ContinuedFraction((2 + i % 3, 1 + i % 5), (1 + i % 4, 900 + i))
              for i in range(200)]
    gc.collect()
    tracemalloc.start()
    try:
        for cf in slopes:
            for n in range(1, 17):
                factors = factors_of_length(cf, n)
            for w, _ in factors:
                repetitions.index_by_interval(cf, w)
        del factors
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 4_000_000, retained


def test_a_cached_factor_map_holds_one_coding_not_its_words():
    # The 4,001 factors of length 4000 as strings would retain some 16 MB;
    # the map keeps their 8,000-letter coding and three integer lists.
    cf = parse_slope("[0;2,(1,2)]")
    rotation.factor_interval_map.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        factor_interval_map(cf, 4000)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000, retained
