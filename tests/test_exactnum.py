"""Tests for the exact continued-fraction kernel."""

from __future__ import annotations

import copy
import pickle
import random
import sys
import threading
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FAMILY_SLOPES, alpha_oracle, form_bounds, form_sign_oracle, unroll
from test_golden import cases as golden_cases
from test_golden import invoke
from sturmian import cli
from sturmian import exactnum as ex
from sturmian.exactnum import (
    ContinuedFraction,
    DepthExceededError,
    LinearForm,
    Ordering,
    SlopeSyntaxError,
    UndecidedError,
    best_approximations,
    closest_multiples,
    compare,
    convergent,
    convergent_distance,
    distance,
    enclosure,
    normalize_slope,
    parse_slope,
    recover_quotient,
    semiconvergent_den,
    semiconvergent_distance,
    semiconvergents,
)


# ------------------------------------------------------------------
# parsing
# ------------------------------------------------------------------

@pytest.mark.parametrize("text,pre,per", [
    ("[0;2,(1,2)]", (2,), (1, 2)),
    ("[0;(1)]", (1,), (1,)),
    ("[0;2,1,1]", (2, 1, 1), ()),
    ("[0; 2, (1, 2)]", (2,), (1, 2)),
    ("[0;5,1,(1)]", (5,), (1,)),  # a repeat of the period's last quotient rolls in
    ("[0;٣,(1)]", (3,), (1,)),  # a decimal digit int() reads
    # The canonical spelling: a_1 written, the period's primitive root, and
    # preperiod repeats of the period's last rolled in; never a_1 itself.
    ("[0;(2,1)]", (2,), (1, 2)),
    ("[0;2,(1,1,1)]", (2,), (1,)),
    ("[0;2,1,2,(1,2,1,2)]", (2,), (1, 2)),
    ("[0;3,4,1,(3,1)]", (3, 4), (1, 3)),
    ("[0;2,(2)]", (2,), (2,)),
    ("[0;2,1,1,1]", (2, 1, 1, 1), ()),  # a truncation keeps its spelling
])
def test_parse_slope(text, pre, per):
    cf = parse_slope(text)
    assert cf.preperiod == pre
    assert cf.period == per


def test_parse_slope_truncation_flag():
    cf = parse_slope("[0;2,1,1]")
    assert not cf.is_periodic
    assert cf.truncation_depth == 3
    assert parse_slope("[0;2,(1,2)]").truncation_depth is None


@pytest.mark.parametrize("bad", [
    "", "[0;]", "[1;2]", "[0;0]", "[0;-1]", "[0;2,()]", "[0;2,(1),3]",
    "[0;2 3]", "[0;2,,3]", "0;2]", "[0;2,(1,2]", "[0;²]", "[0;2,(²)]",
])
def test_parse_slope_rejects(bad):
    with pytest.raises(SlopeSyntaxError):
        parse_slope(bad)


def test_slope_roundtrip_str():
    for text in ["[0;2,(1,2)]", "[0;1,(1)]", "[0;2,1,1]", "[0;3,(2,1)]"]:
        assert str(parse_slope(text)) == text
    # A non-canonical spelling reads back as the number's one spelling.
    assert str(parse_slope("[0;(1)]")) == "[0;1,(1)]"


def reference_canonical(pre: tuple[int, ...], per: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The canonical spelling one rolled quotient at a time: the preperiod
    loses its last quotient while it repeats the period's last, and the
    period rotates right by one each time."""
    n = len(per)
    per = per[:next(r for r in range(1, n + 1) if n % r == 0 and per[:r] * (n // r) == per)]
    if not pre:
        pre, per = per[:1], per[1:] + per[:1]
    while len(pre) > 1 and pre[-1] == per[-1]:
        pre, per = pre[:-1], per[-1:] + per[:-1]
    return pre, per


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=3), st.lists(st.integers(1, 4), min_size=1, max_size=4),
       st.integers(1, 4), st.integers(0, 12), st.lists(st.integers(1, 4), max_size=3))
def test_canonical_matches_the_one_at_a_time_roll(head, root, copies, unrolled, repeats):
    # Repeated periods, whole or partial periods unrolled into the
    # preperiod, and preperiods that end in repeats of the period's last
    # quotient, each with and without a written a_1.
    period = tuple(root) * copies
    tail = (tuple(root) * unrolled)[(len(root) - 1) * unrolled:]  # the last `unrolled` quotients
    for pre in (tuple(head) + tail, tuple(head) + tail + (root[-1],) * len(repeats),
                tuple(head) + tuple(repeats) + tail):
        cf = ex._canonical(pre, period)
        assert (cf.preperiod, cf.period) == reference_canonical(pre, period), (pre, period)


def test_canonical_rolls_a_long_repeated_tail_in_linear_time():
    # A 1,000-quotient period written out 40 times before it: one rotation,
    # not one rebuild of both tuples per rolled quotient, which took about
    # 2 s on a 2-vCPU host against 0.03 s for the rotation.
    rng = random.Random(85)
    period = tuple(rng.randint(1, 9) for _ in range(1000))
    text = "[0;2," + ",".join(map(str, period * 40)) + ",(" + ",".join(map(str, period)) + ")]"
    start = time.perf_counter()
    cf = parse_slope(text)
    elapsed = time.perf_counter() - start
    assert (cf.preperiod, cf.period) == ((2,), period)  # 40,000 quotients roll in
    assert elapsed < 0.5, elapsed


def test_normalize_slope_respells_a_slope_built_directly():
    assert normalize_slope(ContinuedFraction((2, 1), (1, 1))) == (parse_slope("[0;2,(1)]"), False)
    assert normalize_slope(ContinuedFraction((), (1, 1))) == (parse_slope("[0;2,(1)]"), True)


# The constructor's check also guards `_make` and `_replace`, which a bare
# NamedTuple lets past its `__new__`.
_ROUTES = {
    "constructor": ContinuedFraction,
    "_make": lambda pre, per: ContinuedFraction._make((pre, per)),
    "_replace": lambda pre, per: parse_slope("[0;2,(1)]")._replace(preperiod=pre, period=per),
}


@pytest.mark.parametrize("route", list(_ROUTES))
@pytest.mark.parametrize("pre, per", [((2, True), (1,)), ((2,), (True,)), ((False, 2), ())])
def test_bool_quotients_are_refused(route, pre, per):
    with pytest.raises(ValueError, match="partial quotients must be positive integers"):
        _ROUTES[route](pre, per)


def test_slopes_are_not_ordered():
    # Tuple order is not the order of the slopes.
    cf, other = parse_slope("[0;2,(1,2)]"), parse_slope("[0;3,(1)]")
    for order in (lambda: cf < other, lambda: cf <= other, lambda: sorted([cf, other])):
        with pytest.raises(TypeError):
            order()


@pytest.mark.parametrize("text", ["[0;2,(1,2)]", "[0;2,1,1]"])
def test_a_copied_slope_shares_its_cache_entry(text):
    cf = parse_slope(text)
    for twin in (copy.copy(cf), copy.deepcopy(cf), pickle.loads(pickle.dumps(cf))):
        assert type(twin) is ContinuedFraction
        assert twin == cf and hash(twin) == hash(cf)
        assert ex._ctx(twin) is ex._ctx(cf)


def test_a_slope_and_a_convergent_are_the_tuples_of_their_fields():
    cf = parse_slope("[0;2,(1,2)]")
    assert cf == ((2,), (1, 2)) and hash(cf) == hash(((2,), (1, 2)))
    c = convergent(cf, 3)
    assert c == (3, 3, 8) and (c.k, c.p, c.q) == (3, 3, 8)


# ------------------------------------------------------------------
# normalization
# ------------------------------------------------------------------

@pytest.mark.parametrize("text,expected,swap", [
    ("[0;(1)]", "[0;2,(1)]", True),
    ("[0;2,(1,2)]", "[0;2,(1,2)]", False),
    ("[0;1,(3)]", "[0;4,(3)]", True),
    ("[0;1,1]", "[0;2]", True),
    ("[0;(1,3)]", "[0;4,(1,3)]", True),
    ("[0;1,2,(5)]", "[0;3,(5)]", True),
    ("[0;1,(1,2)]", "[0;2,(2,1)]", True),  # [0;2,2,(1,2)] rolls one 2 in
])
def test_normalize_slope(text, expected, swap):
    got, got_swap = normalize_slope(parse_slope(text))
    assert str(got) == expected
    assert got_swap is swap


def test_normalize_preserves_tail():
    # Dropping a_1 = 1 and bumping a_2 must leave the quotient stream intact.
    for text in ["[0;(1)]", "[0;1,(3)]", "[0;(1,3)]", "[0;1,2,(5)]", "[0;(1,2)]"]:
        cf = parse_slope(text)
        norm, swap = normalize_slope(cf)
        assert swap
        seq = unroll(cf, 21)
        assert seq[0] == 1
        assert unroll(norm, 19) == [seq[1] + 1] + seq[2:20]


def test_normalize_depth_error():
    with pytest.raises(DepthExceededError):
        normalize_slope(parse_slope("[0;1]"))


# ------------------------------------------------------------------
# convergents and semiconvergents
# ------------------------------------------------------------------

def test_convergents_worked_example(example_slope):
    qs = [convergent(example_slope, k).q for k in range(4)]
    assert qs == [1, 2, 3, 8]
    assert convergent(example_slope, 3).p == 3


def test_convergents_fibonacci(fib_slope):
    assert [convergent(fib_slope, k).q for k in range(6)] == [1, 2, 3, 5, 8, 13]


def test_convergents_match_bottom_up_evaluation(family):
    for cf in family:
        for k in range(1, 12):
            c = convergent(cf, k)
            x = Fraction(0)
            for a in reversed(unroll(cf, k)):
                x = 1 / (a + x)
            assert Fraction(c.p, c.q) == x


def test_determinant_identity(family):
    for cf in family:
        for k in range(1, 40):
            a = convergent(cf, k)
            b = convergent(cf, k - 1)
            assert a.p * b.q - b.p * a.q == (-1) ** (k - 1)


def test_denominators_increase(family):
    for cf in family:
        qs = [convergent(cf, k).q for k in range(30)]
        assert all(qs[k] < qs[k + 1] for k in range(1, 29))


def test_convergent_depth_error():
    cf = parse_slope("[0;2,1,1]")
    assert convergent(cf, 3).q == 5
    with pytest.raises(DepthExceededError):
        convergent(cf, 4)


def test_semiconvergents_worked_example(example_slope):
    assert semiconvergent_den(example_slope, 3, 1) == 5
    assert semiconvergent_den(example_slope, 3, 0) == 2
    assert semiconvergent_den(example_slope, 3, 2) == 8


def test_semiconvergent_range_errors(example_slope):
    with pytest.raises(ValueError):
        semiconvergent_den(example_slope, 3, 3)
    with pytest.raises(ValueError):
        semiconvergent_den(example_slope, 1, 0)


def check_semiconvergents_brute_force(cf: ContinuedFraction) -> None:
    """semiconvergents(cf, N) lists every (k, l) with q_{k,l} <= N, by length."""
    found = sorted(((k, l, semiconvergent_den(cf, k, l))
                    for k in range(2, 21) for l in range(1, cf.quotient(k) + 1)),
                   key=lambda t: t[2])
    for n_max in range(1, 501):
        assert list(semiconvergents(cf, n_max)) == [t for t in found if t[2] <= n_max]


@pytest.mark.parametrize("slope", FAMILY_SLOPES)
def test_semiconvergents_brute_force(slope):
    check_semiconvergents_brute_force(parse_slope(slope))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.lists(st.integers(1, 6), max_size=4),
       st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_semiconvergents_brute_force_on_drawn_slopes(a1, preperiod, period):
    check_semiconvergents_brute_force(ContinuedFraction((a1, *preperiod), tuple(period)))


@pytest.mark.parametrize("slope, answered, lengths, refused", [
    ("[0;2,1,1,1]", 7, [3, 5], 8),  # q_4 = 8 needs a_5 next
    ("[0;70]", 69, [], 70),         # q_1 = 70 needs a_2 next
])
def test_semiconvergents_read_a_k_once_q_k_minus_1_is_in_bound(slope, answered, lengths, refused):
    cf = parse_slope(slope)
    assert [q for _, _, q in semiconvergents(cf, answered)] == lengths
    with pytest.raises(DepthExceededError):
        list(semiconvergents(cf, refused))


# ------------------------------------------------------------------
# enclosures
# ------------------------------------------------------------------

def test_enclosure_contains_true_value(example_slope):
    # Independent bounds from bottom-up evaluation at high depth.
    lo_a, hi_a = alpha_oracle(example_slope, 50)
    for q, p in [(1, 0), (3, 1), (-5, -2), (17, 6), (0, -4)]:
        lo, hi = enclosure(example_slope, LinearForm(q, p), 12)
        assert lo <= q * lo_a - p <= hi or lo <= q * hi_a - p <= hi
        # The tight oracle interval must sit inside the depth-12 enclosure.
        vals = sorted([q * lo_a - p, q * hi_a - p])
        assert lo <= vals[0] and vals[1] <= hi


def test_enclosure_width_bound(family):
    for cf in family:
        for d in (4, 9, 15):
            for q, p in [(1, 0), (123, 45), (-77, -28)]:
                lo, hi = enclosure(cf, LinearForm(q, p), d)
                qd = convergent(cf, d).q
                qd1 = convergent(cf, d + 1).q
                assert hi - lo <= Fraction(abs(q), qd * qd1)


def test_enclosure_nesting(family):
    # Deeper enclosures are contained in shallower ones (depth d vs d+4).
    for cf in family:
        for n in (1, 7, 123, 4096, 9973):
            p = round(n * 0.381966)  # any integer offset works here
            for d in (4, 8, 16, 24):
                outer_lo, outer_hi = enclosure(cf, LinearForm(n, p), d)
                inner_lo, inner_hi = enclosure(cf, LinearForm(n, p), d + 4)
                assert outer_lo <= inner_lo and inner_hi <= outer_hi


def test_enclosure_depth_error_on_truncation():
    cf = parse_slope("[0;2,1,1]")
    enclosure(cf, LinearForm(1, 0), 3)  # cylinder bound at the final depth
    with pytest.raises(DepthExceededError):
        enclosure(cf, LinearForm(1, 0), 4)


# ------------------------------------------------------------------
# sign / compare
# ------------------------------------------------------------------

def test_linear_form_is_a_value_tuple(example_slope):
    # A form is a tuple for equality and hashing only: arithmetic is the
    # form's (3 * f scales, not repeats), and forms are not ordered.
    f, g = LinearForm(3, 1), LinearForm(-2, -1)
    assert 3 * f == f * 3 == LinearForm(9, 3)
    assert (-f, f + g, f - g) == (LinearForm(-3, -1), LinearForm(1, 0), LinearForm(5, 2))
    assert {type(x) for x in (3 * f, f * 3, -f, f + g, f - g)} == {LinearForm}
    assert [str(x) for x in (f, g, LinearForm(1, 0), LinearForm(0, -2))] == ["3a-1", "-2a+1",
                                                                          "a", "2"]
    assert repr(LinearForm(1, 0)) == "LinearForm(q=1, p=0)"
    for less in (lambda: f < g, lambda: f <= g, lambda: f > g, lambda: f >= g,
                 lambda: f < (4, 0), lambda: (4, 0) > f, lambda: sorted([f, g])):
        with pytest.raises(TypeError):
            less()
    # Equal forms hash alike, and a form equals the plain tuple (q, p).
    assert hash(f) == hash(LinearForm(3, 1)) == hash((3, 1)) and f == (3, 1)
    lookup = {f: "f", g: "g"}
    assert lookup[LinearForm(3, 1)] == lookup[(3, 1)] == "f" and lookup[-(-g)] == "g"
    # The quotient sandwich of the closest-multiples suite scales by a_k on the left.
    prev, prev2 = convergent_distance(example_slope, 2), convergent_distance(example_slope, 1)
    a_3 = example_slope.quotient(3)
    assert compare(example_slope, a_3 * prev, prev2) is Ordering.LT
    assert compare(example_slope, prev2, (a_3 + 1) * prev) is Ordering.LT


def test_compare_identical_is_eq(example_slope):
    x = LinearForm(3, 1)
    assert compare(example_slope, x, x) is Ordering.EQ


def test_compare_distances_worked_example(example_slope):
    assert compare(example_slope, distance(example_slope, 3), distance(example_slope, 2)) is Ordering.LT


def test_compare_reduces_distance_difference(example_slope):
    # ||5a|| equals ||2a|| - ||3a|| as identical reduced forms.
    lhs = distance(example_slope, 5)
    rhs = distance(example_slope, 2) - distance(example_slope, 3)
    assert lhs == rhs
    assert compare(example_slope, lhs, rhs) is Ordering.EQ


def test_sign_matches_oracle(family):
    forms = [LinearForm(q, p) for q, p in
             [(1, 0), (2, 1), (-3, -1), (5, 2), (13, 5), (-30, -11), (7, 3)]]
    for cf in family:
        for form in forms:
            assert ex.sign(cf, form) == form_sign_oracle(cf, form)


def test_sign_undecided_on_shallow_truncation():
    cf = parse_slope("[0;2,1,1]")
    # alpha is only pinned to (3/8, 2/5); 80*alpha - 31 straddles zero there.
    with pytest.raises(UndecidedError):
        ex.sign(cf, LinearForm(80, 31))


# ------------------------------------------------------------------
# distances
# ------------------------------------------------------------------

def test_distance_forms_worked_example(example_slope):
    assert distance(example_slope, 3) == LinearForm(3, 1)
    assert distance(example_slope, 2) == LinearForm(-2, -1)
    assert distance(example_slope, 5) == LinearForm(-5, -2)


def test_distance_trivial_first_multiple(fib_slope):
    assert distance(fib_slope, 1) == LinearForm(1, 0)


def test_distance_is_nonnegative_and_below_half(family):
    for cf in family:
        for n in range(1, 120):
            form = distance(cf, n)
            lo, hi = form_bounds(cf, form)
            assert lo > 0
            assert hi < Fraction(1, 2)


def test_distance_matches_semiconvergent_recurrence(family):
    # (-1)^k (q_{k,l} a - p_{k,l}) is the nearest-integer distance form.
    # The convergent forms follow the same sign rule down to the conventions
    # ||q_-1 a|| = 1 and ||q_0 a|| = ||a|| = alpha, which the gate reads
    # through recover_quotient(cf, 1) and the closest multiples at k = 2.
    for cf in family:
        assert convergent_distance(cf, -1) == ex.ONE == LinearForm(0, -1)
        assert convergent_distance(cf, 0) == ex.ALPHA == distance(cf, 1) == LinearForm(1, 0)
        assert recover_quotient(cf, 1) == cf.quotient(1)
        for k in range(2, 9):
            assert convergent_distance(cf, k - 2) == semiconvergent_distance(cf, k, 0)
            for l in range(0, cf.quotient(k) + 1):
                n = semiconvergent_den(cf, k, l)
                assert distance(cf, n) == semiconvergent_distance(cf, k, l)


def test_distance_difference_identity(family):
    # ||q_{k,l} a|| = ||q_{k,l-1} a|| - ||q_{k-1} a|| as exact forms.
    for cf in family:
        for k in range(2, 11):
            for l in range(1, cf.quotient(k) + 1):
                lhs = semiconvergent_distance(cf, k, l)
                rhs = semiconvergent_distance(cf, k, l - 1) - convergent_distance(cf, k - 1)
                assert lhs == rhs


def test_min_distance_over_initial_segment(family):
    # For 0 < n < q_k the closest multiple is q_{k-1}.
    for cf in family:
        for k in range(2, 6):
            qk = convergent(cf, k).q
            qk1 = convergent(cf, k - 1).q
            best = distance(cf, qk1)
            for n in range(1, qk):
                rel = compare(cf, distance(cf, n), best)
                if n == qk1:
                    assert rel is Ordering.EQ
                else:
                    assert rel is Ordering.GT


def test_max_coefficient_sandwich(family):
    # a_k ||q_{k-1} a|| < ||q_{k-2} a|| < (a_k + 1) ||q_{k-1} a||.
    for cf in family:
        for k in range(2, 12):
            a_k = cf.quotient(k)
            prev = convergent_distance(cf, k - 1)
            prev2 = convergent_distance(cf, k - 2)
            assert compare(cf, a_k * prev, prev2) is Ordering.LT
            assert compare(cf, prev2, (a_k + 1) * prev) is Ordering.LT


# ------------------------------------------------------------------
# recovered quotients
# ------------------------------------------------------------------

def test_recover_quotient_roundtrip(family):
    for cf in family:
        for k in range(1, 26):
            assert recover_quotient(cf, k) == cf.quotient(k)


def test_recover_quotient_base_case(example_slope):
    assert recover_quotient(example_slope, 1) == 2


def test_recover_quotient_on_truncation_within_depth():
    cf = parse_slope("[0;2,1,1]")
    assert recover_quotient(cf, 3) == 1


# ------------------------------------------------------------------
# best approximations
# ------------------------------------------------------------------

def scan_best_denominators(cf: ContinuedFraction, q_max: int) -> list[int]:
    """Exhaustive oracle: b is best iff ||b a|| beats every smaller multiple."""
    lo_a, hi_a = alpha_oracle(cf, 120)
    best: list[int] = []
    current = Fraction(1)
    for b in range(1, q_max + 1):
        # ||b a|| with a safety check that the oracle interval separates.
        cands = sorted([abs(b * lo_a - round(b * lo_a)), abs(b * hi_a - round(b * hi_a))])
        assert cands[1] - cands[0] < Fraction(1, 10**30)
        val = cands[1]
        if val < current:
            best.append(b)
            current = val
    return best


def test_best_approximations_examples(example_slope, fib_slope):
    assert [c.q for c in best_approximations(example_slope, 8)] == [1, 2, 3, 8]
    assert [c.q for c in best_approximations(example_slope, 1)] == [1]
    assert [c.q for c in best_approximations(fib_slope, 13)] == [1, 2, 3, 5, 8, 13]


def test_best_approximations_match_exhaustive_scan(family):
    for cf in family:
        assert [c.q for c in best_approximations(cf, 200)] == scan_best_denominators(cf, 200)


# ------------------------------------------------------------------
# closest multiples
# ------------------------------------------------------------------

def scan_closest_multiples(cf: ContinuedFraction, k: int, l: int) -> list[int]:
    lo_a, hi_a = alpha_oracle(cf, 120)

    def norm(n: int) -> Fraction:
        v = sorted([abs(n * lo_a - round(n * lo_a)), abs(n * hi_a - round(n * hi_a))])
        assert v[1] - v[0] < Fraction(1, 10**30)
        return v[1]

    q_kl = semiconvergent_den(cf, k, l)
    bound = norm(semiconvergent_den(cf, k, l - 1))  # l=1 gives ||q_{k-2} a||
    return [n for n in range(1, q_kl) if norm(n) < bound]


def test_closest_multiples_examples(example_slope):
    assert closest_multiples(example_slope, 3, 1) == [3]
    assert closest_multiples(example_slope, 2, 1) == [2]


def test_closest_multiples_match_exhaustive_scan(family):
    for cf in family:
        for k in range(2, 8):
            for l in range(1, cf.quotient(k) + 1):
                if semiconvergent_den(cf, k, l) > 500:
                    continue
                got = closest_multiples(cf, k, l)
                assert got == scan_closest_multiples(cf, k, l)
                q_prev = convergent(cf, k - 1).q
                assert all(n % q_prev == 0 for n in got)


# ------------------------------------------------------------------
# decimal rendering
# ------------------------------------------------------------------

def test_approx_str_frozen_digits(example_slope):
    assert ex.approx_str(example_slope, LinearForm(1, 0)) == "0.366025403784"
    assert ex.approx_str(example_slope, LinearForm(3, 1)) == "0.0980762113533"
    assert ex.approx_str(example_slope, LinearForm(-2, -1)) == "0.267949192431"
    assert ex.approx_str(example_slope, LinearForm(-5, -2)) == "0.169872981078"
    assert ex.approx_str(example_slope, LinearForm(0, -2)) == "2.00000000000"
    # A constant form takes no special path: both ends of the first bracket
    # are its value, and 0*alpha rounds to 0, on truncations as on periodic slopes.
    for text in ("[0;2]", "[0;2,1,1]", "[0;2,(1)]"):
        cf = parse_slope(text)
        assert ex.nearest_integer(cf, 0) == 0
        for p in range(-30, 31):
            for digits in (1, 12):
                assert (ex.approx_str(cf, LinearForm(0, p), digits) ==
                        ex.decimal_str(Fraction(-p), digits)), (text, p, digits)


def test_approx_str_deterministic(family):
    for cf in family:
        form = distance(cf, 37)
        assert ex.approx_str(cf, form) == ex.approx_str(cf, form)


@pytest.mark.parametrize("digits", [0, -1])
def test_renderings_reject_digit_counts_below_one(digits):
    cf = ex.parse_slope("[0;2,(1)]")
    for render, args in ((ex.approx_str, (cf, LinearForm(3, 1))),
                         (ex.approx_str, (cf, LinearForm(0, -2))),
                         (ex.decimal_str, (Fraction(1, 7),))):
        with pytest.raises(ValueError, match=f"digits must be >= 1, got {digits}"):
            render(*args, digits)


def reference_schedule(cf: ContinuedFraction) -> list[int]:
    """The depths 4, 8, 16, ..., max_depth() that the references walk: the
    schedule the package deepened along before its one depth rule."""
    top = cf.max_depth()
    ds, d = [], 4
    while d < top:
        ds.append(d)
        d *= 2
    ds.append(top)
    return ds


def rule_depth(cf: ContinuedFraction, n: int) -> int:
    """The depth rule for n on cf under the cap read now."""
    return ex._ctx(cf).bracket_depth(n, cf.max_depth())


def reference_round_fraction(x: Fraction, digits: int) -> str:
    """The Fraction-loop renderer that the integer one replaced."""
    if x == 0:
        return "0." + "0" * (digits - 1)
    neg = x < 0
    x = -x if neg else x
    e = 0
    while x >= 1:
        x /= 10
        e += 1
    while x < Fraction(1, 10):
        x *= 10
        e -= 1
    scaled = x * 10 ** digits
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        n += 1
    mantissa = str(n)
    if len(mantissa) > digits:
        mantissa = mantissa[:digits]
        e += 1
    body = ("-" if neg else "")
    if 0 < e <= digits:
        int_part = mantissa[:e]
        frac_part = mantissa[e:]
        return body + (int_part + ("." + frac_part if frac_part else ""))
    if e <= 0 and e > -5:
        return body + "0." + "0" * (-e) + mantissa
    return body + mantissa[0] + "." + mantissa[1:] + f"e{e - 1:+d}"


def reference_approx_str(cf: ContinuedFraction, form: LinearForm, digits: int) -> str:
    """The renderer that rounded both ends of an enclosure at each depth."""
    if form.q == 0:
        return reference_round_fraction(Fraction(-form.p), digits)
    for d in reference_schedule(cf):
        lo, hi = reference_enclosure(cf, form, d)
        lo_s = reference_round_fraction(lo, digits)
        hi_s = reference_round_fraction(hi, digits)
        if lo_s == hi_s:
            return lo_s
    raise UndecidedError(f"cannot render {form} to {digits} digits for slope {cf}")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UndecidedError as exc:
        return f"UndecidedError: {exc}"


DIGITS = st.integers(1, 12)


@st.composite
def edge_rationals(draw) -> Fraction:
    """Powers of ten, one below them, and values just under a rounding boundary."""
    k = draw(st.integers(-12, 14))
    j = draw(st.integers(1, 14))
    scale = Fraction(10) ** k
    value = draw(st.sampled_from([
        scale,
        scale - 1,
        scale * Fraction(10 ** j - 1, 10 ** j),           # 0.99..9 * 10^k
        scale * Fraction(2 * 10 ** j - 1, 2 * 10 ** j),   # 0.99..95: rounds up
        scale * Fraction(2 * 10 ** j - 3, 2 * 10 ** j),   # 0.99..85: a digit lower
    ]))
    return -value if draw(st.booleans()) else value


RATIONALS = st.one_of(
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 12)),
    edge_rationals(),
)


@settings(max_examples=1000, deadline=None)
@given(RATIONALS, DIGITS)
@example(Fraction(0), 1)
@example(Fraction(999999999999, 10 ** 12), 12)         # no overflow at 12 digits
@example(Fraction(1999999999999, 2 * 10 ** 12), 12)    # overflow to 1.00000000000
@example(Fraction(-1999999999999, 2 * 10 ** 17), 12)   # overflow lifts e from -5 to -4
@example(Fraction(1999999999999, 2 * 10 ** 18), 12)    # overflow, exponent form kept
@example(Fraction(10) ** 12, 12)                       # e = digits + 1
@example(Fraction(10) ** 12 - 1, 12)                   # e = digits, exact
@example(Fraction(10) ** 13 - 1, 12)                   # overflow past e = digits + 1
@example(Fraction(1, 10 ** 5), 3)                      # smallest value without exponent
@example(Fraction(999, 10 ** 8), 3)                    # e = -5, exponent form
def test_decimal_str_matches_fraction_loop(x, digits):
    assert ex.decimal_str(x, digits) == reference_round_fraction(x, digits)


@pytest.mark.parametrize("x,expected", [
    (Fraction(1, 10 ** 60000), "1.00000000000e-60000"),
    (Fraction(10 ** 60000 - 1), "1.00000000000e+60000"),
    (Fraction(-2, 3 * 10 ** 5000), "-6.66666666667e-5001"),
    (Fraction(1, 2 ** 200000), "1.00199880541e-60206"),
    (Fraction(2 ** 64 - 1, 2 ** 200015), "5.64075180832e-60192"),
    (Fraction(2 ** 200000, 3), "3.32668393949e+60205"),
])
def test_decimal_str_far_exponents(x, expected):
    # Too far for the Fraction loop, which divides by 10 once per decade.
    # The powers of two check the bit-length bound on the exponent: with
    # 1233/4096 for negative bit-length differences too, the bound would
    # overshoot at (2**64 - 1) / 2**200015.  Expected strings from
    # decimal.Context(prec=12, rounding=ROUND_HALF_UP).
    assert ex.decimal_str(x) == expected


@st.composite
def slopes(draw) -> ContinuedFraction:
    quotients = st.lists(st.integers(1, 9), min_size=1, max_size=3)
    if draw(st.booleans()):
        return ContinuedFraction(tuple(draw(st.lists(st.integers(1, 9), max_size=3))),
                                 tuple(draw(quotients)))
    return ContinuedFraction(tuple(draw(st.lists(st.integers(1, 9), min_size=1,
                                                 max_size=14))))


@st.composite
def forms(draw) -> tuple[ContinuedFraction, LinearForm]:
    """A slope and a form on it, half the time q*alpha minus a nearby integer."""
    cf = draw(slopes())
    q = draw(st.integers(-10 ** 7, 10 ** 7))
    if draw(st.booleans()):
        c = convergent(cf, min(8, cf.max_depth()))
        p = q * c.p // c.q + draw(st.integers(-1, 2))
    else:
        p = draw(st.integers(-10 ** 7, 10 ** 7))
    return cf, LinearForm(q, p)


@settings(max_examples=500, deadline=None)
@given(forms(), DIGITS)
@example((parse_slope("[0;3,1,4,1,5,9,2,6]"), LinearForm(5, 1)), 12)  # undecided
@example((parse_slope("[0;2,(1,2)]"), LinearForm(0, 7)), 3)
def test_approx_str_matches_enclosure_rendering(case, digits):
    # Refusals must match too, message included.
    cf, form = case
    assert _outcome(ex.approx_str, cf, form, digits) == \
        _outcome(reference_approx_str, cf, form, digits)


def test_golden_decimals_are_decided_by_the_first_bracket(monkeypatch):
    # Every decimal the golden commands print on a periodic slope: the rule's
    # first bracket settles it, one _render per end, and every depth from the
    # start of the narrower question isqrt(|q| * 10**digits) to the cap at
    # which both ends round alike gives the same string.
    monkeypatch.delenv("STURM_DEPTH_LIMIT", raising=False)
    seen = set()

    def recorded(cf, form, digits=12):
        if cf.is_periodic:
            seen.add((cf, form, digits))
        return ex.approx_str(cf, form, digits)

    monkeypatch.setattr(cli, "approx_str", recorded)
    for argv in golden_cases():
        invoke(argv)
    assert len(seen) >= 10
    render, calls = ex._render, []
    monkeypatch.setattr(ex, "_render", lambda *args: calls.append(args) or render(*args))
    for cf, (q, p), digits in seen:
        calls.clear()
        text = ex.approx_str(cf, LinearForm(q, p), digits)
        assert len(calls) == 2, (str(cf), q, p)
        for d in range(rule_depth(cf, isqrt(abs(q) * 10 ** digits)), cf.max_depth() + 1):
            a, b, c, e = ex.alpha_bounds(cf, d)
            ends = {render(q * a - p * b, b, digits), render(q * c - p * e, e, digits)}
            assert len(ends) == 2 or ends == {text}, (str(cf), q, p, d)


# ------------------------------------------------------------------
# integer deepening loop against the Fraction versions it replaced
# ------------------------------------------------------------------

def reference_alpha_bounds(cf: ContinuedFraction, d: int) -> tuple[Fraction, Fraction]:
    """lo < alpha < hi from the convergents at depths d and d + 1, or from the
    cylinder (p_d/q_d and its mediant with depth d - 1) at a truncation's end."""
    c = convergent(cf, d)
    a = Fraction(c.p, c.q)
    if d == cf.truncation_depth:
        c1 = convergent(cf, d - 1)
        b = Fraction(c.p + c1.p, c.q + c1.q)
    else:
        c1 = convergent(cf, d + 1)
        b = Fraction(c1.p, c1.q)
    return (a, b) if a < b else (b, a)


def reference_enclosure(cf: ContinuedFraction, form: LinearForm, d: int
                        ) -> tuple[Fraction, Fraction]:
    lo_a, hi_a = reference_alpha_bounds(cf, d)
    ends = (form.q * lo_a - form.p, form.q * hi_a - form.p)
    return min(ends), max(ends)


def reference_sign(cf: ContinuedFraction, form: LinearForm) -> int:
    if form.q == 0:
        return 0 if form.p == 0 else (-1 if form.p > 0 else 1)
    for d in reference_schedule(cf):
        lo, hi = reference_enclosure(cf, form, d)
        if lo >= 0:
            return 1
        if hi <= 0:
            return -1
    raise UndecidedError(
        f"sign of {form} undecided within depth {cf.max_depth()} for slope {cf}")


def reference_nearest_integer(cf: ContinuedFraction, n: int) -> int:
    if n == 0:
        return 0
    for d in reference_schedule(cf):
        lo, hi = reference_enclosure(cf, LinearForm(n, 0), d)
        p_lo = (2 * lo.numerator + lo.denominator) // (2 * lo.denominator)
        p_hi = (2 * hi.numerator + hi.denominator) // (2 * hi.denominator)
        if p_lo == p_hi:
            return p_lo
    raise UndecidedError(f"nearest integer to {n}*alpha undecided for slope {cf}")


def reference_floor_ratio(cf: ContinuedFraction, num: LinearForm, den: LinearForm) -> int:
    for d in reference_schedule(cf):
        n_lo, n_hi = reference_enclosure(cf, num, d)
        d_lo, d_hi = reference_enclosure(cf, den, d)
        if d_lo <= 0 or n_lo < 0:
            continue
        m_lo = n_lo // d_hi
        m_hi = n_hi // d_lo
        if m_lo == m_hi:
            return int(m_lo)
        if m_hi == m_lo + 1:
            s = reference_sign(cf, num - int(m_hi) * den)
            return int(m_hi) if s >= 0 else int(m_lo)
    raise UndecidedError(f"floor({num}/{den}) undecided for slope {cf}")


# [0;3,1,4,1,5,9,2] ends at depth 7 with p_6/q_6 = 321/1229, p_7/q_7 = 677/2592.
# 5050a - 1319 puts 1319/5050 (the mediant of p_6/q_6 and the cylinder end
# 998/3821) between p_6/q_6 and the cylinder: only the depth-7 cylinder
# bound decides its sign.
CYLINDER_ONLY = (parse_slope("[0;3,1,4,1,5,9,2]"), LinearForm(5050, 1319))


@settings(max_examples=500, deadline=None)
@given(forms())
@example((parse_slope("[0;2,(1,2)]"), LinearForm(-11, -3)))     # negative q
@example(CYLINDER_ONLY)
@example((parse_slope("[0;3,1,4,1]"), LinearForm(23, 6)))       # 0 = lower end at depth 4
@example((parse_slope("[0;3,1,4,1]"), LinearForm(-23, -6)))     # 0 = upper end at depth 4
def test_sign_matches_fraction_reference(case):
    cf, form = case
    assert _outcome(ex.sign, cf, form) == _outcome(reference_sign, cf, form)


def test_sign_decided_only_by_cylinder():
    cf, form = CYLINDER_ONLY
    assert reference_schedule(cf) == [4, 7]
    assert rule_depth(cf, abs(form.q)) == 7
    assert ex.sign(cf, form) == 1
    # Bounded by p_6/q_6 instead of the mediant, depth 7 would not decide.
    lo = Fraction(5050 * 321, 1229) - 1319
    hi = Fraction(5050 * 677, 2592) - 1319
    assert lo < 0 < hi


@settings(max_examples=300, deadline=None)
@given(slopes(), st.integers(-10 ** 9, 10 ** 9))
@example(parse_slope("[0;2,(1,2)]"), -7)
@example(parse_slope("[0;2]"), 1)
@example(parse_slope("[0;7,7]"), -825)
def test_nearest_integer_matches_fraction_reference(cf, n):
    got = _outcome(ex.nearest_integer, cf, n)
    want = _outcome(reference_nearest_integer, cf, n)
    if isinstance(want, str) and not isinstance(got, str):
        # The reference reads the open upper end as closed, so it refuses
        # an end exactly halfway between two integers.  Only a truncation's
        # cylinder can end there, and the answer holds on all of it.
        assert not cf.is_periodic
        for tail in ((1,), (2, 9)):
            assert ex.nearest_integer(ContinuedFraction(cf.preperiod, tail), n) == got
    else:
        assert got == want


def test_nearest_integer_decides_at_a_halfway_upper_end():
    # On [0;2] alpha lies in (1/3, 1/2), and -825*alpha on [0;7,7] in
    # (-825*8/57, -115.5): the open upper end is halfway, yet the nearest
    # integer is fixed on the whole cylinder.
    for text, n, nearest in (("[0;2]", 1, 0), ("[0;7,7]", -825, -116)):
        cf = parse_slope(text)
        assert ex.nearest_integer(cf, n) == nearest
        with pytest.raises(UndecidedError):
            reference_nearest_integer(cf, n)


@st.composite
def ratios(draw) -> tuple[ContinuedFraction, LinearForm, LinearForm]:
    """A slope, den = q*alpha less the integer below it (by a convergent) and
    num = k*den + a drawn form of either sign, zero included."""
    cf = draw(slopes())
    c = convergent(cf, min(8, cf.max_depth()))

    def near(q: int) -> LinearForm:
        return LinearForm(q, q * c.p // c.q)

    den = near(draw(st.integers(1, 10 ** 5)))
    extra = draw(st.sampled_from([1, -1])) * near(draw(st.integers(0, 10 ** 5)))
    return cf, draw(st.integers(0, 60)) * den + extra, den


@settings(max_examples=500, deadline=None)
@given(ratios())
@example((parse_slope("[0;2,(1,2)]"), LinearForm(-15, -6), LinearForm(-5, -2)))  # 3 * den
@example((parse_slope("[0;2,(1,2)]"), LinearForm(2, 1), LinearForm(3, 1)))  # num < 0
def test_floor_ratio_matches_fraction_reference(case):
    cf, num, den = case
    assert _outcome(ex.floor_ratio, cf, num, den) == \
        _outcome(reference_floor_ratio, cf, num, den)


def test_floor_ratio_exact_multiple_takes_sign_zero_branch(example_slope):
    den = distance(example_slope, 5)  # -5a + 2
    num = 3 * den
    for d in reference_schedule(example_slope):  # the boundary case at every depth
        (n_lo, n_hi), (d_lo, d_hi) = (enclosure(example_slope, num, d),
                                      enclosure(example_slope, den, d))
        assert (n_lo // d_hi, n_hi // d_lo) == (2, 3)
    assert ex.sign(example_slope, num - 3 * den) == 0
    assert ex.floor_ratio(example_slope, num, den) == 3
    assert reference_floor_ratio(example_slope, num, den) == 3


def test_alpha_bounds_match_fraction_reference(family):
    cfs = family + [parse_slope("[0;2,1,1]"), parse_slope("[0;3,1,4,1,5,9,2,6]")]
    for cf in cfs:
        for d in range(1, min(30, cf.max_depth()) + 1):
            a, b, c, e = ex.alpha_bounds(cf, d)
            assert b > 0 and e > 0
            assert (Fraction(a, b), Fraction(c, e)) == reference_alpha_bounds(cf, d)


# ------------------------------------------------------------------
# the depth rule
# ------------------------------------------------------------------

def walked_spans(cf: ContinuedFraction) -> list[int]:
    """b + e of the bracket `alpha_bounds(cf, d)` for d = 1..max_depth()."""
    return [b + e for _, b, _, e in
            (ex.alpha_bounds(cf, d) for d in range(1, cf.max_depth() + 1))]


def walked_depth(spans: list[int], n: int) -> int:
    """The depth rule by a walk over every depth of `walked_spans`: the first
    d with b + e > n, else the last."""
    return next((d for d, span in enumerate(spans, 1) if span > n), len(spans))


@pytest.mark.parametrize("slope", [*FAMILY_SLOPES, "[0;2,1,1]", "[0;3,1,4,1,5,9,2,6]"])
def test_the_depth_rule_matches_a_walk_over_every_depth(slope):
    cf = parse_slope(slope)
    spans = walked_spans(cf)
    if cf.truncation_depth is not None:
        # The cylinder at the last depth m: q_m and q_m + q_{m-1}.
        m = cf.truncation_depth
        assert spans[-1] == 2 * convergent(cf, m).q + convergent(cf, m - 1).q
    # Every n up to the top span on the truncations (20,000 on the periodic
    # slopes, whose top span has 26 digits), and both sides of every span.
    ns = {*range(min(spans[-1], 20_000) + 2), *(s + k for s in spans for k in (-1, 0, 1))}
    # Largest n first on a fresh context, so the spans are built in one go
    # and the small n are answered from them; then smallest first, built
    # one step at a time.
    for order in (sorted(ns, reverse=True), sorted(ns)):
        ex._ctx.cache_clear()
        for n in order:
            d = rule_depth(cf, n)
            assert d == walked_depth(spans, n), (slope, n)
            # Tight: the depth before it has b + e <= n.
            assert d == 1 or spans[d - 2] <= n, (slope, n)
        # Built by the recurrence, in one go or resumed at each depth.
        assert ex._ctx(cf).spans == [0, *spans], slope


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9), st.lists(st.integers(1, 9), max_size=3),
       st.lists(st.integers(1, 9), min_size=1, max_size=3), st.integers(1, 10 ** 12),
       st.integers(-2, 2), st.booleans())
def test_the_rules_first_bracket_decides_sign_on_periodic_slopes(a_1, pre, per, q, offset, neg):
    # q_60 >= F_61 > 10**12, so p is within 2 of q*alpha.
    cf = ContinuedFraction((a_1, *pre), tuple(per))
    c = convergent(cf, 60)
    form = LinearForm(q, q * c.p // c.q + offset)
    form = -form if neg else form
    lo, hi = enclosure(cf, form, rule_depth(cf, q))
    assert lo >= 0 or hi <= 0
    assert ex.sign(cf, form) == (1 if lo >= 0 else -1) == form_sign_oracle(cf, form, 80)


def test_the_cap_is_read_on_every_call(monkeypatch):
    # One slope, so its cached spans outlive each change of the cap: at cap 5
    # they reach past depth 5, and the rule must still stop at the cap.
    cf = parse_slope("[0;2,(1,3)]")
    ex._ctx.cache_clear()
    c = convergent(cf, 40)
    dens = [LinearForm(q, q * c.p // c.q) for q in (7, 1_000, 10 ** 6, 10 ** 12)]
    refusals = {}
    for cap in (64, 5, 64):
        monkeypatch.setenv("STURM_DEPTH_LIMIT", str(cap))
        outcomes = []
        for den in dens:
            q = den.q
            assert rule_depth(cf, q) == walked_depth(walked_spans(cf), q) <= cap
            for fn, ref, args in [
                (ex.sign, reference_sign, (cf, den)),
                (ex.sign, reference_sign, (cf, den + ex.ONE - ex.ALPHA)),
                (ex.nearest_integer, reference_nearest_integer, (cf, q)),
                (ex.floor_ratio, reference_floor_ratio, (cf, ex.ALPHA, den)),
                (ex.approx_str, reference_approx_str, (cf, den, 12)),
            ]:
                outcomes.append(_outcome(fn, *args))
                assert outcomes[-1] == _outcome(ref, *args), (cap, fn.__name__, args)
        refusals[cap] = sum(isinstance(o, str) and o.startswith("Undecided") for o in outcomes)
        # The cached spans, which reach past cap 5, are b + e at every depth they reach.
        built = ex._ctx(cf).spans
        assert built == [0, *(b + e for _, b, _, e in
                              (ex.alpha_bounds(cf, d) for d in range(1, len(built))))]
        assert len(built) > 6
    # The shallow cap refuses what the default answers.
    assert refusals[64] == 0 < refusals[5]


# ------------------------------------------------------------------
# depth cap environment variable
# ------------------------------------------------------------------

def test_depth_limit_env_override(monkeypatch):
    assert ex.depth_limit() == 64
    monkeypatch.setenv("STURM_DEPTH_LIMIT", "16")
    assert ex.depth_limit() == 16
    monkeypatch.setenv("STURM_DEPTH_LIMIT", "zzz")
    with pytest.raises(ValueError):
        ex.depth_limit()


# ------------------------------------------------------------------
# thread safety of the per-slope convergent cache
# ------------------------------------------------------------------

def test_convergent_cache_is_thread_safe():
    # Fresh slopes, so all threads race to extend the same empty cache: the
    # contexts exist before the threads start, each slope is entered by
    # every thread at once, the extension to depth 300 outlasts the wake-up
    # of the other threads, and a tiny switch interval makes preemption
    # inside pair() likely.  Each thread first asks the depth rule about
    # q_k with its own k, so the threads also race to publish span lists of
    # different lengths; the rule's depth for q_k is k - 1.
    slopes = [ContinuedFraction((7, 1 + i % 5), (1 + i % 4, 1000 + i)) for i in range(200)]
    depth, workers = 300, 8
    expected = []
    for cf in slopes:
        ctx = ex._Ctx(cf)
        expected.append([ctx.pair(k) for k in range(depth + 1)])
        ex._ctx(cf)
    barrier = threading.Barrier(workers)
    seen: list[list[tuple[int, int]]] = [[] for _ in range(workers)]
    rule_depths: list[list[int]] = [[] for _ in range(workers)]

    def work(t: int) -> None:
        for cf, pairs in zip(slopes, expected):
            barrier.wait(timeout=60)
            rule_depths[t].append(rule_depth(cf, pairs[8 + 6 * t][1]))
            seen[t].append(ex._ctx(cf).pair(depth))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(th.is_alive() for th in threads)
    for t in range(workers):
        assert seen[t] == [pairs[depth] for pairs in expected]
        assert rule_depths[t] == [7 + 6 * t] * len(slopes)
    for cf, pairs in zip(slopes, expected):
        ctx = ex._ctx(cf)
        assert [ctx.pair(k) for k in range(depth + 1)] == pairs, cf
        # Whichever list was published last, it is a correct prefix.
        assert ctx.spans == [0, *(pairs[d][1] + pairs[d + 1][1]
                                  for d in range(1, len(ctx.spans)))], cf


@pytest.mark.parametrize("quotients", [((2,), (1,)), ((3, 1, 4), (1, 5, 9)),
                                       ((2, 1, 2, 1, 2), ()), ((4, 7), ())], ids=str)
def test_depth_rule_and_bracket_read_each_quotient_once(monkeypatch, quotients):
    # The depth rule's spans come from the pairs it extends (q_d + q_{d+1}, or
    # 2*q_m + q_{m-1} at a truncation's last depth m), so neither it nor the
    # bracket it picks reads any a_j a second time, however n grows.
    reads: dict[int, int] = {}
    quotient = ContinuedFraction.quotient

    def counted(self: ContinuedFraction, k: int) -> int:
        reads[k] = reads.get(k, 0) + 1
        return quotient(self, k)

    cf = ContinuedFraction(*quotients)
    expected = {n: ex.alpha_bounds(cf, rule_depth(cf, n)) for n in (1, 5, 40, 1000, 10 ** 6)}
    monkeypatch.setattr(ContinuedFraction, "quotient", counted)
    ex._ctx.cache_clear()
    ex.alpha_bounds.cache_clear()
    ctx = ex._ctx(cf)
    for n, bracket in expected.items():
        assert ex.alpha_bounds(cf, ctx.bracket_depth(n, cf.max_depth())) == bracket, n
    assert reads and set(reads.values()) == {1}, reads
    last = cf.truncation_depth
    if last is not None:  # the mediant end reads no a_{m+1}
        q0, q1 = ctx.pair(last - 1)[1], ctx.pair(last)[1]
        assert (max(reads), ctx.spans[-1]) == (last, 2 * q1 + q0)


# ------------------------------------------------------------------
# two depths settle every certified answer: the rule's, then the cap's
# ------------------------------------------------------------------

# The size n each consumer asks the depth rule about (see the README).
QUESTION_SIZE = {
    "sign": lambda f: abs(f["form"].q),
    "nearest_integer": lambda f: 2 * abs(f["n"]),
    "floor_ratio": lambda f: max(abs(f["num"].q), abs(f["den"].q)),
    "approx_str": lambda f: isqrt(abs(f["form"].q) * 10 ** (f["digits"] + 6)),
}


def record_depths(monkeypatch) -> list[tuple[str, ContinuedFraction, int, list[int]]]:
    """Wrap `alpha_bounds` to record each bracket stream of a consumer: its name,
    slope, question size and the depths it reads, in order.  Other callers (a
    test, `CriticalExponentResult.bounds`) are not recorded."""
    streams: list[tuple[str, ContinuedFraction, int, list[int]]] = []
    depths_of: dict = {}  # keyed by the stream's frame, which it keeps alive
    bounds = ex.alpha_bounds

    def recorded(cf: ContinuedFraction, d: int) -> tuple[int, int, int, int]:
        stream = sys._getframe(1)
        if stream.f_code is ex._deepen.__code__:
            if stream not in depths_of:
                consumer = stream.f_back
                name = consumer.f_code.co_name
                depths_of[stream] = []
                streams.append((name, cf, QUESTION_SIZE[name](consumer.f_locals),
                                depths_of[stream]))
            depths_of[stream].append(d)
        return bounds(cf, d)

    monkeypatch.setattr(ex, "alpha_bounds", recorded)
    return streams


def assert_two_depths(streams) -> int:
    """sign and nearest_integer read the rule's depth only; floor_ratio and
    approx_str read it, then at most the cap.  Returns how many read the cap second."""
    second = 0
    for name, cf, n, depths in streams:
        top = cf.max_depth()
        rule = ex._ctx(cf).bracket_depth(n, top)
        if name in ("sign", "nearest_integer"):
            assert depths == [rule], (name, str(cf), n, depths)
        else:
            assert depths == [rule] or (rule < top and depths == [rule, top]), \
                (name, str(cf), n, depths)
            second += len(depths) == 2
    return second


@st.composite
def two_depth_slopes(draw) -> ContinuedFraction:
    """A periodic slope with quotients up to 9, or a truncation of depth 1-8."""
    quotients = st.integers(1, 9)
    if draw(st.booleans()):
        return ContinuedFraction(tuple(draw(st.lists(quotients, max_size=3))),
                                 tuple(draw(st.lists(quotients, min_size=1, max_size=3))))
    return ContinuedFraction(tuple(draw(st.lists(quotients, min_size=1, max_size=8))))


@settings(max_examples=200, deadline=None)
@given(two_depth_slopes(), st.integers(1, 10 ** 6), st.integers(-1, 2), DIGITS)
@example(parse_slope("[0;2,(1,2)]"), 20, 0, 12)
@example(parse_slope("[0;3,1,4,1,5,9,2,6]"), 5, 1, 12)
def test_each_answer_reads_the_rules_depth_then_only_the_cap(cf, q, offset, digits):
    c = convergent(cf, min(8, cf.max_depth()))
    form = LinearForm(q, q * c.p // c.q + offset)
    calls = [(ex.sign, form), (ex.sign, -form), (ex.nearest_integer, q),
             (ex.nearest_integer, -q), (ex.floor_ratio, 3 * form + ex.ALPHA, form),
             (ex.approx_str, form, digits),
             *((recover_quotient, k) for k in range(1, min(12, cf.max_depth()) + 1))]
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("STURM_DEPTH_LIMIT", raising=False)
        streams = record_depths(mp)
        for fn, *args in calls:
            try:
                fn(cf, *args)
            except ex.DepthError:
                pass  # a refusal reads the same two depths
        assert_two_depths(streams)


def test_the_gate_reads_the_rules_depth_then_only_the_cap(monkeypatch):
    # Every certified decision of `verify --n-max 40`, which passes; some
    # floor_ratio streams are open at the rule's depth and read the cap.
    monkeypatch.delenv("STURM_DEPTH_LIMIT", raising=False)
    streams = record_depths(monkeypatch)
    assert invoke(["verify", "--n-max", "40"])["exit"] == 0
    assert {name for name, *_ in streams} == {"sign", "nearest_integer", "floor_ratio"}
    assert assert_two_depths(streams) > 0
