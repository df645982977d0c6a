"""Tests for standard words, primitivity, and conjugacy."""

from __future__ import annotations

import pytest

from sturmian.exactnum import DepthExceededError, convergent, parse_slope
from sturmian.words import (
    conjugates,
    cyclic_shift,
    reversal,
    semistandard_word,
    standard_or_semistandard,
    standard_word,
)


def test_standard_word_seeds(example_slope):
    assert standard_word(example_slope, -1) == "1"
    assert standard_word(example_slope, 0) == "0"
    assert standard_word(example_slope, 1) == "01"


def test_standard_words_worked_example(example_slope):
    assert standard_word(example_slope, 2) == "010"
    assert standard_word(example_slope, 3) == "01001001"
    assert len(standard_word(example_slope, 3)) == 8


def test_semistandard_worked_example(example_slope):
    assert semistandard_word(example_slope, 3, 1) == "01001"


def test_semistandard_other_slope():
    cf = parse_slope("[0;3,(2)]")
    assert standard_word(cf, 1) == "001"
    assert semistandard_word(cf, 2, 1) == "0010"


def test_semistandard_range_errors(example_slope):
    with pytest.raises(ValueError):
        semistandard_word(example_slope, 3, 2)  # l = a_3 is s_3, not semistandard
    with pytest.raises(ValueError):
        semistandard_word(example_slope, 3, 0)
    with pytest.raises(ValueError):
        semistandard_word(example_slope, 1, 1)


def test_standard_word_depth_error():
    cf = parse_slope("[0;2,1,1]")
    assert standard_word(cf, 3)
    with pytest.raises(DepthExceededError):
        standard_word(cf, 4)


def test_standard_word_lengths_are_denominators(family):
    for cf in family:
        for k in range(0, 12):
            assert len(standard_word(cf, k)) == convergent(cf, k).q


def test_standard_word_prefix_chain(family):
    for cf in family:
        for k in range(1, 10):
            assert standard_word(cf, k + 1).startswith(standard_word(cf, k))


def test_semistandard_is_prefix_and_suffix(family):
    for cf in family:
        for k in range(2, 9):
            for l in range(1, cf.quotient(k)):
                s = standard_word(cf, k)
                part = semistandard_word(cf, k, l)
                assert s.startswith(part)
                assert s.endswith(part)
                assert standard_or_semistandard(cf, k, l) == part
            # The same recurrence at l = a_k gives s_k itself.
            assert standard_or_semistandard(cf, k, cf.quotient(k)) == standard_word(cf, k)


def _is_primitive(w: str) -> bool:
    """w is primitive iff it occurs exactly twice in w*w."""
    return (w + w).find(w, 1) == len(w)


def _nearly_commute(cf, k: int) -> bool:
    """s_k s_{k-1} and s_{k-1} s_k agree except for swapped, distinct final letters."""
    u = standard_word(cf, k) + standard_word(cf, k - 1)
    v = standard_word(cf, k - 1) + standard_word(cf, k)
    return u[:-2] == v[:-2] and u[-2:] == v[-2:][::-1] and u[-1] != u[-2]


def test_primitivity_examples():
    assert _is_primitive("01001")
    assert not _is_primitive("0101")
    assert _is_primitive("0")
    assert not _is_primitive("000")


def test_standard_and_semistandard_primitive(family):
    for cf in family:
        for k in range(0, 10):
            assert _is_primitive(standard_word(cf, k))
        for k in range(2, 9):
            for l in range(1, cf.quotient(k)):
                assert _is_primitive(semistandard_word(cf, k, l))


def test_cyclic_shift_moves_last_letter_front():
    assert cyclic_shift("10010", 1) == "01001"
    assert cyclic_shift("10010", 0) == "10010"
    assert cyclic_shift("abc".replace("a", "0").replace("b", "1").replace("c", "0"), 2) == "100"
    with pytest.raises(ValueError):
        cyclic_shift("10010", 5)
    with pytest.raises(ValueError):
        cyclic_shift("10010", -1)


def test_conjugates_order_and_duplicates():
    assert conjugates("10010") == ["10010", "01001", "10100", "01010", "00101"]
    assert conjugates("0101") == ["0101", "1010", "0101", "1010"]
    assert conjugates("") == []


def test_reversal():
    assert reversal("01001") == "10010"
    assert reversal("") == ""


def test_near_commutation_worked_example(example_slope, fib_slope):
    # s_2 s_1 = 01001 vs s_1 s_2 = 01010: common prefix, swapped distinct tail.
    assert standard_word(example_slope, 2) + standard_word(example_slope, 1) == "01001"
    assert standard_word(example_slope, 1) + standard_word(example_slope, 2) == "01010"
    assert _nearly_commute(example_slope, 2)
    assert _nearly_commute(fib_slope, 3)


def test_near_commutation_sweep(family):
    for cf in family:
        for k in range(2, 11):
            assert _nearly_commute(cf, k)
