"""Direct tests of the brute-force oracle primitives on synthetic strings.

The oracles back every formula-vs-scan equivalence, so they are checked
here against naive reimplementations on small inputs where the answer can
be enumerated.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from conftest import alpha_oracle
from sturmian import oracles
from sturmian.exactnum import LinearForm, parse_slope
from sturmian.oracles import (
    _longest_run,
    best_denominator_scan,
    closer_multiples_scan,
    gap_spectra,
    gap_spectrum,
    match_gaps,
    max_fractional_power,
    max_power,
    max_powers,
    max_run_exponent,
    power_roots,
    square_root_lengths,
)
from sturmian.repetitions import oracle_window
from sturmian.rotation import (
    characteristic_prefix,
    factors_of_length,
    key_table,
    three_distance,
)

WORDS = ["0", "1", "01", "10", "00", "010", "001", "100", "0101", "0010"]

TEXTS = [
    "0101010010",
    "0010010010001",
    "0100101001001010010100100101001",  # a slope-(3-sqrt5)/2 coding prefix
    "0000",
    "10110110101101101011",
]


def naive_max_power(text: str, w: str) -> int:
    p = 0
    while w * (p + 1) in text:
        p += 1
    return p


def naive_max_fractional(text: str, w: str) -> Fraction:
    best = Fraction(0)
    n = len(w)
    for i in range(len(text)):
        length = 0
        while i + length < len(text) and text[i + length] == w[length % n]:
            length += 1
        if length >= n:
            best = max(best, Fraction(length, n))
    return best


@pytest.mark.parametrize("text", TEXTS)
def test_max_power_matches_naive(text):
    for w in WORDS:
        assert max_power(text, w) == naive_max_power(text, w)


@pytest.mark.parametrize("text", TEXTS)
def test_max_fractional_power_matches_naive(text):
    for w in WORDS:
        got = max_fractional_power(text, w)
        naive = naive_max_fractional(text, w)
        if naive < 1:
            assert got == 0
        else:
            assert got == naive, (text, w)


def test_max_fractional_power_simple_cases():
    assert max_fractional_power("010", "01") == Fraction(3, 2)
    assert max_fractional_power("01001010", "010") == 2
    assert max_fractional_power("111", "0") == 0


def test_longest_run_bit_trick():
    cases = {
        0b0: 0,
        0b1: 1,
        0b11101101111: 4,
        0b1111: 4,
        0b1010101: 1,
        (1 << 300) - 1: 300,
        ((1 << 64) - 1) << 5 | 0b101: 64,
    }
    for mask, expected in cases.items():
        assert _longest_run(mask) == expected


def naive_run_exponent(text: str, max_period: int) -> Fraction:
    best = Fraction(0)
    for period in range(1, min(max_period, len(text) - 1) + 1):
        run = 0
        best_run = 0
        for i in range(len(text) - period):
            run = run + 1 if text[i] == text[i + period] else 0
            best_run = max(best_run, run)
        if best_run:
            best = max(best, Fraction(best_run + period, period))
    return best


@pytest.mark.parametrize("text", TEXTS)
def test_max_run_exponent_matches_naive(text):
    got, _ = max_run_exponent(text, 8)
    assert got == naive_run_exponent(text, 8)


def test_max_run_exponent_witness():
    best, period = max_run_exponent("0000", 3)
    assert best == 4 and period == 1
    best, period = max_run_exponent("010101", 4)
    assert best == 3 and period == 2


def test_square_root_lengths_synthetic():
    assert square_root_lengths("00100100", 4) == {1, 3}
    assert square_root_lengths("0101", 4) == {2}  # 0101 = (01)^2, root primitive
    assert square_root_lengths("010", 4) == set()


def test_power_roots_synthetic():
    assert power_roots("00100100", 3, 2) == {"0", "001", "010", "100"}
    assert power_roots("000", 2, 3) == {"0"}
    assert power_roots("0101010", 3, 3) == {"01", "10"}


def test_best_denominator_scan_matches_independent_route(family):
    # Third route: exact Fractions from a deep bottom-up evaluation.
    for cf in family:
        lo_a, hi_a = alpha_oracle(cf, 120)

        def norm(b: int) -> Fraction:
            vals = sorted([abs(b * lo_a - round(b * lo_a)),
                           abs(b * hi_a - round(b * hi_a))])
            assert vals[1] - vals[0] < Fraction(1, 10 ** 30)
            return vals[1]

        best, current = [], Fraction(1)
        for b in range(1, 201):
            v = norm(b)
            if v < current:
                best.append(b)
                current = v
        assert best_denominator_scan(cf, 200) == best


def test_closer_multiples_scan_matches_independent_route(family):
    # ||n*alpha|| < ||b*alpha|| compares (n +- b)*alpha with an integer, so
    # the scan's table must reach n + b: one of reach max(limit, b) gives a
    # wrong list for 2,503 of these 10,800 (slope, limit, b).
    for cf in family:
        ends = alpha_oracle(cf, 120)
        norms = [[abs(b * end - round(b * end)) for end in ends] for b in range(31)]
        assert all(hi - lo < Fraction(1, 10 ** 30) for lo, hi in map(sorted, norms))
        for bound_n in range(1, 31):
            for limit in range(1, 31):
                expected = [n for n in range(1, limit) if norms[n][0] < norms[bound_n][0]]
                assert closer_multiples_scan(cf, limit, bound_n) == expected, \
                    (str(cf), limit, bound_n)


# ------------------------------------------------------------------
# bit-mask power scans and the gap tally against naive references
# ------------------------------------------------------------------

def naive_square_root_lengths(text: str, n_max: int) -> set[int]:
    """Slicing scan: every period-n repeat of length 2n, first primitive root wins."""
    out = set()
    for n in range(1, n_max + 1):
        for i in range(len(text) - 2 * n + 1):
            w = text[i:i + n]
            if w == text[i + n:i + 2 * n] and (w + w).find(w, 1) == n:
                out.add(n)
                break
    return out


def naive_power_roots(text: str, n_max: int, exponent: int) -> set[str]:
    roots = set()
    for n in range(1, n_max + 1):
        for i in range(0, len(text) - exponent * n + 1):
            w = text[i:i + n]
            if text[i:i + exponent * n] == w * exponent and (w + w).find(w, 1) == n:
                roots.add(w)
    return roots


def naive_gap_spectrum(cf, n: int, candidates: list[LinearForm]) -> list[int]:
    """One exact form per neighbouring pair of sorted orbit points."""
    table = key_table(cf, n)
    order = sorted(range(n + 1), key=table.key)
    counts = [0] * len(candidates)
    for t, m in enumerate(order):
        nxt = order[(t + 1) % (n + 1)]
        gap = table.position_form(nxt) - table.position_form(m)
        if t == n:
            gap = gap.shift(1)
        try:
            counts[candidates.index(gap)] += 1
        except ValueError:
            raise AssertionError(f"orbit gap {gap} matched no candidate length") from None
    return counts


ALL_SHORT_TEXTS = ["".join(bits) for length in range(13)
                   for bits in itertools.product("01", repeat=length)]


@pytest.mark.parametrize("n_max", range(1, 7))
def test_power_scans_match_naive_on_all_short_texts(n_max):
    # Includes the empty text and every text shorter than 2n.
    for text in ALL_SHORT_TEXTS + TEXTS:
        assert square_root_lengths(text, n_max) == \
            naive_square_root_lengths(text, n_max), (text, n_max)
        for exponent in (2, 3, 4):
            assert power_roots(text, n_max, exponent) == \
                naive_power_roots(text, n_max, exponent), (text, n_max, exponent)


def test_power_roots_exponent_one_lists_primitive_factors():
    for text in TEXTS + ["", "0"]:
        assert power_roots(text, 5, 1) == naive_power_roots(text, 5, 1)
    with pytest.raises(ValueError):
        power_roots("0101", 2, 0)


def _words_to_scan(text: str, n: int) -> set[str]:
    """Every word of length n <= 3; beyond, every factor and its last letter flipped."""
    if n <= 3:
        return {"".join(bits) for bits in itertools.product("01", repeat=n)}
    factors = {text[i:i + n] for i in range(len(text) - n + 1)} | {"0" * n}
    return factors | {w[:-1] + "10"[int(w[-1])] for w in factors}


def test_max_powers_match_max_power_on_all_short_texts():
    # Every n from 1 to past the text's length, the empty text included.
    for text in ALL_SHORT_TEXTS + TEXTS:
        for n in range(1, len(text) + 3):
            words = _words_to_scan(text, n)
            assert max_powers(text, words) == \
                {w: max_power(text, w) for w in words}, (text, n)


def test_max_powers_match_max_power_on_family_windows(family):
    # The gate's own windows, at every tenth length up to its n_max of 150.
    for cf in family:
        for n in range(10, 151, 10):
            text = characteristic_prefix(cf, oracle_window(cf, n))
            words = {w for w, _ in factors_of_length(cf, n)}
            words |= {w[:-1] + "10"[int(w[-1])] for w in words}  # mostly absent
            assert max_powers(text, words) == \
                {w: max_power(text, w) for w in words}, (str(cf), n)


def test_max_powers_rejects_mixed_or_empty_words():
    assert max_powers("0101", []) == {}
    with pytest.raises(ValueError):
        max_powers("0101", ["0", "01"])
    with pytest.raises(ValueError):
        max_powers("0101", [""])


def test_power_scans_match_naive_on_family_windows(family):
    for cf in family[::3]:
        text = characteristic_prefix(cf, 400)
        assert square_root_lengths(text, 40) == naive_square_root_lengths(text, 40)
        for exponent in (2, 3):
            assert power_roots(text, 30, exponent) == naive_power_roots(text, 30, exponent)


def test_gap_spectrum_matches_naive(family):
    for cf in family:
        for n in range(cf.quotient(1) + 1, 201):
            s = three_distance(cf, n)
            candidates = [form for _, form in s.gaps]
            assert gap_spectrum(cf, n, candidates) == \
                naive_gap_spectrum(cf, n, candidates), (cf, n)


def test_gap_spectrum_missing_candidate_raises(family):
    for cf in family:
        s = three_distance(cf, 40)
        lengths = [form for _, form in s.gaps]
        counts = gap_spectrum(cf, 40, lengths)
        for drop, count in enumerate(counts):
            if count:
                with pytest.raises(AssertionError, match="matched no candidate"):
                    gap_spectrum(cf, 40, lengths[:drop] + lengths[drop + 1:])


def check_gap_spectra(cf, n_max: int) -> None:
    """gap_spectra equals gap_spectrum, pair for pair, at every n <= n_max.

    The tallies are collected first, so a live tally shared between levels
    would show.  Each level's own pairs serve as the candidates: a pair
    gap_spectrum finds and the tally lacks raises, a count that differs
    fails the equality.
    """
    spectra = list(gap_spectra(cf, 0, n_max))
    assert [n for n, _ in spectra] == list(range(n_max + 1))
    assert spectra[0][1] == {(0, -1): 1}  # one point: the whole circle
    for n, tally in spectra[1:]:
        assert all(count > 0 for count in tally.values()), (str(cf), n)
        forms = [LinearForm(*pair) for pair in tally]
        assert gap_spectrum(cf, n, forms) == list(tally.values()), (str(cf), n)


def test_gap_spectra_match_gap_spectrum(family):
    # The gate's own range, n <= 500, on every slope of the family.
    for cf in family:
        check_gap_spectra(cf, 500)


@pytest.mark.parametrize("slope", ["[0;5,(1,7)]", "[0;9,(2)]", "[0;3,1,4,1,5,9,2,6]"])
def test_gap_spectra_match_gap_spectrum_off_family(slope):
    # Large quotients, and a truncation whose cylinder certifies n <= 500.
    check_gap_spectra(parse_slope(slope), 500)


def test_gap_spectra_start_at_n_lo_and_refuse_bad_ranges(family):
    cf = family[0]
    assert [n for n, _ in gap_spectra(cf, 7, 9)] == [7, 8, 9]
    assert [n for n, _ in gap_spectra(cf, 4, 4)] == [4]
    for n_lo, n_max in [(-1, 5), (6, 5)]:
        with pytest.raises(ValueError):
            next(gap_spectra(cf, n_lo, n_max))


def test_gap_spectra_missing_candidate_raises(family):
    for cf in family:
        for n, tally in gap_spectra(cf, cf.quotient(1) + 1, 60):
            s = three_distance(cf, n)
            lengths = [form for _, form in s.gaps]
            counts = match_gaps(tally, lengths)
            assert counts == [count for count, _ in s.gaps], (str(cf), n)
            for drop, count in enumerate(counts):
                if count:
                    with pytest.raises(AssertionError, match="matched no candidate"):
                        match_gaps(tally, lengths[:drop] + lengths[drop + 1:])


def test_planted_square_in_non_sturmian_text_is_found():
    # 0011 is unbalanced, so no Sturmian word contains this text.
    plain = "0011" + "10110" + "0011"
    planted = "0011" + "10110" * 2 + "0011"
    assert 5 not in square_root_lengths(plain, 6)
    assert 5 in square_root_lengths(planted, 6)
    assert "10110" in power_roots(planted, 6, 2)
    assert "10110" not in power_roots(plain, 6, 2)


def test_non_primitive_root_is_not_reported():
    text = "0101" * 2
    assert "0101" not in power_roots(text, 4, 2)
    assert power_roots(text, 4, 2) == {"01", "10"}
    assert square_root_lengths(text, 4) == {2}
    assert power_roots(text, 4, 4) == {"01"}


# ------------------------------------------------------------------
# the pruned run scan against the scan it replaced
# ------------------------------------------------------------------

def reference_max_run_exponent(text: str, max_period: int) -> tuple[Fraction, int]:
    """The unpruned scan: the longest run of every period's match mask."""
    bits = int(text, 2) if text else 0
    length = len(text)
    best = Fraction(0)
    best_period = 0
    for period in range(1, min(max_period, length - 1) + 1):
        mask = ~(bits ^ (bits >> period)) & ((1 << (length - period)) - 1)
        run = _longest_run(mask)
        if run == 0:
            continue
        exponent = Fraction(run + period, period)
        if exponent > best:
            best, best_period = exponent, period
    return best, best_period


def test_max_run_exponent_matches_reference_on_all_short_texts():
    # Every max_period from 0 to past the text's length.
    for text in ALL_SHORT_TEXTS + TEXTS:
        for max_period in range(len(text) + 2):
            assert max_run_exponent(text, max_period) == \
                reference_max_run_exponent(text, max_period), (text, max_period)


@pytest.mark.parametrize("slope", ["[0;9,(1)]", "[0;2,(1)]", "[0;3,(1,2)]", "[0;2,(1,3)]"])
def test_max_run_exponent_matches_reference_on_long_prefixes(slope):
    text = characteristic_prefix(parse_slope(slope), 100_000)
    got = max_run_exponent(text, 1200)
    assert got == reference_max_run_exponent(text, 1200)
    if slope == "[0;9,(1)]":
        assert got == (9, 1)  # 0^8 opens the word, and nothing beats it


def test_max_run_exponent_tie_keeps_smallest_period():
    # (101)^3 comes first, (10)^3 later: both have exponent 3.
    text = "101101101010"
    assert reference_max_run_exponent(text, 12) == (3, 2)
    assert max_run_exponent(text, 12) == (3, 2)
    assert max_run_exponent(text[:9], 12) == (3, 3)
