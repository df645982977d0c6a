"""Independent brute-force oracles.

Every formula in the package has a second, structurally different route:
sorted orbit gaps instead of the three-distance counts, bit-mask run scans
over a coded prefix instead of interval-length index formulas, exhaustive
multiples instead of convergent enumeration.  The verification suites and
the test suite drive both routes against each other.  The three-distance
suite reads the gap tally of every level from one key table per slope,
inserting one orbit point at a time (`gap_spectra`); `gap_spectrum`, which
sorts the points of one level afresh, is its single-n reference.
Power-classification reads the index of every factor of length n from one
period-n match mask (`max_powers`); `max_power`, a `find`-based search for
one word, is the naive reference it is tested against.

Scans work on plain strings (find() runs in C) or on big-integer bit
masks, so the oracles stay fast without ever touching floating point.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from fractions import Fraction
from typing import Iterator, Mapping

from sturmian.exactnum import ContinuedFraction, LinearForm
from sturmian.rotation import key_table


# ------------------------------------------------------------------
# gap spectra of orbit prefixes
# ------------------------------------------------------------------

def match_gaps(tally: Mapping[tuple[int, int], int],
               candidates: list[LinearForm]) -> list[int]:
    """Counts per candidate length of a gap tally.

    The tally maps (index difference, floor difference) pairs to counts.
    Two forms share a value at an irrational alpha only when they are
    identical, so matching is syntactic.  A gap matching no candidate
    raises.
    """
    counts = [0] * len(candidates)
    for gap, count in tally.items():  # a form equals its plain (q, p) tuple
        if gap not in candidates:
            raise AssertionError(f"orbit gap {LinearForm(*gap)} matched no candidate length")
        counts[candidates.index(gap)] += count
    return counts


def gap_spectrum(cf: ContinuedFraction, n: int,
                 candidates: list[LinearForm]) -> list[int]:
    """Count the actual gaps of {0, alpha, ..., n*alpha} per candidate length.

    The points are sorted by certified keys; each circular gap is then an
    exact LinearForm (difference of neighbouring positions m*alpha -
    floor(m*alpha), minus 1 on the gap that wraps past the point 1),
    tallied as an integer pair and matched by `match_gaps`.  This sorts
    all n + 1 points: it is the single-n reference for `gap_spectra`.
    """
    table = key_table(cf, n)
    p, q = table.p, table.q
    keys = [m % q for m in range(0, (n + 1) * p, p)]  # keys[m] = key(m)
    order = sorted(range(n + 1), key=keys.__getitem__)
    floors = [m * p // q for m in order]  # floor(m*alpha), as in position_form
    tally = Counter(zip([b - a for a, b in zip(order, order[1:])],
                        [b - a for a, b in zip(floors, floors[1:])]))
    tally[order[0] - order[-1], floors[0] - floors[-1] - 1] += 1  # wrap past 1
    return match_gaps(tally, candidates)


def gap_spectra(cf: ContinuedFraction, n_lo: int,
                n_max: int) -> Iterator[tuple[int, dict[tuple[int, int], int]]]:
    """(n, gap tally of {0, alpha, ..., n*alpha}) for n_lo <= n <= n_max.

    One key_table(cf, n_max) orders every level: points differ by <= n_max.
    Point n goes into the sorted key list by bisection and splits the gap
    between its neighbours: the tally loses that gap's pair and gains its
    two halves.  A gap whose left key exceeds its right key wraps past 1 and
    takes -1 on its floor difference.  Tallies are plain-dict snapshots with no
    zero counts, for `match_gaps`.
    """
    if not 0 <= n_lo <= n_max:
        raise ValueError(f"need 0 <= n_lo <= n_max, got {n_lo} and {n_max}")
    table = key_table(cf, n_max)
    p, q = table.p, table.q
    keys, points = [0], [0]  # sorted keys and their orbit indices
    tally = {(0, -1): 1}  # the one point 0: one gap, the whole circle
    for n in range(n_max + 1):
        if n:
            key = n * p % q
            at = bisect(keys, key)
            left, right = points[at - 1], points[at % n]
            wrap = at == n  # point n has the largest key: right is point 0
            fl_left, fl_n, fl_right = left * p // q, n * p // q, right * p // q
            split = right - left, fl_right - fl_left - wrap
            if (count := tally.pop(split)) > 1:  # no zero counts
                tally[split] = count - 1
            for half in (n - left, fl_n - fl_left), (right - n, fl_right - fl_n - wrap):
                tally[half] = tally.get(half, 0) + 1
            keys.insert(at, key)
            points.insert(at, n)
        if n >= n_lo:
            yield n, dict(tally)


# ------------------------------------------------------------------
# power scans over a coded prefix
# ------------------------------------------------------------------

def max_power(text: str, w: str) -> int:
    """Largest p >= 0 with w^p a factor of text."""
    if not w:
        raise ValueError("pattern must be nonempty")
    p = 0
    while w * (p + 1) in text:
        p += 1
    return p


def max_fractional_power(text: str, w: str) -> Fraction:
    """Largest exponent p + j/|w| with w^p w[:j] a factor of text (0 if absent)."""
    n = len(w)
    if n == 0:
        raise ValueError("pattern must be nonempty")
    occ = []
    at = text.find(w)
    while at != -1:
        occ.append(at)
        at = text.find(w, at + 1)
    if not occ:
        return Fraction(0)
    chain: dict[int, int] = {}
    best = Fraction(0)
    for pos in reversed(occ):
        chain[pos] = chain.get(pos + n, 0) + 1
    for pos in occ:
        p = chain[pos]
        tail = pos + p * n
        j = 0
        while j < n - 1 and tail + j < len(text) and text[tail + j] == w[j]:
            j += 1
        best = max(best, Fraction(p * n + j, n))
    return best


def _longest_run(mask: int) -> int:
    """Length of the longest run of 1-bits in mask."""
    if mask == 0:
        return 0
    # Doubling: collapsed[k] has a 1 where a run of length 2^k starts.
    collapsed = [(1, mask)]
    while True:
        r, y = collapsed[-1]
        y2 = y & (y >> r)
        if y2 == 0:
            break
        collapsed.append((2 * r, y2))
    total, cur = collapsed[-1]
    for r, _ in reversed(collapsed[:-1]):
        y2 = cur & (cur >> r)
        if y2:
            cur = y2
            total += r
    return total


def _bits(text: str) -> tuple[int, int]:
    """text and its complement read as binary numbers, text[0] the most significant bit."""
    if not text:
        return 0, 0
    bits = int(text, 2)
    return bits, bits ^ ((1 << len(text)) - 1)


def _match_mask(bits: tuple[int, int], period: int) -> int:
    """Bit length-1-period-i set iff text[i] == text[i + period], 0 <= i < length - period.

    Only the bits below length - period are defined; the `period` bits
    above them hold a copy of text[:period], so callers keep only the runs
    that end below bit length - period.
    """
    text_bits, complement = bits
    return text_bits ^ (complement >> period)


def max_run_exponent(text: str, max_period: int) -> tuple[Fraction, int]:
    """Largest (run + L)/L over periods L <= max_period, with its period.

    A run of r consecutive positions where text[i] == text[i+L] witnesses a
    factor of length r + L with period L, i.e. a fractional power of
    exponent (r + L)/L of its length-L prefix.  Every period's mask covers
    the whole text; it is first tested only for a run long enough to beat
    the best exponent so far, num/den, which needs r > (num/den - 1)*L, and
    measured only when it does.  Ties keep the smallest period.
    """
    bits = _bits(text)
    length = len(text)
    num, den, best_period = 1, 1, 0  # a run of 0 never counts
    for period in range(1, min(max_period, length - 1) + 1):
        need = (num - den) * period // den + 1
        span = length - period - need + 1  # starts whose run of `need` is defined
        if span <= 0:
            break  # need only grows with the period while the best stands
        mask = _match_mask(bits, period)
        starts = _run_starts(mask, need)
        if starts and starts & ((1 << span) - 1):
            run = _longest_run(mask & ((1 << (length - period)) - 1))
            num, den, best_period = run + period, period, period
    return (Fraction(num, den) if best_period else Fraction(0)), best_period


def _run_starts(mask: int, r: int) -> int:
    """Bit b set iff bits b .. b + r - 1 of mask are all set (-1 for r = 0).

    Doubling: after the loop, bit b of mask is set iff a run of `width`
    starts at b, and width <= r < 2*width; a run of r is then two runs of
    width that start r - width apart.  Returns 0 as soon as no run of
    `width` is left.
    """
    if r == 0:
        return -1
    width = 1
    while 2 * width <= r:
        mask &= mask >> width
        if not mask:
            return 0
        width *= 2
    return mask & (mask >> (r - width)) if r > width else mask


def _power_roots_of_length(text: str, mask: int, n: int, exponent: int) -> Iterator[str]:
    """Distinct words w, |w| = n, with w^exponent a factor of text.

    mask is the period-n match mask of text.  w^exponent starts at i
    exactly when text[j] == text[j + n] for the (exponent - 1)*n positions
    j from i on, i.e. on a run of that many bits of the mask.  The run
    starts are rendered as a 0/1 string indexed by i, so find() walks them
    in C.
    """
    span = len(text) - exponent * n + 1  # number of possible starts
    if span <= 0:
        return
    starts = _run_starts(mask, (exponent - 1) * n)
    marks = format(starts & ((1 << span) - 1), f"0{span}b")
    seen: set[str] = set()
    i = marks.find("1")
    while i != -1:
        w = text[i:i + n]
        if w not in seen:
            seen.add(w)
            yield w
        i = marks.find("1", i + 1)


def max_powers(text: str, words: list[str]) -> list[int]:
    """max_power(text, w) for each of words, all of one length n, in their order.

    One period-n match mask serves every word: the words whose e-th power
    is a factor, for e = 2, 3, ..., have index at least e, and the scan
    stops at the first e with none.  A word never found that way has index
    1 if it occurs in text at all, else 0.
    """
    lengths = set(map(len, words))
    if not lengths:
        return []
    if len(lengths) > 1 or 0 in lengths:
        raise ValueError(f"words must be nonempty and of one length, got lengths {sorted(lengths)}")
    [n] = lengths
    mask = _match_mask(_bits(text), n)
    marked: dict[str, int] = {}
    e = 2
    while roots := set(_power_roots_of_length(text, mask, n, e)):
        marked.update(dict.fromkeys(roots, e))
        e += 1
    return [marked.get(w) or int(w in text) for w in words]


def square_root_lengths(text: str, n_max: int) -> set[int]:
    """Lengths of primitive words w with w*w a factor of text, |w| <= n_max."""
    bits = _bits(text)
    return {n for n in range(1, n_max + 1)
            if any((w + w).find(w, 1) == n
                   for w in _power_roots_of_length(text, _match_mask(bits, n), n, 2))}


def power_roots(text: str, n_max: int, exponent: int) -> set[str]:
    """All primitive words w, |w| <= n_max, with w^exponent a factor of text."""
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    bits = _bits(text)
    return {w for n in range(1, n_max + 1)
            for w in _power_roots_of_length(text, _match_mask(bits, n), n, exponent)
            if (w + w).find(w, 1) == n}


# ------------------------------------------------------------------
# exhaustive approximation scans
# ------------------------------------------------------------------

def best_denominator_scan(cf: ContinuedFraction, q_max: int) -> list[int]:
    """Denominators of best approximations found by scanning all b <= q_max."""
    table = key_table(cf, 2 * q_max)  # ||b*alpha|| vs ||b'*alpha||: (b +- b')*alpha
    best: list[int] = []
    current = table.q  # key-unit value of 1
    for b in range(1, q_max + 1):
        val = table.norm_key(b)
        if val < current:
            best.append(b)
            current = val
    return best


def closer_multiples_scan(cf: ContinuedFraction, limit: int, bound_n: int) -> list[int]:
    """All 0 < n < limit with ||n*alpha|| < ||bound_n*alpha|| by direct scan."""
    table = key_table(cf, 2 * max(limit, bound_n))  # sums of two multiples
    bound = table.norm_key(bound_n)
    return [n for n in range(1, limit) if table.norm_key(n) < bound]

