"""Circle-rotation dynamics: orbits, codings, factor intervals, three-distance.

The circle is [0, 1) with the rotation x -> {x + alpha}.  Orbit points are
named by integer indices: index m stands for {m*alpha}, so negative indices
give the partition points {-i*alpha} that cut the circle into the intervals
of the length-n factors.

All positions are certified integers: keys m*p mod q and floors m*p//q,
where p/q lies in a bracket of alpha holding no fraction that could tell
the two apart (`KeyTable` states the rule), with no error bound and no
sort.  Codings read their letters off the floors, letter j being
floor((j+1)*alpha) - floor(j*alpha); the oracles' text comes from the
standard-word recursion instead.  A length's factors are one circular
layout (`FactorMap`) of one coding, left ends and gaps {d*alpha}.
The interval [w] of a word is one running max and min of its heights
(counts of 1s in prefixes) in key units.  The heights of the periodic
word w^inf drift by a fixed amount per period, so where it leaves the
language has a closed form (`repetitions._exits`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

from sturmian.exactnum import (
    ONE,
    ContinuedFraction,
    LinearForm,
    UndecidedError,
    _ctx,
    _unordered,
    alpha_bounds,
)
from sturmian.words import check_word, standard_pair


class FactorInterval(NamedTuple):
    """Arc of a length-n factor, endpoints named as orbit indices.

    left_idx = i means the counterclockwise start of the arc is {-i*alpha};
    right_idx names its end the same way.  The length is exact.  A tuple,
    like `LinearForm`, and likewise not ordered.
    """

    left_idx: int
    right_idx: int
    length: LinearForm

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


class PartitionSummary(NamedTuple):
    """Gap structure of the points {0, alpha, ..., n*alpha}.

    The decomposition n = l*q_{k-1} + q_{k-2} + r (k >= 1, 0 < l <= a_k,
    0 <= r < q_{k-1}) pins the three gap lengths; counts follow the
    three-distance formulas.  `gaps` holds the (count, length) pair of
    each type, (short, mid, long), lengths ascending; the long length
    always equals short + mid and its count may be zero.
    """

    k: int
    l: int
    r: int
    gaps: tuple[tuple[int, LinearForm], ...]


def require_normalized(cf: ContinuedFraction) -> None:
    """Coding assumes a_1 >= 2 (alpha < 1/2); normalize_slope first."""
    if cf.quotient(1) < 2:
        raise ValueError(
            f"slope {cf} has a_1 = 1; apply normalize_slope and swap letters"
        )


# ------------------------------------------------------------------
# certified key tables
# ------------------------------------------------------------------

class KeyTable(NamedTuple):
    """Certified integer positions for every comparison within `reach`.

    The one interval rule: p/q is the mediant of the bracket at the depth
    `exactnum._Ctx.bracket_depth` gives for reach, so no fraction with
    denominator <= reach lies between p/q and alpha: p/q signs d*alpha,
    |d| <= reach, against integers as alpha does.  So floor(m*p/q) is
    floor(m*alpha) for |m| < q, and key(m) = m*p mod q orders {i*alpha},
    {j*alpha} for |i|, |j| < q, |i - j| <= reach.  Callers pass the largest
    difference they compare, n for length-n factors (points 0..n; Mignosi,
    TCS 82, 1991): a truncation [0;a_1..a_m] answers n < 2*q_m + q_{m-1}.
    """

    reach: int
    depth: int
    p: int
    q: int

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def key(self, m: int) -> int:
        return m * self.p % self.q

    def position_form(self, m: int) -> LinearForm:
        """{m*alpha} as the exact form m*alpha - floor(m*p/q), |m| < q."""
        return LinearForm(m, m * self.p // self.q)

    def norm_key(self, m: int) -> int:
        """Key-unit value of ||m*alpha||."""
        k = self.key(m)
        return min(k, self.q - k)


def _farey_bracket(cf: ContinuedFraction, lo: int, hi: int) -> tuple[int, int, int] | None:
    """(d, p, q): the rule's depth d for hi (`_Ctx.bracket_depth`), the mediant
    p/q of its bracket a/b < alpha < c/e if no fraction with a denominator m in
    [lo, hi] lies inside, else None; brackets nest, so no shallower one passes
    where it fails.  Such fractions are (i*a + j*c)/m, m = i*b + j*e with
    i, j >= 1 (the ends are Farey neighbours): floor(m*x), lo <= |m| <= hi, is
    constant on the bracket (a truncation's cylinder at its last depth)
    exactly when there are none.  The least m is b + e, every m > b*e is one,
    and below that m is one exactly when i = m/b mod e in [1, e] leaves j >= 1.
    """
    d = _ctx(cf).bracket_depth(hi, cf.max_depth())
    a, b, c, e = alpha_bounds(cf, d)
    inv = pow(b, -1, e)
    if hi <= b * e and not any((m * inv % e or e) * b + e <= m
                               for m in range(max(lo, b + e), hi + 1)):
        return d, a + c, b + e
    return None


def key_table(cf: ContinuedFraction, reach: int) -> KeyTable:
    """Certified table for every difference |d| <= reach (`KeyTable`)."""
    if reach < 1:
        raise ValueError(f"reach must be >= 1, got {reach}")
    bracket = _farey_bracket(cf, 1, reach)
    if bracket is None:
        raise UndecidedError(f"cannot certify {reach + 1} orbit points for slope {cf} "
                             f"within depth {cf.max_depth()}")
    return KeyTable(reach, *bracket)


_LETTERS = bytes.maketrans(b"\x00\x01", b"01")


def coding_prefix(cf: ContinuedFraction, start: int, length: int) -> str:
    """First `length` letters of the coding of the orbit of {start*alpha}.

    Letter j = start + t is floor((j+1)*alpha) - floor(j*alpha): 0 iff
    {j*alpha} lies in [0, 1-alpha).  Those floors, lo <= |m| <= reach =
    max(|start|, |stop|), are floor(m*p/q) on the bracket `_farey_bracket`
    finds (lo = 1, and then q > reach, unless the window keeps to one side
    of 0): a truncation codes exactly the windows its cylinder fixes.
    """
    require_normalized(cf)
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    stop = start + length
    bracket = _farey_bracket(cf, max(1, start, -stop), max(abs(start), abs(stop)))
    if bracket is None:
        raise UndecidedError(f"cannot certify a coding of length {length} "
                             f"from index {start} for slope {cf}")
    _, p, q = bracket
    return _coding(p, q, start, stop)


def _coding(p: int, q: int, start: int, stop: int) -> str:
    """Letters start..stop-1 of the coding, on p/q with m*p//q = floor(m*alpha) there."""
    # Letter j is 1 when floor((j + 1)*p/q) reaches a new value m, which
    # happens at j = (m*q - 1) // p: byte (m*q - 1 - start*p) // p here.
    letters = bytearray(stop - start)
    base = start * p
    for x in range((base // q + 1) * q - 1 - base, stop * p // q * q - base, q):
        letters[x // p] = 1
    return letters.translate(_LETTERS).decode("ascii")


def characteristic_prefix(cf: ContinuedFraction, length: int) -> str:
    """Prefix of the characteristic word c_alpha (orbit coding started at {alpha}).

    A prefix of the first standard word s_k with q_k >= length, built from
    the quotients alone (`words.standard_pair`) as s_{k-1}^c s_{k-2} with
    no more copies c than the length needs, so no standard word longer
    than a nonempty prefix is built.  A truncation [0;a_1..a_m]
    fixes s_m s_{m-1} s_m less its last two letters: every slope of its
    cylinder has a_{m+1} >= 1, so its word starts with s_m s_{m-1} s_m or
    s_m s_m s_{m-1}, which differ only there.  Past that it refuses.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    require_normalized(cf)
    m = cf.truncation_depth
    k, q_prev, q = 1, 1, cf.quotient(1)  # q_0 = 1, q_1 = a_1
    while q < length and k != m:
        k += 1
        q_prev, q = q, cf.quotient(k) * q + q_prev
    if q >= length:
        # s_k = s_{k-1}^e s_{k-2}, e = a_k (a_1 - 1 at k = 1): only as many
        # copies as the length needs.
        copies = min(-(-length // q_prev), cf.quotient(k) - (k == 1))
        prev, cur = standard_pair(cf, k - 1)
        return (cur * copies + prev)[:length]
    if length > 2 * q + q_prev - 2:
        raise UndecidedError(f"cannot certify a coding of length {length} "
                             f"from index 1 for slope {cf}")
    prev, s_m = standard_pair(cf, m)
    return (s_m + prev + s_m)[:length]


# ------------------------------------------------------------------
# factor intervals
# ------------------------------------------------------------------

def factors_of_length(cf: ContinuedFraction, n: int) -> list[tuple[str, FactorInterval]]:
    """All n+1 factors of length n with their exact intervals.

    Output follows the circular order of the intervals starting at 0.
    """
    factors = factor_interval_map(cf, n)
    lefts, lengths = factors.lefts, factors.lengths
    # tuple.__new__ fills each FactorInterval without a Python-level __new__ per factor.
    intervals = map(tuple.__new__, repeat(FactorInterval),
                    zip(lefts, lefts[1:] + lefts[:1], map(lengths.__getitem__, factors.gaps)))
    return list(zip(factors.words, intervals))


class FactorMap(NamedTuple):
    """The length-n factors as one circular layout, read in order.

    The t-th interval counterclockwise from 0 starts at {-i*alpha}, i =
    lefts[t], and has length lengths[gaps[t]], gaps[t] = i - lefts[(t + 1)
    % (n + 1)]; its factor (`words`) is coding[n - i: 2n - i], `coding`
    being letters -n..n-1 of the orbit coding.  Whole-length consumers walk
    the lists in this order.
    """

    coding: str
    lefts: list[int]
    gaps: list[int]
    lengths: dict[int, LinearForm]

    @property
    def words(self) -> list[str]:
        coding, n = self.coding, len(self.coding) // 2
        return [coding[n - i: 2 * n - i] for i in self.lefts]


# An entry is one layout, 2n letters and three lists of n + 1 integers.
# Single words, `index --word` too, take the height walk (`word_interval`),
# so the only re-reads are power-classification's: `indices_by_interval`
# and the scan's words and coding read back the layout `indices_by_position`
# has just built.  `verify --n-max 150` hits 3,600 times and misses 1,909
# at a bound of 1, 2 or 4 (3,612 and 1,897 at 256); the `bench/` sweep and
# queries hit none.
@lru_cache(maxsize=1)
def factor_interval_map(cf: ContinuedFraction, n: int) -> FactorMap:
    """The length-n factors as one circular layout from 0 (cached).

    The points {0, -alpha, ..., -n*alpha} split the circle, ordered by a key
    table of reach n; the word at {-i*alpha} is a window of the map's coding
    of -n..n-1, no sample point.  The gap from {-i*alpha} to the next point
    {-j*alpha}, the wrap to 0 included, is d*alpha mod 1 for d = i - j and
    lies in (0, 1): it is d*alpha - floor(d*alpha), whose floor is the
    table's d*p//q as |d| <= n < q.  A layout cached under one
    `STURM_DEPTH_LIMIT` stays certified when it is lowered.
    """
    require_normalized(cf)
    if n < 1:
        raise ValueError(f"factor length must be >= 1, got {n}")
    table = key_table(cf, n)
    p, q = table.p, table.q
    keys = [m % q for m in range(0, -(n + 1) * p, -p)]
    lefts = sorted(range(n + 1), key=keys.__getitem__)
    gaps = [i - j for i, j in zip(lefts, lefts[1:] + lefts[:1])]
    return FactorMap(_coding(p, q, -n, n), lefts, gaps,
                     {d: LinearForm(d, d * p // q) for d in dict.fromkeys(gaps)})


# ------------------------------------------------------------------
# word intervals from height bounds
# ------------------------------------------------------------------

def _height_walk(table: KeyTable, w: str) -> tuple[int, int, int]:
    """(t, lo_idx, hi_idx): w[:t] is the longest prefix of w that is a
    factor, and [w[:t]] runs from {-lo_idx * alpha} to {-hi_idx * alpha},
    hi_idx 0 naming the point 1.  With h_t the number of 1s in w[:t], the
    coding from x in [0, 1) starts with w exactly when
    h_t <= x + t*alpha < h_t + 1 for every t <= len(w).  In key units
    v_t = h_t*q - t*p, so [w] runs from top = max v_t to
    bottom + q = min v_t + q, and it is nonempty while top - bottom < q.
    Each comparison sets some (s - t)*alpha, |s - t| <= len(w) <= reach,
    against an integer, which p/q signs with no tie (gcd(p, q) = 1).
    """
    p, q, up = table.p, table.q, table.q - table.p
    v = top = bottom = top_idx = bottom_idx = 0
    for t, letter in enumerate(w, 1):
        if letter == "1":
            v += up
            if v > top:
                if v - bottom >= q:
                    return t - 1, top_idx, bottom_idx
                top, top_idx = v, t
        else:
            v -= p
            if v < bottom:
                if top - v >= q:
                    return t - 1, top_idx, bottom_idx
                bottom, bottom_idx = v, t
    return len(w), top_idx, bottom_idx


def word_interval(cf: ContinuedFraction, w: str) -> FactorInterval | None:
    """Exact interval [w] of a binary word, its ends named by orbit
    indices, or None if w is not a factor of the language."""
    require_normalized(cf)
    check_word(w)
    n = len(w)
    if n < 1:
        raise ValueError("word must be nonempty")
    table = key_table(cf, n)
    t, lo_idx, hi_idx = _height_walk(table, w)
    if t < n:
        return None
    hi_form = ONE if hi_idx == 0 else table.position_form(-hi_idx)
    return FactorInterval(lo_idx, hi_idx, hi_form - table.position_form(-lo_idx))


def _square_is_factor(cf: ContinuedFraction, w: str) -> bool:
    """`word_interval(cf, w * 2) is not None`, from one height walk of w.

    Along w*w the heights repeat shifted by v_n: v_{n+t} = v_n + v_t, with
    v_t = w[:t].count("1")*q - t*p as in `_height_walk`.  So the spread of
    w*w is that of w plus |v_n|, and as the spread only grows, w*w is a
    factor exactly when w is and (top - bottom) + |v_n| < q, top and bottom
    being v at the walk's two extreme indices.  The table is the one the
    walk of w*w takes, of reach 2|w|, so both refuse alike.  Like
    `_height_walk`, it trusts its caller for a normalized cf and a
    nonempty binary w.
    """
    n = len(w)
    table = key_table(cf, 2 * n)
    t, top_idx, bottom_idx = _height_walk(table, w)
    if t < n:
        return False
    p, q = table.p, table.q
    top, bottom, v_n = (w[:s].count("1") * q - s * p for s in (top_idx, bottom_idx, n))
    return top - bottom + abs(v_n) < q


def language_extension(cf: ContinuedFraction, base: str, ext: str) -> int:
    """Longest j such that base + ext[:j] stays in the language (0 if no
    letter of ext fits); base itself must be a factor."""
    require_normalized(cf)
    check_word(base)
    check_word(ext)
    word = base + ext
    t = _height_walk(key_table(cf, len(word)), word)[0]
    if t < len(base):
        raise ValueError(f"base word {base!r} is not a factor")
    return t - len(base)


# ------------------------------------------------------------------
# three-distance structure
# ------------------------------------------------------------------

def three_distance_decomposition(cf: ContinuedFraction, n: int) -> tuple[int, int, int]:
    """The unique (k, l, r) with n = l*q_{k-1} + q_{k-2} + r, k >= 1,
    0 < l <= a_k, 0 <= r < q_{k-1}, for n >= 1 (q_{-1} = 0, so n <= a_1
    is (1, n, 0)).  The one walk over n's convergent levels: it reads a_1
    to a_k, and q_{k-1} + q_{k-2} <= n < q_k + q_{k-1}."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ctx, k, q2, q1 = _ctx(cf), 1, 0, 1  # q2, q1 = q_{k-2}, q_{k-1}
    while (q := ctx.pair(k)[1]) + q1 <= n:
        k, q2, q1 = k + 1, q1, q
    l, r = divmod(n - q2, q1)
    return k, l, r


def three_distance(cf: ContinuedFraction, n: int) -> PartitionSummary:
    """Formulaic gap summary for the points {0, alpha, ..., n*alpha}, n >= 1;
    n <= a_1 is level k = 1: n gaps alpha and one gap 1 - n*alpha."""
    k, l, r = three_distance_decomposition(cf, n)
    (p2, q2), (p1, q1), (_, q) = _ctx(cf).through(k)[k - 1:k + 2]  # the walk read q_k
    s = 1 if k % 2 else -1  # ||q_{k-1} a||; (-1)^k (q_{k,l} a - p_{k,l}) at l and l - 1
    a = (n + 1 - q1, LinearForm(s * q1, s * p1))
    b = (r + 1, LinearForm(-s * (l * q1 + q2), -s * (l * p1 + p2)))
    c = (q1 - r - 1, LinearForm(-s * ((l - 1) * q1 + q2), -s * ((l - 1) * p1 + p2)))
    if c[1] != a[1] + b[1]:
        raise AssertionError("distance recurrence violated in three-distance summary")
    # Sort the two non-long types exactly: ||q_{k,l} a|| < ||q_{k-1} a|| iff q_{k,l} = q_k.
    return PartitionSummary(k, l, r, (b, a, c) if l * q1 + q2 == q else (a, b, c))
