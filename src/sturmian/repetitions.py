"""Integer and fractional powers of factors, classified by length.

The central fact: the integer index of a factor w of length n is
gamma + floor(|[w]| / ||n*alpha||), with gamma = 0 exactly when the
interval length equals ||n*alpha||.  Lengths q_k and q_{k,l} carry the
conjugacy classes of reversed standard and semistandard words, whose
interval lengths (and hence indices) follow a rigid positional pattern;
every other length has index 1 throughout.  All of it is computed here
twice: by exact interval formulas and by scanning coded prefixes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import floordiv, sub
from typing import Iterable, NamedTuple

from sturmian import oracles
from sturmian.exactnum import (
    ContinuedFraction,
    LinearForm,
    _ctx,
    _unordered,
    alpha_bounds,
    convergent,
    convergent_distance,
    distance,
    floor_ratio,
    semiconvergent_distance,
    semiconvergents,
)
from sturmian.rotation import (
    FactorInterval,
    FactorMap,
    _square_is_factor,
    characteristic_prefix,
    coding_prefix,
    factor_interval_map,
    key_table,
    require_normalized,
    three_distance_decomposition,
    word_interval,
)
from sturmian.words import (
    check_word,
    reversal,
    standard_or_semistandard,
    standard_word,
)


class NotAFactorError(ValueError):
    """The queried word does not belong to the language of the slope."""


class IndexReport(NamedTuple):
    """Classification of one factor: its integer index and case.

    A tuple, like `FactorInterval`, and likewise not ordered.
    """

    word: str
    integer_index: int
    case_tag: str
    conjugate_position: int | None = None
    fractional_index: Fraction | None = None

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


class ConjugacyReport(NamedTuple):
    """Interval structure of the conjugacy class of length n = q_{k,l}.

    conjugates[i] = C^i(reversed s_{k,l}), and `leftover` is the one factor
    outside the class.  `gaps` holds the (count, interval length) pair of
    each block, (wide, narrow, outside): the first q_{k-1} - 1 conjugates
    have length ||q_{k,l-1} a||, the other n + 1 - q_{k-1} length
    ||q_{k-1} a||, and the leftover alone has ||q_{k,l} a||.
    """

    conjugates: tuple[str, ...]
    leftover: str
    gaps: tuple[tuple[int, LinearForm], ...]


class CriticalExponentResult(NamedTuple):
    """The supremum of fractional indices over all factors.

    When the supremum is attained it is the exact rational
    `value_attained`, and `limit_tail` is None; otherwise it is approached
    along one residue class of depths and equals limit_offset + limit_tail
    (a purely periodic continued fraction), reported with certified
    enclosures.  On a truncation it is a lower bound, attained.
    """

    terms: tuple[tuple[int, Fraction], ...]
    witness_k: int
    value_attained: Fraction | None
    limit_offset: int | None
    limit_tail: ContinuedFraction | None

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Certified rational bounds for the supremum: the tail's bracket at the cap."""
        if self.value_attained is not None:
            return self.value_attained, self.value_attained
        a, b, c, e = alpha_bounds(self.limit_tail, self.limit_tail.max_depth())
        return self.limit_offset + Fraction(a, b), self.limit_offset + Fraction(c, e)


# ------------------------------------------------------------------
# integer index: formula and oracle
# ------------------------------------------------------------------

def _factor_interval(cf: ContinuedFraction, w: str) -> FactorInterval:
    """[w] by the height walk, in O(|w|) (`word_interval`); the empty word
    and non-factors are refused."""
    if not w:
        raise NotAFactorError("the empty word has no index")
    interval = word_interval(cf, w)
    if interval is None:
        raise NotAFactorError(f"{w!r} is not a factor for slope {cf}")
    return interval


def index_by_interval(cf: ContinuedFraction, w: str) -> int:
    """Integer index from the interval length: gamma + floor(|[w]|/||n a||)."""
    return _length_indices(cf, len(w), [_factor_interval(cf, w).length])[0]


def _length_indices(cf: ContinuedFraction, n: int, lengths: Iterable[LinearForm]) -> list[int]:
    """The index of each given interval length of a length-n factor, in order.

    The n + 1 intervals of a length take at most three lengths
    (three-distance theorem), so callers pass each distinct length once
    (`FactorMap.lengths`) and the formula runs once per length.
    """
    dist = distance(cf, n)
    return [(0 if length == dist else 1) + floor_ratio(cf, length, dist) for length in lengths]


def indices_by_interval(cf: ContinuedFraction, n: int) -> list[int]:
    """index_by_interval of every factor of length n, in layout order
    (`FactorMap.lefts`, the order of `classify_length`)."""
    factors = factor_interval_map(cf, n)
    by_gap = dict(zip(factors.lengths, _length_indices(cf, n, factors.lengths.values())))
    return list(map(by_gap.__getitem__, factors.gaps))


def _level(cf: ContinuedFraction, n: int) -> int:
    """The k >= 0 with q_k <= n < q_{k+1}, n >= 1: n's three-distance level
    k (`three_distance_decomposition`) less one when l < a_k, as then
    q_{k-1} <= n < q_k."""
    k, l, _ = three_distance_decomposition(cf, n)
    return k - (l < cf.quotient(k))


def recurrence_window(cf: ContinuedFraction, length: int) -> int:
    """Prefix length R(N) that holds every factor of N = `length` letters.

    Every R(N) consecutive letters of c_alpha hold every factor of length N,
    for the recurrence function R(N) = N + q_j + q_{j+1} - 1,
    q_j <= N < q_{j+1} (M. Morse and G. A. Hedlund, Symbolic dynamics II.
    Sturmian trajectories, Amer. J. Math. 62, 1940; J. Cassaigne, Limit
    values of the recurrence quotient of Sturmian sequences, Theoret.
    Comput. Sci. 218, 1999).  So a pattern of at most N letters absent from
    the first R(N) is absent from the whole language.  A truncation that
    cannot name q_{j+1} refuses.
    """
    ctx, j = _ctx(cf), _level(cf, length)
    return length + ctx.pair(j)[1] + ctx.pair(j + 1)[1] - 1


def oracle_window(cf: ContinuedFraction, n: int) -> int:
    """Prefix length that certifies every power scan at factor length n.

    The longest pattern worth scanning is N = (bound + 1)*n letters, with
    bound = a_{k+1} + 2 the largest possible index at length n,
    q_k <= n < q_{k+1}; the window is R(N) (`recurrence_window`).
    """
    return recurrence_window(cf, (cf.quotient(_level(cf, n) + 1) + 3) * n)


def index_oracle(cf: ContinuedFraction, w: str) -> int:
    """Largest p with w^p inside the coded prefix of `oracle_window` letters
    (0 if w never occurs); that window is long enough for the true index."""
    require_normalized(cf)
    check_word(w)
    n = len(w)
    if n == 0:
        raise NotAFactorError("the empty word has no index")
    return oracles.max_power(characteristic_prefix(cf, oracle_window(cf, n)), w)


# ------------------------------------------------------------------
# the seven-way classification by length
# ------------------------------------------------------------------

def length_case(cf: ContinuedFraction, n: int
                ) -> tuple[str, tuple[str, int, int, int, int]]:
    """The length's case tag and pattern (root, split, first, rest, other).

    The case is read off n's three-distance decomposition n = l*q_{k-1} +
    q_{k-2} + r (`three_distance_decomposition`).  n < a_1 (k = 1, l < a_1)
    is i.  r = 0 is n = q_{k,l}: iv for l < a_k, otherwise n = q_k, ii at
    k = 1 and iii beyond.  r = q_{k-1} - q_{k-2} is n = m*q_{k-1} with
    m = l + 1 > 1: v at k = 2 (where m <= a_2) and vi beyond.  Every other
    length is vii.  The decomposition is unique, so no length takes two
    cases.  Quotients are read only where a case uses them (a_{k+1} only
    at n = q_k), so a truncation answers every length its known quotients
    decide.
    """
    require_normalized(cf)
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    k, l, r = three_distance_decomposition(cf, n)
    ctx, a_k = _ctx(cf), cf.quotient(k)
    if k == 1 and l < a_k:
        return "i", ("1" + "0" * (n - 1), 0, 1, 1, a_k // n)
    q1, q2 = ctx.pair(k - 1)[1], ctx.pair(k - 2)[1]
    # The root s_j (j = k, or k - 1 for v and vi; s_{k,l} for iv) gives
    # split = q_{j-1} - 1, and a = a_{j+1} (0 for iv) gives first and rest.
    if r == 0 and l < a_k:
        tag, root, m, q, a = "iv", standard_or_semistandard(cf, k, l), 1, q1, 0
    elif r == 0:
        tag, root, m, q, a = "iii" if k > 1 else "ii", standard_word(cf, k), 1, q1, cf.quotient(k + 1)
    elif r == q1 - q2 and (k > 2 or l < a_k):
        tag, root, m, q, a = "vi" if k > 2 else "v", standard_word(cf, k - 1), l + 1, q2, a_k
    else:
        return "vii", ("", 0, 1, 1, 1)
    return tag, (reversal(root), q - 1, (a + 2) // m, (a + 1) // m, 1)


def classify_length(cf: ContinuedFraction, n: int,
                    with_fractional: bool = False) -> list[IndexReport]:
    """IndexReport for every factor of length n, in circular order, by the
    positional rule (`_reports`); fractional indices only on request.  The
    interval formula and the scan oracle cross-check the rule in `verify`."""
    return _reports(cf, n, length_case(cf, n), factor_interval_map(cf, n), with_fractional)


def classify_word(cf: ContinuedFraction, w: str) -> IndexReport:
    """`classify_length`'s report of the factor w, fractional index filled,
    in O(|w|): [w] by the height walk, in a map of w alone (2|w| letters)."""
    if not check_word(w):
        raise NotAFactorError("the empty word has no index")
    case, (i, j, length) = length_case(cf, len(w)), _factor_interval(cf, w)
    fmap = FactorMap(coding_prefix(cf, -len(w), 2 * len(w)), [i], [i - j], {i - j: length})
    [report] = _reports(cf, len(w), case, fmap, True)
    return report


def _conjugate_positions(cf: ContinuedFraction, n: int, root: str,
                         fmap: FactorMap) -> list[int | None]:
    """The conjugate position of each factor of `fmap`, in its order: i if
    it is C^i(root)^m (n = m*|root|, i < |root|; C^i(root) starts at -i mod
    |root| in root + root), else None.

    No word is compared.  For r = |root|, the factors at left indices 0..r-1
    and n - r + 1..n are the windows of the end blocks coding[n - r + 1:]
    and coding[:n + r - 1] (`FactorMap`).  A block passes when it has period
    r and its first r letters occur in root + root, first at offset j: its
    factor at left index i, top its last, is C^((i - top - j) mod r)(root)^m.
    As root is primitive, those r windows at r distinct left indices are
    the whole class.  That one end block holds it (the coding of -n..n-1 is
    reverse(c[:n-1]) + "10" + c[:n-1], c the characteristic word) is not
    proved here but self-checked: root primitive, |root| dividing n and
    exactly one block passing, else AssertionError, never a wrong position.
    """
    r, coding, doubled = len(root), fmap.coding, root * 2
    if not root:
        return [None] * len(fmap.lefts)
    passing = [(top, j) for top, block in ((r - 1, coding[n - r + 1:]), (n, coding[:n + r - 1]))
               if block[r:] == block[:-r] and (j := doubled.find(block[:r])) >= 0]
    if root in doubled[1:-1] or n % r or len(passing) != 1:
        raise AssertionError(f"the shifts of {root!r} are not distinct factors "
                             f"of length {n} for {cf}")
    [(top, j)] = passing
    return [(i - top - j) % r if top - r < i <= top else None for i in fmap.lefts]


def _reports(cf: ContinuedFraction, n: int, case: tuple[str, tuple[str, int, int, int, int]],
             fmap: FactorMap, with_fractional: bool) -> list[IndexReport]:
    """IndexReport of each factor of `fmap`, in its order (`_exits` reads its gaps).

    One positional rule covers all seven cases (Damanik-Lenz): with the
    case's (root, split, first, rest, other) from `length_case`, the
    factor C^i(root)^m, i < |root|, has conjugate position i
    (`_conjugate_positions`) and index `first` if i < split, else `rest`;
    every other factor has `other`.  Each fractional index is (t - 1)/n
    for the exit t where w^inf leaves the language (`_exits`), so its
    floor (t - 1) // n must equal the positional index: two routes meet on
    every word, on integers, before any Fraction is built.  The same check
    certifies the exit table, sized by these indices (`_exits`), so no
    interval formula runs here.
    """
    tag, (root, split, first, rest, other) = case
    words, positions = fmap.words, _conjugate_positions(cf, n, root, fmap)
    indices = [other if pos is None else first if pos < split else rest for pos in positions]
    fractions = repeat(None)
    if with_fractional:
        exits = _exits(cf, n, zip(fmap.lefts, fmap.gaps), (max(indices) + 1) * n)
        if list(map(floordiv, map(sub, exits, repeat(1)), repeat(n))) != indices:
            for w, idx, t in zip(words, indices, exits):
                if (t - 1) // n != idx:
                    raise AssertionError(f"case {tag}: {w!r} has index {idx} but fractional "
                                         f"index {Fraction(t - 1, n)} for {cf}")
        # (t - 1)/n, one Fraction per distinct exit t.
        by_exit = {t: Fraction(t - 1, n) for t in set(exits)}
        fractions = map(by_exit.__getitem__, exits)
    # tuple.__new__ fills the NamedTuple without a Python-level __new__ per word.
    return list(map(tuple.__new__, repeat(IndexReport),
                    zip(words, indices, repeat(tag), positions, fractions)))


# ------------------------------------------------------------------
# squares
# ------------------------------------------------------------------

def square_lengths(cf: ContinuedFraction, n_max: int) -> set[int]:
    """Lengths <= n_max of primitive words whose square is a factor.

    These are exactly the convergent denominators q_k and the strict
    semiconvergent denominators q_{k,l} (0 < l < a_k); each witness square
    w*w is re-certified before returning, by one height walk of w under the
    table of reach 2|w| (`rotation._square_is_factor`): the heights of w*w
    are those of w and those of w shifted by the drift v_n of one period,
    so w*w is a factor exactly when the spread of w plus |v_n| stays below
    q, and the walk reads |w| letters, not 2|w|.
    """
    require_normalized(cf)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    out = {q: standard_word(cf, k) for k in (0, 1) if (q := convergent(cf, k).q) <= n_max}
    out.update((q, standard_or_semistandard(cf, k, l)) for k, l, q in semiconvergents(cf, n_max))
    for q, w in out.items():
        if not _square_is_factor(cf, w):
            raise AssertionError(f"square of {w!r} (length {q}) unexpectedly missing")
    return set(out)


# ------------------------------------------------------------------
# conjugacy classes of standard lengths
# ------------------------------------------------------------------

def conjugacy_report(cf: ContinuedFraction, k: int, l: int) -> ConjugacyReport:
    """Full conjugacy-class structure at length q_{k,l} (l = a_k gives s_k).

    Each factor of the layout takes its conjugate position, and so its tag,
    from the positional rule (`_conjugate_positions`, whose count check
    leaves one other factor); every tag is certified against the factor's
    exact interval, and the conjugate at position q_{k-1} - 2 is checked
    to be s_{k,l}.  No quotient past a_k is read (`length_case` would read
    a_{k+1}), so a truncation answers at its last k.
    """
    require_normalized(cf)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    a_k = cf.quotient(k)
    if not 0 < l <= a_k:
        raise ValueError(f"l must satisfy 0 < l <= a_{k} = {a_k}, got {l}")
    plain = standard_or_semistandard(cf, k, l)
    base = reversal(plain)
    n = len(base)
    q_prev = convergent(cf, k - 1).q
    wide, narrow, outside = gaps = (
        (q_prev - 1, semiconvergent_distance(cf, k, l - 1)),
        (n + 1 - q_prev, convergent_distance(cf, k - 1)),
        (1, semiconvergent_distance(cf, k, l)),
    )

    factors = factor_interval_map(cf, n)
    positions = _conjugate_positions(cf, n, base, factors)
    conj = [""] * n
    for w, i, d in zip(factors.words, positions, factors.gaps):
        if i is None:
            leftover = w
            if factors.lengths[d] != outside[1]:
                raise AssertionError("non-conjugate factor has unexpected interval length")
        else:
            conj[i] = w
            if factors.lengths[d] != (wide if i < q_prev - 1 else narrow)[1]:
                raise AssertionError(f"conjugate {i} of {base!r} has unexpected interval length")
    if conj[q_prev - 2] != plain:
        raise AssertionError(f"conjugate {q_prev - 2} of {base!r} is not s_({k},{l})")
    return ConjugacyReport(tuple(conj), leftover, gaps)


# ------------------------------------------------------------------
# fractional index and the critical exponent
# ------------------------------------------------------------------

def fractional_index(cf: ContinuedFraction, w: str) -> Fraction:
    """sup of exponents e with w^e a factor, as an exact rational: (t - 1)/|w|
    for the first prefix length t of w^inf that is not a factor (`_exits`),
    on the table its positional index ind sizes, t <= (ind + 1)*|w| (`classify_word`)."""
    return classify_word(cf, w).fractional_index


def _exits(cf: ContinuedFraction, n: int, windows: Iterable[tuple[int, int]],
           reach: int) -> list[int]:
    """Least t such that the prefix of length t of w^inf is not a factor, for
    the factor w at {-i*alpha} of each window (i, d) in `windows` (d below),
    on one key table of the given `reach`, a multiple of n.

    Keys are K(m) = m*p mod q.  For the w whose interval starts at
    {-i*alpha}, the heights of `rotation._height_walk` are v_s = K(-i) -
    K(s-i) for s <= n (exact, as |s - i| < q), and along w^inf they drift:
    v_{t+n} = v_t + delta with delta = K(-i) - K(n-i), nonzero as q > n.
    Let hi and lo be the largest and least of the n + 1 keys K(s-i), s <= n
    (the last is the first less delta, so it is never the extreme that
    delta moves away from).  For delta > 0 the bottom stays the least height
    of the first period, K(-i) - hi, and the walk first fails at t = k*n + s
    with v_t reaching it plus q: k is the least period in which the smallest
    key lo gets there, k = ceil((q - hi + lo)/delta) >= 1 (keys are
    distinct), and s <= n is the first index of that period that does (s = n
    is the t of s = 0 one period on).  delta < 0 mirrors it with the top.
    Each comparison for a word whose exit comes out as t sets some m*alpha,
    |m| <= ceil(t/n)*n, against an integer, so on a reach that is a multiple
    of n an exit t <= reach is exact (keys are distinct: no tie).  A later t
    may be wrong, so the caller certifies it.  With reach (ind + 1)*n, ind at
    least each word's index, either ind is certified, and bounds every exit
    as w^(ind+1) is not a factor (`fractional_index`), or a floor (t - 1)//n
    other than the word's index, as every t > reach has, is refused (`_reports`).

    The word at {-i*alpha} reads the window from a = n - i of one key list
    K(-n), ..., K(n): K(s-i) = (K(-i) + K(s)) mod q, s <= n.  Its least key
    is lo = K(0) = 0 (at s = i).  Its largest comes from the end {-j*alpha}
    of its interval: that is the next point, so K(j) is the strict
    predecessor of K(i) among K(0), ..., K(n) (the largest of them for
    i = 0), and hi = K(-i) + K(j) = K(-d) for the gap d = i - j
    (K(-i) = q - K(i) for i > 0; d = -j for i = 0).  So each window is the
    pair (i, d), d from the layout (`FactorMap.gaps`) or left_idx -
    right_idx of `word_interval`, and only the windows asked for are
    computed.  The scan for s needs no end check: k*|delta| >= q - hi, so
    the bound hi - q + k*delta is at least 0, a key of the window (for
    delta < 0, q + k*delta is at most hi): s stays in [a, a + n].
    """
    table = key_table(cf, reach)
    p, q = table.p, table.q
    keys = [m % q for m in range(-n * p, (n + 1) * p, p)]
    exits = []
    for i, d in windows:
        s = a = n - i
        hi, drift = -d * p % q, keys[a] - keys[n + a]
        negk = (hi - q) // abs(drift)
        if drift > 0:
            bound = hi - q - negk * drift
            while keys[s] > bound:
                s += 1
        else:
            bound = q - negk * drift
            while keys[s] < bound:
                s += 1
        exits.append(s - a - negk * n)
    return exits


def _class_limit(cf: ContinuedFraction, k0: int
                 ) -> tuple[Fraction, Fraction, int, ContinuedFraction]:
    """(A, B, D, tail): the limit 2 + a_{k0+1} + tail of the terms t_k along
    k = k0 mod the period is A + B*sqrt(D), with the purely periodic tail
    x = [0; (a_{k0}, a_{k0-1}, ..., back one period)].

    x = (p_P + p_{P-1} x)/(q_P + q_{P-1} x) for the tail's convergents, so
    q_{P-1} x^2 + (q_P - p_{P-1}) x - p_P = 0 and x = (p_{P-1} - q_P +
    sqrt(D))/(2 q_{P-1}), with D = tr^2 - 4 det of the period matrix.  The
    tails of one slope are rotations of the reversed period, whose period
    matrices are conjugate: D is the same for every class limit of a slope.
    """
    period = len(cf.period)
    tail = ContinuedFraction((), tuple(cf.quotient(k0 - j) for j in range(period)))
    ctx = _ctx(tail)
    p1, q1 = ctx.pair(period)
    p0, q0 = ctx.pair(period - 1)
    d = (p0 + q1) ** 2 - 4 * (p0 * q1 - p1 * q0)
    return 2 + cf.quotient(k0 + 1) + Fraction(p0 - q1, 2 * q0), Fraction(1, 2 * q0), d, tail


def _surd_le(x: tuple[Fraction, Fraction], y: tuple[Fraction, Fraction], d: int) -> bool:
    """Exact x <= y for numbers A + B*sqrt(d) given as (A, B), sqrt(d)
    irrational: the sign of a + b*sqrt(d), (a, b) = y - x."""
    if x[1] == y[1]:
        return x[0] <= y[0]
    a, b = y[0] - x[0], y[1] - x[1]
    if a * b < 0 and a * a > b * b * d:
        return a > 0
    return b > 0


def _terms(cf: ContinuedFraction, last: int) -> list[tuple[int, int]]:
    """t_0..t_last, t_k = a_{k+1} + 2 + (q_{k-1} - 2)/q_k with q_{-1} = 0, each as the
    integer pair (q_{k+1} + 2 q_k - 2, q_k) (a_{k+1} q_k + q_{k-1} = q_{k+1})."""
    pairs = _ctx(cf).through(last + 1)[1:last + 3]  # (p_0, q_0)..(p_{last+1}, q_{last+1})
    return [(q2 + 2 * q1 - 2, q1) for (_, q1), (_, q2) in zip(pairs, pairs[1:])]


def critical_exponent(cf: ContinuedFraction, depth_bound: int) -> CriticalExponentResult:
    """sup over factors of the fractional index, from the slope alone.

    The paper's formula: the sup over every k >= 0 of

        t_k = a_{k+1} + 2 + (q_{k-1} - 2)/q_k,    q_{-1} = 0,

    the largest fractional index of a factor of length q_k (t_0 = a_1,
    t_1 = a_2 + 2 - 1/a_1).  For a periodic slope the per-class limits of
    the t_k are 2 + a_{k+1} plus a purely periodic continued fraction, so
    the supremum is exact: attained by a term or equal to the best class
    limit, whose witness k0 in [m + p + 1, m + 2p] is the given spelling's (m and p its
    preperiod and period lengths; `parse_slope` spells canonically).  For irrational x, x'
    in (0, 1), 2 + a + x = 2 + a' + x' only if a = a' and x = x', one rotation of the
    reversed period, so only terms, or a non-primitive period given to the library, reach
    the tie rule.  A truncation [0;a_1..a_m] knows t_0..t_{m-1}, which hold for every slope
    of its cylinder, so their best is a certified lower bound; `terms` lists t_2 up to
    t_{depth_bound}.  The supremum is finite for every eventually periodic or truncated
    slope; it diverges exactly when the partial quotients grow without limit.
    """
    require_normalized(cf)
    if depth_bound < 2:
        raise ValueError(f"depth bound must be >= 2, got {depth_bound}")
    m = len(cf.preperiod)
    period = len(cf.period)
    if cf.is_periodic:
        # Beyond the horizon every term sits strictly below its class
        # limit: the term and the limit share s = k - m reversed quotients,
        # so they differ by at most 1/d_s^2 (d_s the shared continuant),
        # while the term loses a full 2/q_k <= 2/(2 q_m d_s); once
        # d_s >= q_m the slack wins.  Continuants grow at least like
        # Fibonacci numbers.
        q_m = convergent(cf, m).q
        s, fib_a, fib_b = 1, 1, 1  # fib_b = Fib(s + 1) <= any continuant of s terms
        while fib_b < q_m:
            fib_a, fib_b = fib_b, fib_a + fib_b
            s += 1
        last = max(m + period + 1, m + s + 1, depth_bound)
    else:
        last = min(depth_bound, m - 1)

    # The best term on integers (num/den <= x/y iff num*y <= x*den); a later k wins a tie.
    terms = _terms(cf, last)
    witness, (num, den) = 0, terms[0]
    for k, (x, y) in enumerate(terms):
        if num * y <= x * den:
            witness, num, den = k, x, y
    # Only that term meets the class limits: each candidate is A + B*sqrt(d), the
    # term (t_k, 0), and a tie again keeps the later one.
    best, tail = (Fraction(num, den), 0), None
    for k0 in range(m + period + 1, m + 2 * period + 1):
        a, b, d, limit_tail = _class_limit(cf, k0)
        if _surd_le(best, (a, b), d):
            best, tail, witness = (a, b), limit_tail, k0
    return CriticalExponentResult(
        terms=tuple((k, Fraction(*terms[k])) for k in range(2, min(depth_bound, last) + 1)),
        witness_k=witness, value_attained=best[0] if tail is None else None,
        limit_offset=None if tail is None else 2 + cf.quotient(witness + 1), limit_tail=tail,
    )
