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

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import floordiv, mul, sub
from typing import Iterable, NamedTuple, Sequence

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
    _square_is_factor,
    characteristic_prefix,
    factor_interval_map,
    key_table,
    require_normalized,
    three_distance_decomposition,
    word_interval,
)
from sturmian.words import (
    check_word,
    conjugates,
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
    n: int
    integer_index: int
    case_tag: str
    conjugate_position: int | None = None
    fractional_index: Fraction | None = None

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


@dataclass(frozen=True)
class ConjugacyReport:
    """Interval structure of the conjugacy class of length q_{k,l}.

    conjugates[i] = C^i(reversed s_{k,l}); the first `wide_count` of them
    carry intervals of length ||q_{k,l-1} a||, the rest intervals of length
    ||q_{k-1} a||, and the one factor outside the class has the unique
    interval of length ||q_{k,l} a||.
    """

    k: int
    l: int
    base: str
    conjugates: tuple[str, ...]
    wide_count: int
    wide_length: LinearForm
    narrow_count: int
    narrow_length: LinearForm
    leftover: str
    leftover_length: LinearForm


# Depth of the tail's convergent bracket in CriticalExponentResult.bounds().
_BOUNDS_DEPTH = 40


@dataclass(frozen=True)
class CriticalExponentResult:
    """The supremum of fractional indices over all factors.

    When the supremum is attained it is the exact rational
    `value_attained`; otherwise it is approached along one residue class
    of depths and equals limit_offset + limit_tail (a purely periodic
    continued fraction), reported with certified enclosures.
    """

    slope: ContinuedFraction
    depth: int
    terms: tuple[tuple[int, Fraction], ...]
    witness_k: int
    attained: bool
    value_attained: Fraction | None
    limit_offset: int | None
    limit_tail: ContinuedFraction | None
    depth_limited: bool

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Certified rational bounds for the supremum."""
        if self.value_attained is not None:
            return self.value_attained, self.value_attained
        a, b, c, e = alpha_bounds(self.limit_tail, min(_BOUNDS_DEPTH, self.limit_tail.max_depth()))
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


def indices_by_interval(cf: ContinuedFraction, n: int) -> dict[str, int]:
    """index_by_interval of every factor of length n, in circular order."""
    factors = factor_interval_map(cf, n)
    by_gap = dict(zip(factors.lengths, _length_indices(cf, n, factors.lengths.values())))
    return dict(zip(factors.words, map(by_gap.__getitem__, factors.gaps)))


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
    ctx = _ctx(cf)
    j = 0  # q_j <= length < q_{j+1}
    while ctx.pair(j + 1)[1] <= length:
        j += 1
    return length + ctx.pair(j)[1] + ctx.pair(j + 1)[1] - 1


def oracle_window(cf: ContinuedFraction, n: int) -> int:
    """Prefix length that certifies every power scan at factor length n.

    The longest pattern worth scanning is N = (bound + 1)*n letters, with
    bound = a_{k+1} + 2 the largest possible index at length n,
    q_k <= n < q_{k+1}; the window is R(N) (`recurrence_window`).
    """
    ctx = _ctx(cf)
    k = 0  # q_k <= n < q_{k+1}
    while ctx.pair(k + 1)[1] <= n:
        k += 1
    return recurrence_window(cf, (cf.quotient(k + 1) + 3) * n)


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
                ) -> tuple[str, tuple[str, int, int, int, int, int]]:
    """The length's case tag and pattern (root, m, split, first, rest, other).

    Cases iii-vi match as (tag, k, x), x = 1 for iii, l for iv and m for v
    and vi; a double match raises instead of silently picking one.
    Quotients are read only where a case uses them, so a truncation answers
    every length its known quotients decide.
    """
    require_normalized(cf)
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    a1 = cf.quotient(1)
    if n < a1:
        return "i", ("1" + "0" * (n - 1), 1, 0, 1, 1, a1 // n)
    if n == a1:
        index = cf.quotient(2) + 1
        return "ii", (reversal(standard_word(cf, 1)), 1, 0, index, index, 1)
    matches: list[tuple[str, int, int]] = []
    # n = q_k or a strict semiconvergent q_{k,l}: both mean r = 0 in the
    # three-distance decomposition n = l*q_{k-1} + q_{k-2} + r.
    k, l, r = three_distance_decomposition(cf, n)
    if r == 0:
        matches.append(("iii", k, 1) if l == cf.quotient(k) else ("iv", k, l))
    if n % a1 == 0 and 1 < n // a1 < cf.quotient(2) + 1:
        matches.append(("v", 1, n // a1))
    j = 2
    while (qj := convergent(cf, j).q) * 2 <= n:
        if n % qj == 0 and 1 < n // qj < cf.quotient(j + 1) + 2:
            matches.append(("vi", j, n // qj))
        j += 1
    if len(matches) > 1:
        raise AssertionError(f"length {n} matched several cases for {cf}: {matches}")
    if not matches:
        return "vii", ("", 1, 0, 1, 1, 1)
    [(tag, k, x)] = matches
    split = convergent(cf, k - 1).q - 1
    if tag == "iv":
        return tag, (reversal(standard_or_semistandard(cf, k, x)), 1, split, 2, 1, 1)
    a = cf.quotient(k + 1)
    return tag, (reversal(standard_word(cf, k)), x, split, (a + 2) // x, (a + 1) // x, 1)


def classify_length(cf: ContinuedFraction, n: int,
                    with_fractional: bool = False) -> list[IndexReport]:
    """IndexReport for every factor of length n, in circular order, by the
    positional rule (`_reports`); fractional indices only on request.  The
    interval formula and the scan oracle cross-check the rule in `verify`."""
    case, fmap = length_case(cf, n), factor_interval_map(cf, n)
    return _reports(cf, n, case, fmap.words, fmap.lefts, fmap.lengths.values(), with_fractional)


def classify_word(cf: ContinuedFraction, w: str) -> IndexReport:
    """`classify_length`'s report of the factor w, fractional index filled,
    from w alone in O(|w|): [w] by the height walk, no factor map."""
    if not check_word(w):
        raise NotAFactorError("the empty word has no index")
    case, interval = length_case(cf, len(w)), _factor_interval(cf, w)
    [report] = _reports(cf, len(w), case, [w], [interval.left_idx], [interval.length], True)
    return report


def _reports(cf: ContinuedFraction, n: int, case: tuple[str, tuple[str, int, int, int, int, int]],
             words: Sequence[str], lefts: Iterable[int], lengths: Iterable[LinearForm],
             with_fractional: bool) -> list[IndexReport]:
    """IndexReport of each factor words[t], whose interval starts at {-lefts[t]*alpha}.

    One positional rule covers all seven cases (Damanik-Lenz): with the
    case's (root, m, split, first, rest, other) from `length_case`, the
    factor C^i(root)^m, i < |root|, has conjugate position i and index
    `first` if i < split, else `rest`; every other factor has `other`.
    w is C^i(root)^m when w[:|root|] first occurs at -i mod |root| in
    root + root and w is m copies of it.  Self-check: root is primitive
    (its shifts are distinct), and given all n + 1 factors, |root| match.
    Each fractional index is (t - 1)/n for the exit t where w^inf leaves
    the language (`_exits`), so its floor (t - 1) // n must equal the
    positional index: two routes meet on every word, on integers, before
    any Fraction is built.
    """
    tag, (root, m, split, first, rest, other) = case
    r, doubled = len(root), root * 2
    positions = [-j % r if root and (j := doubled.find(w[:r])) >= 0 and w == w[:r] * m
                 else None for w in words]
    if (root and root in doubled[1:-1]
            or len(words) > n and len(positions) - positions.count(None) != r):
        raise AssertionError(f"case {tag}: the shifts of {root!r} are not distinct factors "
                             f"of length {n} for {cf}")
    indices = [other if pos is None else first if pos < split else rest for pos in positions]
    fractions = repeat(None)
    if with_fractional:
        exits = _exits(cf, n, lefts, lengths)
        for w, idx, t in zip(words, indices, exits):
            if (t - 1) // n != idx:
                raise AssertionError(f"case {tag}: {w!r} has index {idx} but fractional "
                                     f"index {Fraction(t - 1, n)} for {cf}")
        # (t - 1)/n, one Fraction per distinct exit t.
        by_exit = {t: Fraction(t - 1, n) for t in set(exits)}
        fractions = map(by_exit.__getitem__, exits)
    return list(map(IndexReport, words, repeat(n), indices, repeat(tag), positions, fractions))


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

    Tags are assigned positionally and then certified against the exact
    interval of every factor; the conjugate at position q_{k-1} - 2 is
    checked to be s_{k,l} itself.
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
    conj = conjugates(base)
    if len(set(conj)) != n:
        raise AssertionError(f"s_({k},{l}) reversed is not primitive: {base!r}")
    q_prev = convergent(cf, k - 1).q
    wide_len = semiconvergent_distance(cf, k, l - 1)
    narrow_len = convergent_distance(cf, k - 1)
    leftover_len = semiconvergent_distance(cf, k, l)

    factors = factor_interval_map(cf, n)
    gaps = dict(zip(factors.words, factors.gaps))
    for i, c in enumerate(conj):
        expected = wide_len if i < q_prev - 1 else narrow_len
        if factors.lengths[gaps[c]] != expected:
            raise AssertionError(f"conjugate {i} of {base!r} has unexpected interval length")
    leftover = set(gaps) - set(conj)
    if len(leftover) != 1:
        raise AssertionError(f"expected exactly one non-conjugate factor at n={n}")
    leftover_word = leftover.pop()
    if factors.lengths[gaps[leftover_word]] != leftover_len:
        raise AssertionError("non-conjugate factor has unexpected interval length")
    if conj[q_prev - 2] != plain:
        raise AssertionError(f"conjugate {q_prev - 2} of {base!r} is not s_({k},{l})")
    return ConjugacyReport(
        k=k, l=l, base=base, conjugates=tuple(conj),
        wide_count=q_prev - 1, wide_length=wide_len,
        narrow_count=n + 1 - q_prev, narrow_length=narrow_len,
        leftover=leftover_word, leftover_length=leftover_len,
    )


# ------------------------------------------------------------------
# fractional index and the critical exponent
# ------------------------------------------------------------------

def fractional_index(cf: ContinuedFraction, w: str) -> Fraction:
    """sup of exponents e with w^e a factor, as an exact rational: (t - 1)/|w|
    for the first prefix length t of w^inf that is not a factor (`_exits`)."""
    interval = _factor_interval(cf, w)
    [t] = _exits(cf, len(w), [interval.left_idx], [interval.length])
    return Fraction(t - 1, len(w))


def _exits(cf: ContinuedFraction, n: int, lefts: Iterable[int],
           lengths: Iterable[LinearForm]) -> list[int]:
    """Least t such that the prefix of length t of w^inf is not a factor, for
    the factor w at {-i*alpha} of each i in `lefts`, its length in `lengths`.

    Keys are K(m) = m*p mod q.  For the w whose interval starts at
    {-i*alpha}, the heights of `rotation._height_walk` are v_s = K(-i) -
    K(s-i) for s <= n (exact, as |s - i| < q), and along w^inf they drift:
    v_{t+n} = v_t + delta with delta = K(-i) - K(n-i), nonzero as q > n.
    For delta > 0 the bottom stays the least height of the first period,
    K(-i) - hi for hi the largest of K(-i), ..., K(n-1-i), and the walk
    first fails at t = k*n + s with v_t reaching it plus q: k is the least
    period in which the smallest key lo gets there, k = ceil((q - hi +
    lo)/delta) >= 1 (hi - lo < q since w is a factor), and s is the first
    index of that period that does.  delta < 0 mirrors it with the top.
    Each comparison sets some (t - s)*alpha against an integer, and
    w^(ind+1) is not a factor, so t <= (ind+1)*n: one table of reach
    (ind+1)*n, ind the largest index of the lengths, signs all of them
    as alpha does; keys are distinct, so there is no tie.

    The word at {-i*alpha} reads the window from a = n - i of one key list
    K(-n), ..., K(n).  Its first n keys are left[a:] + right[:a] for the
    halves left = keys[:n] and right = keys[n:2n]: running maxima and minima
    of the halves give every window's extremes, and maps run in C give its
    delta, -k and -k*delta, all in O(n); only the scan for s, on the windows
    asked for, runs in Python.  It needs no end check: k*|delta| >= q - (hi -
    lo), so the bound hi - q + k*delta is at least lo, a key of the window
    (for delta < 0, lo + q + k*delta is at most hi): s stays in [a, a + n).
    """
    table = key_table(cf, (max(_length_indices(cf, n, lengths)) + 1) * n)
    p, q = table.p, table.q
    keys = [m % q for m in range(-n * p, (n + 1) * p, p)]
    left, right = keys[:n], keys[n:2 * n]
    # his[a] and los[a] for a = 0..n; keys lie in [0, q), so -1 and q
    # stand in for the empty suffix left[n:] and the empty prefix right[:0].
    his = list(map(max, [*accumulate(reversed(left), max)][::-1] + [-1],
                   [-1, *accumulate(right, max)]))
    los = list(map(min, [*accumulate(reversed(left), min)][::-1] + [q],
                   [q, *accumulate(right, min)]))
    drifts = list(map(sub, keys[:n + 1], keys[n:]))
    negks = list(map(floordiv, map(sub, map(sub, his, los), repeat(q)), map(abs, drifts)))
    steps = list(map(mul, negks, drifts))
    exits = []
    for i in lefts:
        s = a = n - i
        if drifts[a] > 0:
            bound = his[a] - q - steps[a]
            while keys[s] > bound:
                s += 1
        else:
            bound = los[a] + q - steps[a]
            while keys[s] < bound:
                s += 1
        exits.append(s - a - negks[a] * n)
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
    a, b = y[0] - x[0], y[1] - x[1]
    if b == 0:
        return a >= 0
    if a * b < 0 and a * a > b * b * d:
        return a > 0
    return b > 0


def _term(cf: ContinuedFraction, k: int) -> Fraction:
    """t_k = a_{k+1} + 2 + (q_{k-1} - 2)/q_k for k >= 0, with q_{-1} = 0."""
    ctx = _ctx(cf)
    return cf.quotient(k + 1) + 2 + Fraction(ctx.pair(k - 1)[1] - 2, ctx.pair(k)[1])


def critical_exponent(cf: ContinuedFraction, depth_bound: int) -> CriticalExponentResult:
    """sup over factors of the fractional index, from the slope alone.

    The paper's formula: the sup over every k >= 0 of

        t_k = a_{k+1} + 2 + (q_{k-1} - 2)/q_k,    q_{-1} = 0,

    the largest fractional index of a factor of length q_k (t_0 = a_1,
    t_1 = a_2 + 2 - 1/a_1).  For a periodic slope the per-class limits of
    the t_k are 2 + a_{k+1} plus a purely periodic continued fraction, so
    the supremum is exact: attained by a term or equal to the best class
    limit.  A truncation [0;a_1..a_m] knows t_0..t_{m-1}, which hold for
    every slope of its cylinder, so their best is a certified lower bound.
    `terms` lists t_2 up to t_{depth_bound}.

    The supremum is finite for every eventually periodic or truncated
    slope; it diverges exactly when the partial quotients grow without
    limit, which these inputs cannot express.
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

    # Every candidate is A + B*sqrt(d): a term t_k is (t_k, 0).
    candidates: list[tuple[Fraction, Fraction, ContinuedFraction | None, int]] = [
        (_term(cf, k), Fraction(0), None, k) for k in range(last + 1)]
    terms = tuple((k, t) for t, _, _, k in candidates[2:depth_bound + 1])
    d = 0
    for k0 in range(m + period + 1, m + 2 * period + 1):
        a, b, d, tail = _class_limit(cf, k0)
        candidates.append((a, b, tail, k0))

    best = candidates[0]
    for cand in candidates[1:]:
        if _surd_le(best[:2], cand[:2], d):
            best = cand
    value, _, tail, witness = best
    return CriticalExponentResult(
        slope=cf, depth=depth_bound, terms=terms, witness_k=witness,
        attained=tail is None, value_attained=value if tail is None else None,
        limit_offset=None if tail is None else 2 + cf.quotient(witness + 1), limit_tail=tail,
        depth_limited=not cf.is_periodic,
    )
