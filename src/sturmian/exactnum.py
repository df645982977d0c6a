"""Continued-fraction bookkeeping and certified exact comparison.

A slope is an irrational number in (0, 1) given purely by its partial
quotients, either eventually periodic (exact to any depth) or as a
finite truncation (every answer is then only valid to the stated depth).
Quantities derived from the slope -- distances to the nearest integer,
interval lengths on the circle -- are kept as integer linear forms
q*alpha - p, decided from the first bracket a/b < alpha < c/e with b + e
above the question's size (the depth rule `_Ctx.bracket_depth`).  No
floating point is used anywhere: a comparison either returns a certified
answer or raises.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterator, NamedTuple, NoReturn

DEFAULT_DEPTH_LIMIT = 64
_DEPTH_ENV = "STURM_DEPTH_LIMIT"


class SlopeSyntaxError(ValueError):
    """Raised when a slope string does not match the slope grammar."""


class DepthError(Exception):
    """Base class for failures caused by a too-shallow expansion."""


class DepthExceededError(DepthError):
    """A partial quotient beyond the available truncation was requested."""


class UndecidedError(DepthError):
    """A comparison could not be certified within the allowed depth."""


def depth_limit() -> int:
    """Expansion depth cap: STURM_DEPTH_LIMIT if set, else 64."""
    raw = os.environ.get(_DEPTH_ENV)
    if raw is None:
        return DEFAULT_DEPTH_LIMIT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_DEPTH_ENV} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ValueError(f"{_DEPTH_ENV} must be at least 2, got {value}")
    return value


class Ordering(IntEnum):
    LT = -1
    EQ = 0
    GT = 1


@dataclass(frozen=True)
class ContinuedFraction:
    """Slope alpha = [0; a_1, a_2, ...] as preperiod plus optional period.

    An empty period means the expansion is a finite truncation: queries
    beyond len(preperiod) raise DepthExceededError instead of guessing.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for a in self.preperiod + self.period:
            if not isinstance(a, int) or a < 1:
                raise ValueError(f"partial quotients must be positive integers, got {a!r}")
        if not self.preperiod and not self.period:
            raise ValueError("empty continued fraction expansion")

    @property
    def is_periodic(self) -> bool:
        return bool(self.period)

    @property
    def truncation_depth(self) -> int | None:
        """Last trustworthy quotient index, or None for periodic slopes."""
        return None if self.period else len(self.preperiod)

    def quotient(self, k: int) -> int:
        """Partial quotient a_k, k >= 1."""
        if k < 1:
            raise ValueError(f"partial quotient index must be >= 1, got {k}")
        if k <= len(self.preperiod):
            return self.preperiod[k - 1]
        if not self.period:
            raise DepthExceededError(
                f"quotient a_{k} requested but expansion is only valid to depth "
                f"{len(self.preperiod)}"
            )
        return self.period[(k - len(self.preperiod) - 1) % len(self.period)]

    def max_depth(self) -> int:
        """Deepest usable quotient index under the depth limit (env/64)."""
        cap = depth_limit()
        return cap if self.period else min(cap, len(self.preperiod))

    def __str__(self) -> str:
        parts = [str(a) for a in self.preperiod]
        if self.period:
            parts.append("(" + ",".join(str(a) for a in self.period) + ")")
        return "[0;" + ",".join(parts) + "]"


@dataclass(frozen=True)
class Convergent:
    """Convergent p_k / q_k of the slope."""

    k: int
    p: int
    q: int


def _unordered(self: tuple, other: object) -> NoReturn:
    """Order slot of a tuple-backed value type, which is not ordered as a
    tuple: a form is ordered only through `compare`."""
    raise TypeError(f"{type(self).__name__} values are not ordered")


class LinearForm(NamedTuple):
    """Exact value q*alpha - p with integer q and p.

    A tuple, so equality and hashing run in C; it equals the plain tuple
    (q, p).  Arithmetic is the form's, not the tuple's (3 * f scales f),
    and ordering raises TypeError.
    """

    q: int
    p: int

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.q + other.q, self.p + other.p)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.q - other.q, self.p - other.p)

    def __neg__(self) -> "LinearForm":
        return LinearForm(-self.q, -self.p)

    def __mul__(self, n: int) -> "LinearForm":
        return LinearForm(self.q * n, self.p * n)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.q == 0:
            return str(-self.p)
        head = f"{self.q}a" if self.q != 1 else "a"
        if self.p == 0:
            return head
        return f"{head}{-self.p:+d}"


ONE = LinearForm(0, -1)
ALPHA = LinearForm(1, 0)


# ------------------------------------------------------------------
# slope parsing and normalization
# ------------------------------------------------------------------

def parse_slope(text: str) -> ContinuedFraction:
    """Parse a slope string like "[0;2,(1,2)]" into a ContinuedFraction.

    Grammar: '[0;' then comma-separated positive integers, where the last
    element may be a parenthesized comma-separated period.  Whitespace is
    insignificant.  The result is returned un-normalized (a_1 = 1 allowed).
    """
    s = text.strip()
    if not s.startswith("[") or not s.endswith("]"):
        raise SlopeSyntaxError(f"slope must look like [0;...], got {text!r}")
    inner = s[1:-1].strip()
    head, sep, body = inner.partition(";")
    if not sep or head.strip() != "0":
        raise SlopeSyntaxError(f"slope must start with '[0;', got {text!r}")
    body = body.strip()
    if not body:
        raise SlopeSyntaxError("empty continued fraction expansion")

    period: tuple[int, ...] = ()
    open_idx = body.find("(")
    if open_idx != -1:
        if not body.endswith(")"):
            raise SlopeSyntaxError(f"period must be the final element in {text!r}")
        period = _parse_int_list(body[open_idx + 1:-1], text)
        if not period:
            raise SlopeSyntaxError(f"empty period in {text!r}")
        prefix = body[:open_idx].strip()
        if prefix and not prefix.endswith(","):
            raise SlopeSyntaxError(f"missing comma before period in {text!r}")
        body = prefix[:-1] if prefix else ""
    preperiod = _parse_int_list(body, text)
    return ContinuedFraction(preperiod, period)


def _parse_int_list(body: str, original: str) -> tuple[int, ...]:
    if not body.strip():
        return ()
    values = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk or not chunk.isdecimal():
            raise SlopeSyntaxError(f"bad partial quotient {chunk!r} in {original!r}")
        value = int(chunk)
        if value < 1:
            raise SlopeSyntaxError(f"partial quotient must be >= 1, got {value} in {original!r}")
        values.append(value)
    return tuple(values)


def normalize_slope(cf: ContinuedFraction) -> tuple[ContinuedFraction, bool]:
    """Ensure a_1 >= 2, rewriting [0;1,a_2,...] as [0;a_2+1,...].

    Returns (normalized, swap).  swap=True signals that words emitted for
    the normalized slope describe the original one with letters 0 and 1
    exchanged.
    """
    if cf.quotient(1) != 1:
        return cf, False
    pre, per = cf.preperiod, cf.period
    if len(pre) < 2 and not per:
        raise DepthExceededError("cannot normalize [0;1]: a_2 unknown in a depth-1 truncation")
    while len(pre) < 2:  # unroll whole periods, so the tail is per again
        pre += per
    return ContinuedFraction((pre[1] + 1,) + pre[2:], per), True


# ------------------------------------------------------------------
# convergents and brackets
# ------------------------------------------------------------------

class _Ctx:
    """Per-slope cache of convergent pairs (p_k, q_k) and bracket spans."""

    def __init__(self, cf: ContinuedFraction) -> None:
        self.cf = cf
        # pairs[k + 1] = (p_k, q_k), from (p_-1, q_-1) = (1, 0) and (p_0, q_0) = (0, 1).
        self.pairs: list[tuple[int, int]] = [(1, 0), (0, 1)]
        # spans[d] = b + e of alpha_bounds(cf, d), rising; spans[0] = 0 < n.
        self.spans: list[int] = [0]

    def pair(self, k: int) -> tuple[int, int]:
        pairs = self.pairs
        if k + 1 < len(pairs):
            return pairs[k + 1]
        # Extend a private copy and publish it in one assignment, so a
        # concurrent caller never sees (or appends to) a half-built list.
        pairs = list(pairs)
        for j in range(len(pairs) - 1, k + 1):
            a = self.cf.quotient(j)
            (p1, q1), (p2, q2) = pairs[j], pairs[j - 1]
            pairs.append((a * p1 + p2, a * q1 + q2))
        self.pairs = pairs
        return pairs[k + 1]

    def bracket(self, d: int) -> tuple[int, int, int, int]:
        """`alpha_bounds(cf, d)` for a depth d it accepts."""
        (p1, q1), (p0, q0) = self.pair(d), self.pair(d - 1)
        # At a truncation's last depth, a_{d+1} = 1 gives the cylinder's mediant.
        a = 1 if d == self.cf.truncation_depth else self.cf.quotient(d + 1)
        p2, q2 = a * p1 + p0, a * q1 + q0
        return (p1, q1, p2, q2) if d % 2 == 0 else (p2, q2, p1, q1)

    def bracket_depth(self, n: int, top: int) -> int:
        """The depth rule: the first d <= top (the cap) whose `alpha_bounds`
        bracket a/b < alpha < c/e has b + e > n, else top.  The ends are Farey
        neighbours: no fraction with a denominator up to n lies between them."""
        spans = self.spans
        if spans[-1] <= n and len(spans) <= top:
            # Extended only as far as n needs, and published as pair() publishes.
            spans = list(spans)
            while spans[-1] <= n and len(spans) <= top:
                _, b, _, e = self.bracket(len(spans))
                spans.append(b + e)
            self.spans = spans
        # The list may reach past a cap lowered since it was extended.
        return min(bisect_right(spans, n), top)


# `verify --n-max 150` reads 17 slopes; 256 also keep the recent slopes of a query stream.
@lru_cache(maxsize=256)
def _ctx(cf: ContinuedFraction) -> _Ctx:
    return _Ctx(cf)


def convergent(cf: ContinuedFraction, k: int) -> Convergent:
    """Exact convergent (p_k, q_k); raises DepthExceededError on truncations."""
    if k < 0:
        raise ValueError(f"convergent index must be >= 0, got {k}")
    p, q = _ctx(cf).pair(k)
    return Convergent(k, p, q)


def semiconvergent_den(cf: ContinuedFraction, k: int, l: int) -> int:
    """Denominator q_{k,l} = l*q_{k-1} + q_{k-2} for k >= 2 and 0 <= l <= a_k."""
    if k < 2:
        raise ValueError(f"semiconvergent index k must be >= 2, got {k}")
    return _semiconvergent_pair(cf, k, l)[1]


def semiconvergents(cf: ContinuedFraction, n_max: int) -> Iterator[tuple[int, int, int]]:
    """(k, l, q_{k,l}) for k >= 2 and 0 < l <= a_k, in increasing order of
    q_{k,l}, while q_{k,l} <= n_max.  With q_0 and q_1 these are every
    standard and semistandard length; a_k is read once q_{k-1} <= n_max."""
    ctx = _ctx(cf)
    k = 2
    while (q1 := ctx.pair(k - 1)[1]) <= n_max:
        q2 = ctx.pair(k - 2)[1]
        for l in range(1, cf.quotient(k) + 1):
            if l * q1 + q2 > n_max:
                return
            yield k, l, l * q1 + q2
        k += 1


def _semiconvergent_pair(cf: ContinuedFraction, k: int, l: int) -> tuple[int, int]:
    if k < 1:
        raise ValueError(f"semiconvergent index k must be >= 1, got {k}")
    a_k = cf.quotient(k)
    if not 0 <= l <= a_k:
        raise ValueError(f"semiconvergent offset l must satisfy 0 <= l <= a_{k} = {a_k}, got {l}")
    ctx = _ctx(cf)
    p1, q1 = ctx.pair(k - 1)
    p2, q2 = ctx.pair(k - 2)
    return (l * p1 + p2, l * q1 + q2)


# Four integers per (slope, depth): `verify --n-max 150` keeps 425, a CLI query 3 or 4.
@lru_cache(maxsize=1024)
def alpha_bounds(cf: ContinuedFraction, d: int) -> tuple[int, int, int, int]:
    """Certified integer bracket (a, b, c, e) with a/b < alpha < c/e at depth d.

    The ends are p_d/q_d and p_{d+1}/q_{d+1}; at the last depth m of a
    truncation, p_m/q_m and its mediant with p_{m-1}/q_{m-1} (the cylinder
    of all reals whose expansion starts with the known quotients).  Even-index
    convergents lie below alpha, so the parity of d orders the two ends.
    """
    if d < 1:
        raise ValueError(f"enclosure depth must be >= 1, got {d}")
    m = cf.truncation_depth
    if m is not None and d > m:
        raise DepthExceededError(f"enclosure depth {d} exceeds truncation depth {m}")
    return _ctx(cf).bracket(d)


def _deepen(cf: ContinuedFraction, form: LinearForm, n: int):
    """Integer bounds ln/ld <= q*alpha - p <= hn/hd, ld, hd > 0 (strict unless
    q == 0), at the rule's depth for n, twice that, ..., max_depth()."""
    q, p = form
    ctx, top = _ctx(cf), cf.max_depth()
    d = ctx.bracket_depth(n, top)
    while d:
        a, b, c, e = alpha_bounds(cf, d)
        if q < 0:
            a, b, c, e = c, e, a, b
        yield q * a - p * b, b, q * c - p * e, e
        d = min(2 * d, top) if d < top else 0


# Kept for the benchmark's span tracer, which looks it up by name.
def enclosure(cf: ContinuedFraction, form: LinearForm, d: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= q*alpha - p <= hi at convergent depth d."""
    a, b, c, e = alpha_bounds(cf, d)
    ends = Fraction(form.q * a - form.p * b, b), Fraction(form.q * c - form.p * e, e)
    return min(ends), max(ends)


def sign(cf: ContinuedFraction, form: LinearForm) -> int:
    """Certified sign of q*alpha - p; 0 only for the identically zero form.

    A nonzero form always separates from 0 eventually because alpha is
    irrational; on a finite truncation the search may instead exhaust the
    available depth and raise UndecidedError.
    """
    if form.q == 0:
        return 0 if form.p == 0 else (-1 if form.p > 0 else 1)
    # The alpha bounds are strict, so equality at an endpoint decides too.
    for ln, _, hn, _ in _deepen(cf, form, abs(form.q)):
        if ln >= 0:
            return 1
        if hn <= 0:
            return -1
    raise UndecidedError(
        f"sign of {form} undecided within depth {cf.max_depth()} for slope {cf}"
    )


def compare(cf: ContinuedFraction, a: LinearForm, b: LinearForm) -> Ordering:
    """Certified ordering of two forms; EQ only for syntactically equal forms."""
    return Ordering(sign(cf, a - b))


# ------------------------------------------------------------------
# distances ||n*alpha||
# ------------------------------------------------------------------

def nearest_integer(cf: ContinuedFraction, n: int) -> int:
    """The integer closest to n*alpha (unique: alpha irrational)."""
    for ln, ld, hn, hd in _deepen(cf, LinearForm(n, 0), 2 * abs(n)):
        # floor(x + 1/2) over the open bounds lo < n*alpha < hi: from
        # floor(lo + 1/2) up to ceil(hi + 1/2) - 1.
        p_lo = (2 * ln + ld) // (2 * ld)
        if p_lo == -(-(2 * hn + hd) // (2 * hd)) - 1:
            return p_lo
    raise UndecidedError(f"nearest integer to {n}*alpha undecided for slope {cf}")


def distance(cf: ContinuedFraction, n: int) -> LinearForm:
    """||n*alpha|| as a nonnegative LinearForm +-(n*alpha - p), p nearest."""
    if n < 1:
        raise ValueError(f"distance needs n >= 1, got {n}")
    p = nearest_integer(cf, n)
    s = sign(cf, LinearForm(n, p))
    return LinearForm(s * n, s * p)


def semiconvergent_distance(cf: ContinuedFraction, k: int, l: int) -> LinearForm:
    """||q_{k,l}*alpha|| built from the recurrences: (-1)^k (q_{k,l} a - p_{k,l}).

    Also valid at the boundaries l = 0 (gives ||q_{k-2} alpha||) and
    l = a_k (gives ||q_k alpha||).  At k = 1 it is 1 - l*alpha, a gap of the
    three-distance partition, which is ||l*alpha|| only for l*alpha > 1/2.
    """
    p, q = _semiconvergent_pair(cf, k, l)
    s = -1 if k % 2 else 1
    return LinearForm(s * q, s * p)


def convergent_distance(cf: ContinuedFraction, k: int) -> LinearForm:
    """||q_k*alpha|| = (-1)^k (q_k a - p_k) for k >= -1: 1 at k = -1, alpha at k = 0."""
    p, q = _ctx(cf).pair(k)
    s = -1 if k % 2 else 1
    return LinearForm(s * q, s * p)


def floor_ratio(cf: ContinuedFraction, num: LinearForm, den: LinearForm) -> int:
    """floor(num/den) for two forms with certified positive values."""
    # Both streams walk the same depths.
    n = max(abs(num.q), abs(den.q))
    for (nln, nld, nhn, nhd), (dln, dld, dhn, dhd) in zip(_deepen(cf, num, n),
                                                          _deepen(cf, den, n)):
        if dln <= 0 or nln < 0:
            continue
        m_lo = nln * dhd // (nld * dhn)
        m_hi = nhn * dld // (nhd * dln)
        if m_lo == m_hi:
            return m_lo
        if m_hi == m_lo + 1:
            # Boundary case: decide num - m_hi*den exactly (0 means an exact multiple).
            return m_hi if sign(cf, num - m_hi * den) >= 0 else m_lo
    raise UndecidedError(f"floor({num}/{den}) undecided for slope {cf}")


def recover_quotient(cf: ContinuedFraction, k: int) -> int:
    """a_k recomputed as floor(||q_{k-2} a|| / ||q_{k-1} a||): a consistency check."""
    if k < 1:
        raise ValueError(f"quotient index must be >= 1, got {k}")
    num = convergent_distance(cf, k - 2)
    den = convergent_distance(cf, k - 1)
    return floor_ratio(cf, num, den)


# ------------------------------------------------------------------
# best approximations and closest multiples
# ------------------------------------------------------------------

def best_approximations(cf: ContinuedFraction, q_max: int) -> list[Convergent]:
    """All best rational approximations with denominator <= q_max.

    These are exactly the convergents; the exhaustive-scan oracle in the
    verification suite confirms the claim for every slope it checks.
    """
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    out = []
    k = 0
    while True:
        try:
            c = convergent(cf, k)
        except DepthExceededError:
            raise DepthExceededError(
                f"best approximations up to {q_max} need convergents beyond the truncation"
            ) from None
        if c.q > q_max:
            break
        out.append(c)
        k += 1
    return out


def closest_multiples(cf: ContinuedFraction, k: int, l: int) -> list[int]:
    """All n with 0 < n < q_{k,l} and ||n a|| < ||q_{k,l-1} a||.

    By the closest-multiple property these are exactly m*q_{k-1} for
    1 <= m <= min(l, a_k - l + 1); each returned value is re-certified
    against the defining inequality.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    a_k = cf.quotient(k)
    if not 1 <= l <= a_k:
        raise ValueError(f"l must satisfy 1 <= l <= a_{k} = {a_k}, got {l}")
    q_prev = convergent(cf, k - 1).q
    bound = semiconvergent_distance(cf, k, l - 1)
    out = []
    for m in range(1, min(l, a_k - l + 1) + 1):
        n = m * q_prev
        if compare(cf, distance(cf, n), bound) is not Ordering.LT:
            raise AssertionError(f"closest-multiple certification failed at n={n} for {cf}")
        out.append(n)
    return out


# ------------------------------------------------------------------
# certified decimal rendering
# ------------------------------------------------------------------

def approx_str(cf: ContinuedFraction, form: LinearForm, digits: int = 12) -> str:
    """Deterministic decimal rendering with `digits` significant digits.

    Derived from certified bounds only (never from a floating alpha): both
    ends are rounded until they agree, from the rule's depth for
    isqrt(|q| * 10**digits), where the width |q|/(b*e) nears 10**-digits.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    for ln, ld, hn, hd in _deepen(cf, form, isqrt(abs(form.q) * 10 ** digits)):
        lo_s = _render(ln, ld, digits)
        if lo_s == _render(hn, hd, digits):
            return lo_s
    raise UndecidedError(f"cannot render {form} to {digits} digits for slope {cf}")


def decimal_str(x: Fraction, digits: int = 12) -> str:
    """Deterministic decimal rendering of an exact rational."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    x = Fraction(x)
    return _render(x.numerator, x.denominator, digits)


def _render(num: int, den: int, digits: int) -> str:
    """num/den (den > 0) to `digits` significant digits, rounding half up."""
    if num == 0:
        return "0." + "0" * (digits - 1)
    neg = num < 0
    num = -num if neg else num
    # Exponent e with 10**(e-1) <= num/den < 10**e (the number of digits
    # before the decimal point, may be <= 0).  num/den > 2**m, and
    # m*log10(2) >= m*1233/4096 for m >= 0 and >= m*1234/4096 for m < 0,
    # so counting up from that bound finds e.
    m = num.bit_length() - den.bit_length() - 1
    e = (m * (1233 if m >= 0 else 1234) >> 12) + 1
    while _at_least_pow10(num, den, e):
        e += 1
    # Round num/den * 10**(digits - e), which lies in [10**(digits-1), 10**digits).
    shift = digits - e
    if shift >= 0:
        num *= 10 ** shift
    else:
        den *= 10 ** -shift
    n, r = divmod(num, den)
    if 2 * r >= den:
        n += 1
    if n == 10 ** digits:  # rounding overflow, e.g. 0.9999 -> 1.000
        n //= 10
        e += 1
    mantissa = str(n)
    body = ("-" if neg else "")
    if 0 < e <= digits:
        int_part = mantissa[:e]
        frac_part = mantissa[e:]
        return body + (int_part + ("." + frac_part if frac_part else ""))
    if e <= 0 and e > -5:
        return body + "0." + "0" * (-e) + mantissa
    return body + mantissa[0] + "." + mantissa[1:] + f"e{e - 1:+d}"


def _at_least_pow10(num: int, den: int, k: int) -> bool:
    """num/den >= 10**k for positive num and den."""
    return num >= den * 10 ** k if k >= 0 else num * 10 ** -k >= den
