"""Seeded inputs for the benchmark workloads, built without the package.

Generation never imports `sturmian`: any call into it would warm the
slope-keyed caches that the workloads measure.  Slopes are drawn as
partial quotients, and the words for `index --word` are cut from standard
words built here by the recurrence s_k = s_{k-1}^{a_k} s_{k-2}.

A slope is a pair (preperiod, period) of int tuples; an empty period is a
finite truncation [0;a_1..a_m].
"""

from __future__ import annotations

import random
from typing import Iterator

Slope = tuple[tuple[int, ...], tuple[int, ...]]

# Fixed work per run, sized so that a run takes about --seconds on a
# 2-vCPU machine; a faster program then shows as a lower wall_s.
QUERY_OPS_PER_SECOND = 100
SWEEP_SLOPES_PER_SECOND = 0.55

# Ops of each kind in every block of 50 `queries` ops.  Exact counts per
# block, rather than independent draws, keep the mix the same from seed to
# seed.  critical-exponent stays under 10% so that the p90 latency does not
# sit on the boundary between its slow ops and the fast bulk.
QUERY_MIX = (
    ("factors", 10),
    ("index-n", 10),
    ("index-word", 11),
    ("three-distance", 9),
    ("conjugacy", 7),
    ("critical-exponent", 3),
)
TRUNCATED_PER_BLOCK = 5
NON_FACTOR_SHARE = 0.25
MAX_CONJUGACY_LENGTH = 200

# `sweep`: lengths classified per slope, the square-length bound and the
# factor length, all formula-only.
SWEEP_N_MAX = 150
SWEEP_SQUARE_N_MAX = 30_000
SWEEP_FACTOR_N = 4000
SWEEP_SAMPLED_LENGTHS = 3


def query_count(seconds: int) -> int:
    return max(100, round(seconds * QUERY_OPS_PER_SECOND))


def sweep_slope_count(seconds: int) -> int:
    return max(2, round(seconds * SWEEP_SLOPES_PER_SECOND))


def slope_str(slope: Slope) -> str:
    pre, per = slope
    parts = [str(a) for a in pre]
    if per:
        parts.append("(" + ",".join(str(a) for a in per) + ")")
    return "[0;" + ",".join(parts) + "]"


def quotient(slope: Slope, k: int) -> int | None:
    """a_k for k >= 1, or None beyond a truncation."""
    pre, per = slope
    if k <= len(pre):
        return pre[k - 1]
    if not per:
        return None
    return per[(k - len(pre) - 1) % len(per)]


def denominators(slope: Slope, count: int) -> list[int]:
    """q_0 .. q_{count-1}, stopping early at the end of a truncation."""
    qs = [1]
    prev = 0  # q_{-1}
    for k in range(1, count):
        a = quotient(slope, k)
        if a is None:
            break
        qs, prev = qs + [a * qs[-1] + prev], qs[-1]
    return qs


def standard_word(slope: Slope, min_len: int) -> str:
    """The first standard word s_k of length >= min_len (or the deepest one
    a truncation allows)."""
    prev, cur = "1", "0"  # s_{-1}, s_0
    k = 0
    while len(cur) < min_len:
        a = quotient(slope, k + 1)
        if a is None:
            break
        k += 1
        prev, cur = cur, cur * (a - 1 if k == 1 else a) + prev
    return cur


def _draw_periodic(rng: random.Random) -> Slope:
    pre = (rng.randint(2, 5),) + tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 2)))
    per = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
    return pre, per


def _draw_truncated(rng: random.Random) -> Slope:
    # 10 or more quotients: deep enough for many answers to certify, and a
    # periodic extension (preperiod >= 10) never coincides with a periodic
    # slope of the stream (preperiod <= 3), whose caches it would warm.
    m = rng.randint(10, 24)
    return (rng.randint(2, 5),) + tuple(rng.randint(1, 5) for _ in range(m - 1)), ()


def _fresh(rng: random.Random, seen: set[Slope], draw) -> Slope:
    while True:
        slope = draw(rng)
        if slope not in seen:
            seen.add(slope)
            return slope


def query_stream(seed: int) -> Iterator[dict]:
    """Endless stream of CLI invocations, each on a slope not seen before.

    Each op is a dict with `kind`, `argv`, `slope` and, for truncations,
    `extensions`: two periodic slopes in the truncation's cylinder.  The
    size argument of each kind (n, word length, class length, depth) is
    stratified within a block: the block's ops of one kind draw one each
    from equal slices of its range, so the latency mix, and with it p90,
    does not vary with the seed.
    """
    rng = random.Random(seed)
    seen: set[Slope] = set()
    per_block = dict(QUERY_MIX)
    while True:
        kinds = [kind for kind, count in QUERY_MIX for _ in range(count)]
        truncated = [i < TRUNCATED_PER_BLOCK for i in range(len(kinds))]
        strata = {kind: rng.sample(range(count), count) for kind, count in QUERY_MIX}
        rng.shuffle(kinds)
        rng.shuffle(truncated)
        for kind, trunc in zip(kinds, truncated):
            slope = _fresh(rng, seen, _draw_truncated if trunc else _draw_periodic)
            u = (strata[kind].pop() + rng.random()) / per_block[kind]
            op = {"kind": kind, "slope": slope, "argv": _query_argv(rng, kind, slope, u)}
            if trunc:
                op["extensions"] = [
                    (slope[0], tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 2))))
                    for _ in range(2)
                ]
            yield op


def _query_argv(rng: random.Random, kind: str, slope: Slope, u: float) -> list[str]:
    """The op's arguments; `u` in [0, 1) places its size argument."""
    a1 = slope[0][0]
    if kind == "factors":
        args = ["factors", "--n", str(1 + int(48 * u))]
    elif kind == "index-n":
        args = ["index", "--n", str(1 + int(48 * u))]
    elif kind == "index-word":
        length = 1 + int(40 * u)
        text = standard_word(slope, 3 * length)
        start = rng.randrange(max(1, len(text) - length + 1))
        word = text[start:start + length]
        if rng.random() < NON_FACTOR_SHARE:
            i = rng.randrange(len(word))
            word = word[:i] + ("1" if word[i] == "0" else "0") + word[i + 1:]
        args = ["index", "--word", word]
    elif kind == "three-distance":
        # Log-uniform offset up to 1000; three-distance needs n > a_1.
        args = ["three-distance", "--n", str(a1 + int(10 ** (3 * u)))]
    elif kind == "conjugacy":
        args = ["conjugacy", *_conjugacy_kl(slope, u)]
    else:
        args = ["critical-exponent", "--depth", str(2 + int(199 * u))]
    fmt = rng.choice(("table", "json"))
    return args + ["--slope", slope_str(slope), "--format", fmt]


def _conjugacy_kl(slope: Slope, u: float) -> list[str]:
    """A class (k, l), k >= 2 and 0 < l <= a_k, of length q_{k,l} <= 200:
    the one at `u` in the slope's classes ordered by length."""
    qs = denominators(slope, 12)
    pairs = []
    for k in range(2, len(qs)):
        for l in range(1, quotient(slope, k) + 1):
            length = l * qs[k - 1] + qs[k - 2]
            if length <= MAX_CONJUGACY_LENGTH:
                pairs.append((length, k, l))
    # q_{2,1} = a_1 + 1 <= 6, so every slope of the stream (at least two
    # known quotients) has a pair.
    _, k, l = sorted(pairs)[int(len(pairs) * u)]
    return ["--k", str(k), "--l", str(l)]


def sweep_slopes(seed: int, count: int) -> list[Slope]:
    """`count` distinct seeded periodic slopes for the deep formula sweep."""
    rng = random.Random(seed)
    seen: set[Slope] = set()
    return [_fresh(rng, seen, _draw_periodic) for _ in range(count)]


def sweep_sample(seed: int, slope_index: int) -> list[int]:
    """Lengths whose reports the checker re-derives by the oracle route."""
    rng = random.Random(f"{seed}/{slope_index}")
    return sorted(rng.sample(range(1, SWEEP_N_MAX + 1), SWEEP_SAMPLED_LENGTHS))
