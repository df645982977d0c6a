"""Verification suites: every structural claim checked against an oracle.

Each suite is a generator of checks on one slope: it runs a formula route
and an independent brute-force route and yields (ok, message) pairs.
`run_suites` owns the rest: it loops over the slopes, counts the checks,
prefixes each failure with its slope, stops a suite at its 21st failure,
times it, and reports a DepthError as a refusal and any other error a
formula raises (a failed self-check, say) as a failure on that slope.
The suites back the `verify` CLI subcommand and the acceptance tests;
`inject_fault` deliberately corrupts one formula (negative control) to
prove the suites can fail.
"""

from __future__ import annotations

import math
import time
from itertools import repeat
from typing import Iterator, NamedTuple

from sturmian import oracles
from sturmian.exactnum import (
    ContinuedFraction,
    DepthError,
    Ordering,
    best_approximations,
    closest_multiples,
    compare,
    convergent,
    convergent_distance,
    distance,
    parse_slope,
    query,
    recover_quotient,
    semiconvergent_den,
    semiconvergent_distance,
    semiconvergents,
)
from sturmian.repetitions import (
    classify_length,
    conjugacy_report,
    critical_exponent,
    fractional_index,
    indices_by_interval,
    oracle_window,
    recurrence_window,
    square_lengths,
)
from sturmian.rotation import (
    characteristic_prefix,
    factor_interval_map,
    three_distance,
    word_interval,
)
from sturmian.words import conjugates, reversal, standard_or_semistandard, standard_word

DEFAULT_FAMILY = (
    "[0;2,(1)]", "[0;2,(2)]", "[0;2,(3)]", "[0;2,(1,2)]", "[0;2,(2,1)]", "[0;2,(1,3)]",
    "[0;3,(1)]", "[0;3,(2)]", "[0;3,(3)]", "[0;3,(1,2)]", "[0;3,(2,1)]", "[0;3,(1,3)]",
)

FAULT_MODES = ("flip-gamma",)

# A suite stops at its 21st failure, one more than a JSON row shows.
_MAX_FAILURES = 21

# The critical-exponent suite's run scan covers periods up to this.
_RUN_PERIODS = 1200

Checks = Iterator[tuple[bool, str]]


class SuiteResult(NamedTuple):
    """One suite's outcome.  A suite whose slope is too shallow for one of
    its answers is refused: `refusal` holds the message, and it neither
    passes nor fails."""

    name: str
    checks: int
    seconds: float
    failures: list[str]
    refusal: str | None = None

    @property
    def passed(self) -> bool:
        return self.refusal is None and not self.failures

    def line(self) -> str:
        # Times are kept out of the line so that CLI output stays
        # byte-identical across runs.
        if self.refusal is not None:
            return f"{self.name:<24} REFUSED  {self.refusal}"
        status = "PASS" if self.passed else "FAIL"
        out = f"{self.name:<24} {status}  ({self.checks} checks)"
        for f in self.failures[:5]:
            out += f"\n    {f}"
        if len(self.failures) > 5:
            out += f"\n    ... and {len(self.failures) - 5} more" + (
                " (stopped at the 21st failure)" if len(self.failures) == _MAX_FAILURES else "")
        return out


def default_family() -> list[ContinuedFraction]:
    return [parse_slope(s) for s in DEFAULT_FAMILY]


# ------------------------------------------------------------------
# number-theory kernel
# ------------------------------------------------------------------

def suite_best_approximations(cf: ContinuedFraction) -> Checks:
    """Best approximations = convergents (exhaustive scan), recovered
    quotients, and the minimum-distance property."""
    got = [c.q for c in best_approximations(cf, 500)]
    scan = oracles.best_denominator_scan(cf, 500)
    yield got == scan, f"best approximations {got} != scan {scan}"
    # A truncation's cylinder fixes a_1..a_m only.
    for k in range(1, min(25, cf.truncation_depth or 25) + 1):
        yield recover_quotient(cf, k) == cf.quotient(k), f"recovered a_{k} mismatch"
    for k in range(2, 8):
        qk = convergent(cf, k).q
        if qk > 500:
            break
        closer = oracles.closer_multiples_scan(cf, qk, convergent(cf, k - 1).q)
        yield closer == [], f"some n < q_{k} beats ||q_{k - 1} alpha||: {closer}"


def suite_closest_multiples(cf: ContinuedFraction) -> Checks:
    """Closest-multiple structure below q_{k,l}, the distance recurrence
    as a form identity, and the quotient sandwich."""
    for k, l, q_kl in semiconvergents(cf, 500):
        got = closest_multiples(cf, k, l)
        scan = oracles.closer_multiples_scan(cf, q_kl, semiconvergent_den(cf, k, l - 1))
        yield got == scan, f"closest multiples ({k},{l}) {got} != {scan}"
        lhs = semiconvergent_distance(cf, k, l)
        rhs = semiconvergent_distance(cf, k, l - 1) - convergent_distance(cf, k - 1)
        yield lhs == rhs, f"distance recurrence broken at ({k},{l})"
        yield distance(cf, q_kl) == lhs, f"nearest-integer distance disagrees at q_({k},{l})"
        if l == 1:
            a_k = cf.quotient(k)
            prev = convergent_distance(cf, k - 1)
            prev2 = convergent_distance(cf, k - 2)
            ok = (compare(cf, a_k * prev, prev2) is Ordering.LT
                  and compare(cf, prev2, (a_k + 1) * prev) is Ordering.LT)
            yield ok, f"quotient sandwich fails at k={k}"


# ------------------------------------------------------------------
# geometry
# ------------------------------------------------------------------

def suite_three_distance(cf: ContinuedFraction) -> Checks:
    """Formulaic gap counts vs the incremental gap oracle at every n = 1..500."""
    for n, tally in oracles.gap_spectra(cf, 1, 500):
        gaps = three_distance(cf, n).gaps
        expected = [count for count, _ in gaps]
        counts = oracles.match_gaps(tally, [form for _, form in gaps])
        yield counts == expected, f"gap counts at n={n}: formula {expected} vs actual {counts}"


def suite_square_lengths(cf: ContinuedFraction) -> Checks:
    """Square lengths: construction gives every q_k and q_{k,l}; a scan of
    a certified window finds nothing else."""
    formula = square_lengths(cf, 150)  # internally certifies each witness
    window = characteristic_prefix(cf, oracle_window(cf, 150))
    scanned = oracles.square_root_lengths(window, 150)
    yield (scanned == formula,
           f"square lengths scan {sorted(scanned)} != formula {sorted(formula)}")


def suite_conjugacy(cf: ContinuedFraction) -> Checks:
    """Conjugacy-class interval tags vs the level partition and the
    three-distance counts; the rotation identity inside the class."""
    for k, l, n in semiconvergents(cf, 150):
        rep = conjugacy_report(cf, k, l)  # self-certifies vs intervals
        yield (set(three_distance(cf, n).gaps) == set(rep.gaps),
               f"class ({k},{l}) tags disagree with the partition")
        yield (rep.conjugates[convergent(cf, k - 1).q - 2] ==
               standard_or_semistandard(cf, k, l),
               f"rotation identity fails at ({k},{l})")


# ------------------------------------------------------------------
# powers
# ------------------------------------------------------------------

def suite_power_classification(cf: ContinuedFraction, n_max: int,
                               inject_fault: str | None) -> Checks:
    """Case indices == interval formula == scan oracle for every factor of
    every length; case tags exclusive and exhaustive."""
    for n in range(1, n_max + 1):
        try:
            reports = classify_length(cf, n)
        except AssertionError as exc:  # the class's end-block self-check
            yield False, str(exc)
            continue
        # Both routes list the length's words in layout order (`FactorMap`).
        formulas = indices_by_interval(cf, n)
        if inject_fault == "flip-gamma":
            factors = factor_interval_map(cf, n)
            dist = distance(cf, n)
            formulas = [index + (1 if factors.lengths[d] == dist else -1)
                        for index, d in zip(formulas, factors.gaps)]
        # Each length builds its own oracle window, long enough to certify
        # every scan, once both formulas have answered, so a truncation
        # refuses with their message; one scan of it for every word.
        window = characteristic_prefix(cf, oracle_window(cf, n))
        words = [r.word for r in reports]
        scans = oracles.max_powers(window, words)
        # The gate's hottest checks: when the three routes agree on all n + 1 words, all pass.
        if [r.integer_index for r in reports] == formulas == list(map(scans.__getitem__, words)):
            yield from repeat((True, ""), len(words))
            continue
        for report, formula in zip(reports, formulas, strict=True):
            w, case = report.word, report.integer_index
            if case == formula:
                scanned = scans[w]
                ok = scanned == formula
                yield ok, ("" if ok else
                           f"n={n} {w}: case index {case}, formula {formula}, scan {scanned}")
            else:
                yield False, f"n={n} {w}: case index {case} != formula {formula}"


def suite_critical_exponent(cf: ContinuedFraction) -> Checks:
    """The supremum dominates every term, every exactly computed
    fractional index of a standard word, and every repetition found by
    an unstructured run scan of a prefix sized by the bound under test.

    With hi the certified upper bound on the supremum, the scan reads
    R(N) letters (`recurrence_window`) at N = floor(hi*1200) + 1.  A run
    of period L <= 1200 with exponent above hi has at least
    floor(hi*L) + 1 letters, and its prefix of that length, at most N
    letters, is already such a run; every factor of N letters occurs in
    the first R(N).  So the scan refutes hi exactly when the whole
    language does: a bound too low sizes a window that still holds the
    run refuting it.  When the check passes, every run has exponent at
    most hi and fits in N letters, so the scan reports the same
    (exponent, period) as any longer prefix.
    """
    res = critical_exponent(cf, 30)
    lo, hi = res.bounds()
    yield 0 < lo <= hi, "empty supremum bounds"
    for k, t in res.terms:
        yield t <= hi, f"term at k={k} exceeds the supremum"
        if k <= 9 and convergent(cf, k).q <= 300:
            exact = fractional_index(cf, standard_word(cf, k))
            yield (exact == t, f"standard-word fractional index at k={k}: "
                               f"exit route {exact} != term {t}")
    longest = math.floor(hi * _RUN_PERIODS) + 1
    text = characteristic_prefix(cf, recurrence_window(cf, longest))
    observed, period = oracles.max_run_exponent(text, _RUN_PERIODS)
    yield (observed <= hi, f"scanned repetition of exponent {observed} (period {period}) "
                           f"exceeds the supremum bound {hi}")


def suite_cube_structure(cf: ContinuedFraction) -> Checks:
    """Square and cube roots are conjugates of standard-family words;
    slopes whose quotients cap every index below 4 contain no fourth
    power; cubes of every convergent length exist."""
    window = characteristic_prefix(cf, oracle_window(cf, 100))
    allowed_sq = _standard_conjugates(cf, 100, include_semis=True)
    allowed_cube = _standard_conjugates(cf, 100, include_semis=False)
    for w in sorted(oracles.power_roots(window, 100, 2)):
        yield w in allowed_sq, f"square root {w} not conjugate to a standard-family word"
    for w in sorted(oracles.power_roots(window, 100, 3)):
        if w == "0":
            yield cf.quotient(1) > 2, "cube 000 requires a_1 > 2"
        else:
            yield w in allowed_cube, f"cube root {w} not conjugate to a standard word"
    # Cubes with |w| = q_k exist for every k >= 2 (the class index
    # reaches a_{k+1} + 2 >= 3); at k = 0 and 1 existence is exactly
    # a_1 >= 3 resp. a_2 >= 2.  Certify both directions by intervals.
    yield ((word_interval(cf, "000") is not None) == (cf.quotient(1) >= 3),
           "cube of the letter 0 disagrees with a_1")
    q1_cube = reversal(standard_word(cf, 1)) * 3
    yield ((word_interval(cf, q1_cube) is not None) == (cf.quotient(2) >= 2),
           "cube at length q_1 disagrees with a_2")
    for k in range(2, 9):
        if convergent(cf, k).q > 400:
            break
        cube = reversal(standard_word(cf, k)) * 3
        yield word_interval(cf, cube) is not None, f"no cube of period length q_{k}"
    # Fourth powers need an index >= 4 somewhere: a quotient a_k >= 2
    # with k >= 2, or a_1 >= 4 (0^{a_1} is a factor).  Slopes with
    # a_1 <= 3 and every later quotient 1 have none.
    if cf.is_periodic and max(cf.preperiod[1:] + cf.period) == 1 and cf.quotient(1) <= 3:
        best, period = oracles.max_run_exponent(window, 100)
        yield best < 4, f"fourth power of period {period} found; exponent {best}"


def _standard_conjugates(cf: ContinuedFraction, n_max: int,
                         include_semis: bool) -> set[str]:
    words = [standard_word(cf, k) for k in range(0 if include_semis else 1, 2)
             if convergent(cf, k).q <= n_max]
    words += [standard_or_semistandard(cf, k, l) for k, l, _ in semiconvergents(cf, n_max)
              if include_semis or l == cf.quotient(k)]
    return {c for w in words for c in conjugates(w)}


# ------------------------------------------------------------------
# runner
# ------------------------------------------------------------------

SUITES = {
    "best-approximations": suite_best_approximations,
    "closest-multiples": suite_closest_multiples,
    "three-distance": suite_three_distance,
    "square-lengths": suite_square_lengths,
    "conjugacy-intervals": suite_conjugacy,
    "power-classification": suite_power_classification,
    "critical-exponent": suite_critical_exponent,
    "cube-structure": suite_cube_structure,
}


@query()  # one depth cap for the whole run: a bad STURM_DEPTH_LIMIT raises once, here
def run_suites(names: list[str] | None = None,
               slopes: list[ContinuedFraction] | None = None,
               n_max: int = 150,
               inject_fault: str | None = None) -> list[SuiteResult]:
    """Run the named suites (default: all) over the slope family, in one query.

    n_max and inject_fault reach power-classification only; the other
    suites keep their own bounds (500 for the kernel and gap suites, 150
    for squares and conjugacy, 100 for roots).  A suite that raises
    DepthError is refused, and the others still run; any other exception
    but MemoryError fails the suite on that slope only, written
    "{cf}: {message}" for a formula's failed self-check (AssertionError)
    and "{cf}: {TypeName}: {message}" otherwise.
    """
    if inject_fault is not None and inject_fault not in FAULT_MODES:
        raise ValueError(f"unknown fault mode {inject_fault!r}; known: {FAULT_MODES}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if slopes is None:
        slopes = default_family()
    results = []
    for name in names or list(SUITES):
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
        kwargs = ({"n_max": n_max, "inject_fault": inject_fault}
                  if name == "power-classification" else {})
        start = time.monotonic()
        checks, failures, refusal = 0, [], None
        try:
            for cf in slopes:
                try:
                    for ok, message in SUITES[name](cf, **kwargs):
                        checks += 1
                        if not ok:
                            failures.append(f"{cf}: {message}")
                            if len(failures) == _MAX_FAILURES:
                                break
                except (DepthError, MemoryError):
                    raise
                except Exception as exc:
                    # A formula's failed self-check keeps its own message;
                    # any other error is named by its type.
                    checks += 1
                    kind = "" if isinstance(exc, AssertionError) else f"{type(exc).__name__}: "
                    failures.append(f"{cf}: {kind}{exc}")
                if len(failures) == _MAX_FAILURES:
                    break
        except DepthError as exc:
            checks, failures, refusal = 0, [], str(exc)
        results.append(SuiteResult(name, checks, time.monotonic() - start, failures, refusal))
    return results
