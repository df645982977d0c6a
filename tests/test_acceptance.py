"""Acceptance criteria: one test per criterion, at the stated tolerances.

Each test prints a single PASS line when it completes (pytest -s shows
them); any failure surfaces as an ordinary assertion with context.  The
budgets asserted here are the stated wall-clock targets; every one holds
with a wide margin on commodity hardware.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import isqrt

from sturmian import oracles, verify
from sturmian.exactnum import LinearForm, parse_slope
from sturmian.repetitions import conjugacy_report, critical_exponent
from sturmian.rotation import characteristic_prefix, factors_of_length, three_distance


def _report(name: str, started: float, budget: float | None) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.2f}s"


def _sqrt_bounds(n: int, digits: int = 40) -> tuple[Fraction, Fraction]:
    scale = 10 ** digits
    root = isqrt(n * scale * scale)
    return Fraction(root, scale), Fraction(root + 1, scale)


def test_acceptance_1_worked_example():
    started = time.monotonic()
    cf = parse_slope("[0;2,(1,2)]")

    factors = factors_of_length(cf, 5)
    assert sorted(w for w, _ in factors) == \
        ["00100", "00101", "01001", "01010", "10010", "10100"]
    # The left special factor is the prefix of the characteristic word,
    # the right special factor its reversal.
    left = characteristic_prefix(cf, 5)
    assert (left, left[::-1]) == ("01001", "10010")

    summary = three_distance(cf, 5)
    assert set(summary.gaps) == {
        (2, LinearForm(-2, -1)),   # two gaps of ||2a||
        (3, LinearForm(3, 1)),     # three gaps of ||3a||
        (1, LinearForm(-5, -2)),   # one gap of ||5a||
    }
    counts = oracles.gap_spectrum(cf, 5, [form for _, form in summary.gaps])
    assert counts == [count for count, _ in summary.gaps]

    rep = conjugacy_report(cf, 3, 1)
    assert rep.leftover == "00100"
    assert rep.gaps[2] == (1, LinearForm(-5, -2))
    _report("1 worked-example", started, budget=1.0)


def test_acceptance_2_power_classification():
    started = time.monotonic()
    [result] = verify.run_suites(names=["power-classification"])
    assert result.passed, result.line()
    assert result.checks >= 12 * sum(n + 1 for n in range(1, 151))
    assert result.checks == 137_700  # one check per factor, none skipped
    _report("2 power-classification formula/oracle n<=150", started, budget=60.0)


def test_acceptance_3_square_lengths():
    started = time.monotonic()
    [result] = verify.run_suites(names=["square-lengths"])
    assert result.passed, result.line()
    assert result.checks == 12
    _report("3 square lengths = convergent/semiconvergent denominators", started,
            budget=30.0)


def test_acceptance_4_conjugacy_intervals():
    started = time.monotonic()
    [result] = verify.run_suites(names=["conjugacy-intervals"])
    assert result.passed, result.line()
    assert result.checks == 218
    _report("4 conjugacy interval tags", started, budget=None)


def test_acceptance_5_critical_exponent():
    started = time.monotonic()
    tol = Fraction(1, 10 ** 9)

    fib = parse_slope("[0;2,(1)]")
    res = critical_exponent(fib, 30)
    lo, hi = res.bounds()
    assert hi - lo < Fraction(1, 10 ** 12)
    s5_lo, s5_hi = _sqrt_bounds(5)
    target_lo, target_hi = (5 + s5_lo) / 2, (5 + s5_hi) / 2  # 3 + 1/phi
    assert target_lo - tol <= lo and hi <= target_hi + tol
    observed, _ = oracles.max_run_exponent(characteristic_prefix(fib, 100_000), 1200)
    assert observed > Fraction(36, 10)

    pell = parse_slope("[0;2,(2)]")
    res2 = critical_exponent(pell, 30)
    lo2, hi2 = res2.bounds()
    s2_lo, s2_hi = _sqrt_bounds(2)
    assert 3 + s2_lo - tol <= lo2 and hi2 <= 3 + s2_hi + tol  # 4 + (sqrt(2) - 1)
    _report("5 critical exponent suprema and scan witness", started, budget=None)


def test_acceptance_6_cubes_and_roots():
    started = time.monotonic()
    fib = parse_slope("[0;2,(1)]")
    from sturmian.rotation import word_interval
    from sturmian.words import reversal, standard_word
    # Cubes of period length q_k for every admissible depth up to 8: the
    # classes at k = 0, 1 have indices a_1 = 2 and a_2 + 1 = 2, so cubes
    # start at k = 2 and must exist at every depth from there on.
    for k in range(2, 9):
        cube = reversal(standard_word(fib, k)) * 3
        assert word_interval(fib, cube) is not None, f"no cube at q_{k}"
    [result] = verify.run_suites(names=["cube-structure"], slopes=[fib])
    assert result.passed, result.line()
    _report("6 cubes present, fourth powers absent, roots conjugate", started,
            budget=None)


def test_acceptance_7_number_theory_kernel():
    started = time.monotonic()
    family = verify.default_family()
    [best] = verify.run_suites(names=["best-approximations"], slopes=family)
    assert best.passed, best.line()
    assert best.checks == 379
    [closest] = verify.run_suites(names=["closest-multiples"], slopes=family)
    assert closest.passed, closest.line()
    assert closest.checks == 514
    _report("7 number-theory kernel (best approx, closest multiples, "
            "recurrences)", started, budget=30.0)


def test_acceptance_8_three_distance():
    started = time.monotonic()
    [result] = verify.run_suites(names=["three-distance"])
    assert result.passed, result.line()
    assert result.checks == 6_000
    _report("8 three-distance counts vs sorted gaps n<=500", started, budget=None)
