"""Shared fixtures and independent-oracle helpers for the test suite.

The helpers here deliberately avoid the library's convergent recurrence and
enclosure machinery: alpha is evaluated bottom-up as an exact Fraction so
that the library's certified arithmetic is checked against a second,
structurally different computation.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from sturmian.exactnum import ContinuedFraction, LinearForm, parse_slope


def unroll(cf: ContinuedFraction, count: int) -> list[int]:
    """First `count` partial quotients a_1..a_count."""
    return [cf.quotient(k) for k in range(1, count + 1)]


def alpha_oracle(cf: ContinuedFraction, depth: int) -> tuple[Fraction, Fraction]:
    """Independent enclosure of alpha: bottom-up evaluation at two depths.

    [0; a_1..a_d] and [0; a_1..a_{d+1}] straddle alpha (opposite parities),
    so the sorted pair is a certified rational interval around alpha.
    """
    def eval_depth(d: int) -> Fraction:
        x = Fraction(0)
        for a in reversed(unroll(cf, d)):
            x = 1 / (a + x)
        return x

    a, b = eval_depth(depth), eval_depth(depth + 1)
    return (a, b) if a < b else (b, a)


def form_bounds(cf: ContinuedFraction, form: LinearForm, depth: int = 40
                ) -> tuple[Fraction, Fraction]:
    """Independent rational bounds for the value q*alpha - p."""
    lo_a, hi_a = alpha_oracle(cf, depth)
    vals = (form.q * lo_a - form.p, form.q * hi_a - form.p)
    return min(vals), max(vals)


def form_sign_oracle(cf: ContinuedFraction, form: LinearForm, depth: int = 40) -> int:
    """Sign of a form decided by the independent bounds (must separate)."""
    lo, hi = form_bounds(cf, form, depth)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    if form.q == 0 and form.p == 0:
        return 0
    raise AssertionError(f"oracle bounds for {form} did not separate at depth {depth}")


def periodic_tail_surd(period: list[int]) -> tuple[int, int, int]:
    """(P, D, Q) with [0; (b_1, ..., b_p)] = (P + sqrt(D))/Q.

    y = [b_1; b_2, ..., b_p, y] is fixed by the matrix product
    [[A, B], [C, D]] of the [[b, 1], [1, 0]], so C y^2 + (D - A) y - B = 0,
    and the tail 1/y is (D - A + sqrt((A - D)^2 + 4BC)) / (2B).
    """
    a, b, c, d = 1, 0, 0, 1
    for q in period:
        a, b, c, d = a * q + b, a, c * q + d, c
    return d - a, (a - d) ** 2 + 4 * b * c, 2 * b


# The default verification family: a_1 in {2, 3} x six short periods.
FAMILY_SLOPES = [
    "[0;2,(1)]", "[0;2,(2)]", "[0;2,(3)]", "[0;2,(1,2)]", "[0;2,(2,1)]", "[0;2,(1,3)]",
    "[0;3,(1)]", "[0;3,(2)]", "[0;3,(3)]", "[0;3,(1,2)]", "[0;3,(2,1)]", "[0;3,(1,3)]",
]


@pytest.fixture(scope="session")
def family() -> list[ContinuedFraction]:
    return [parse_slope(s) for s in FAMILY_SLOPES]


@pytest.fixture(scope="session")
def example_slope() -> ContinuedFraction:
    """The worked-example slope [0;2,(1,2)], alpha = (sqrt(3) - 1)/2."""
    return parse_slope("[0;2,(1,2)]")


@pytest.fixture(scope="session")
def fib_slope() -> ContinuedFraction:
    """[0;2,(1)], alpha = (3 - sqrt(5))/2: the Fibonacci-denominator slope."""
    return parse_slope("[0;2,(1)]")
