"""Finite binary words: standard and semistandard words, conjugacy.

Words are plain Python strings over the alphabet {'0', '1'}; equality is
letterwise and no compression is attempted.  The standard sequence of a
slope follows s_{-1} = 1, s_0 = 0, s_1 = 0^(a_1 - 1) 1 and
s_k = s_{k-1}^(a_k) s_{k-2}; semistandard words replace the final exponent
a_k by any l with 0 < l < a_k.
"""

from __future__ import annotations

from sturmian.exactnum import ContinuedFraction


def check_word(w: str) -> str:
    if w.strip("01"):
        raise ValueError(f"word must be over the alphabet {{0,1}}, got {w!r}")
    return w


def standard_word(cf: ContinuedFraction, k: int) -> str:
    """The k-th standard word s_k, k >= -1; |s_k| = q_k for k >= 0."""
    if k < -1:
        raise ValueError(f"standard word index must be >= -1, got {k}")
    return "1" if k == -1 else standard_pair(cf, k)[1]


def standard_pair(cf: ContinuedFraction, k: int) -> tuple[str, str]:
    """(s_{k-1}, s_k) for k >= 0, from one walk of s_j = s_{j-1}^(a_j) s_{j-2}."""
    prev, cur = "1", "0"  # s_{-1}, s_0
    for j in range(1, k + 1):  # s_1 = s_0^(a_1 - 1) s_{-1}
        prev, cur = cur, cur * (cf.quotient(j) - (j == 1)) + prev
    return prev, cur


def semistandard_word(cf: ContinuedFraction, k: int, l: int) -> str:
    """The semistandard word s_{k,l} = s_{k-1}^l s_{k-2}, k >= 2, 0 < l < a_k."""
    if k < 2:
        raise ValueError(f"semistandard index k must be >= 2, got {k}")
    a_k = cf.quotient(k)
    if not 0 < l < a_k:
        raise ValueError(f"semistandard offset must satisfy 0 < l < a_{k} = {a_k}, got {l}")
    return standard_or_semistandard(cf, k, l)


def standard_or_semistandard(cf: ContinuedFraction, k: int, l: int) -> str:
    """s_{k,l} = s_{k-1}^l s_{k-2} for k >= 2 and 0 < l <= a_k; s_{k,a_k} = s_k."""
    prev, cur = standard_pair(cf, k - 1)
    return cur * l + prev


def cyclic_shift(w: str, i: int) -> str:
    """C^i(w), where C moves the last letter to the front."""
    if not 0 <= i < len(w):
        raise ValueError(f"shift index must satisfy 0 <= i < {len(w)}, got {i}")
    return w[-i:] + w[:-i]


def conjugates(w: str) -> list[str]:
    """All cyclic shifts C^0(w)..C^(|w|-1)(w) in order, duplicates included."""
    return [cyclic_shift(w, i) for i in range(len(w))]


def reversal(w: str) -> str:
    return w[::-1]
