"""Exact-arithmetic toolkit for repetitions in Sturmian words.

Everything is driven by the continued-fraction expansion of the slope:
convergents, certified comparisons of linear forms in alpha, circle-rotation
codings, factor intervals, the three-distance partition, standard words,
and the classification of integer and fractional powers.  No floating
point is used anywhere; every comparison either carries a certificate or
raises.
"""

from sturmian.exactnum import (
    ContinuedFraction,
    Convergent,
    DepthError,
    DepthExceededError,
    LinearForm,
    Ordering,
    SlopeSyntaxError,
    UndecidedError,
    best_approximations,
    closest_multiples,
    compare,
    convergent,
    distance,
    normalize_slope,
    parse_slope,
    recover_quotient,
    semiconvergent_den,
)
from sturmian.repetitions import (
    ConjugacyReport,
    CriticalExponentResult,
    IndexReport,
    NotAFactorError,
    classify_length,
    classify_word,
    conjugacy_report,
    critical_exponent,
    fractional_index,
    index_by_interval,
    index_oracle,
    length_case,
    square_lengths,
)
from sturmian.rotation import (
    FactorInterval,
    PartitionSummary,
    coding_prefix,
    factors_of_length,
    three_distance,
    word_interval,
)
from sturmian.words import (
    conjugates,
    cyclic_shift,
    reversal,
    semistandard_word,
    standard_word,
)

__version__ = "0.1.0"

__all__ = [
    "ConjugacyReport",
    "ContinuedFraction",
    "Convergent",
    "CriticalExponentResult",
    "DepthError",
    "DepthExceededError",
    "FactorInterval",
    "IndexReport",
    "LinearForm",
    "NotAFactorError",
    "Ordering",
    "PartitionSummary",
    "SlopeSyntaxError",
    "UndecidedError",
    "best_approximations",
    "classify_length",
    "classify_word",
    "closest_multiples",
    "coding_prefix",
    "compare",
    "conjugacy_report",
    "conjugates",
    "convergent",
    "critical_exponent",
    "cyclic_shift",
    "distance",
    "factors_of_length",
    "fractional_index",
    "index_by_interval",
    "index_oracle",
    "length_case",
    "normalize_slope",
    "parse_slope",
    "recover_quotient",
    "reversal",
    "semiconvergent_den",
    "semistandard_word",
    "square_lengths",
    "standard_word",
    "three_distance",
    "word_interval",
    "__version__",
]
