"""Per-layer tracing from outside the package.

`Tracer` replaces each traced function by a timing wrapper at every
binding inside the package: the defining module and every `from ...
import` alias (for example `verify.classify_length` or `rotation.check_word`).
Open spans live on an in-memory stack; when a span closes, its duration
minus the time covered by its child spans is added to the function's
self time, so nested layers are never counted twice.  Closed spans are
aggregated rather than kept, because `verify` makes tens of millions of
calls.  Leaving the `with` block restores every original binding.
"""

from __future__ import annotations

import importlib
import sys
import time

# Layer (package module) -> public functions traced in it.  verify's
# run_suites is traced so that verify's own time gets a self-time row.
TRACED = {
    "exactnum": ("sign", "compare", "distance", "nearest_integer", "floor_ratio",
                 "enclosure", "alpha_bounds", "approx_str"),
    "rotation": ("key_table", "coding_prefix", "characteristic_prefix",
                 "factors_of_length", "factor_interval_map", "word_interval",
                 "language_extension", "three_distance"),
    "words": ("check_word", "standard_word", "conjugates"),
    "repetitions": ("classify_length", "index_by_interval", "index_oracle",
                    "oracle_window", "fractional_index", "square_lengths",
                    "conjugacy_report", "critical_exponent"),
    "oracles": ("gap_spectrum", "max_power", "max_run_exponent", "square_root_lengths",
                "power_roots", "best_denominator_scan", "closer_multiples_scan"),
    "verify": ("run_suites",),
    "cli": ("main",),
}


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sturmian" or name.startswith("sturmian."))]


class Tracer:
    """Context manager: while active, `stats[name] = [calls, self_s]`."""

    def __init__(self) -> None:
        self.stats = {name: [0, 0.0] for name in traced_names()}
        self._open: list[float] = []  # child time accumulated per open span
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for layer in TRACED:
            importlib.import_module(f"sturmian.{layer}")
        modules = package_modules()
        for layer, fns in TRACED.items():
            home = sys.modules[f"sturmian.{layer}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc: object) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                stat[0] += 1
                stat[1] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed

        return traced
