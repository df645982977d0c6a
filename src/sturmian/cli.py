"""Command-line front end: deterministic tables and JSON reports.

Every number printed comes from certified enclosures (12 significant
digits) or exact integers/rationals; two runs with the same arguments
produce byte-identical output.  Exit codes: 0 success / all checks pass,
1 verification or domain failure (e.g. a word that is not a factor),
2 usage errors including malformed slopes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from typing import Callable

from sturmian import exactnum, oracles, verify
from sturmian.exactnum import (
    ContinuedFraction,
    DepthError,
    LinearForm,
    SlopeSyntaxError,
    approx_str,
    decimal_str,
    normalize_slope,
    parse_slope,
)
from sturmian.repetitions import (
    NotAFactorError,
    classify_length,
    conjugacy_report,
    critical_exponent,
    fractional_index,
)
from sturmian.rotation import (
    characteristic_prefix,
    factors_of_length,
    three_distance,
)
from sturmian.words import check_word, semistandard_word, standard_word


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SlopeSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotAFactorError, DepthError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="sturmian",
        description="Exact repetition analysis of Sturmian words from the "
                    "continued fraction of the slope.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, slope: bool = True) -> None:
        if slope:
            p.add_argument("--slope", required=True,
                           help='slope as partial quotients, e.g. "[0;2,(1,2)]"')
        p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("factors", help="all factors of a given length with intervals")
    common(p)
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(handler=cmd_factors)

    p = sub.add_parser("index", help="integer indices with case tags")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_positive_int)
    group.add_argument("--word")
    p.set_defaults(handler=cmd_index)

    p = sub.add_parser("three-distance", help="gap structure of the orbit prefix")
    common(p)
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(handler=cmd_three_distance)

    p = sub.add_parser("standard-word", help="standard or semistandard words")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.set_defaults(handler=cmd_standard_word)

    p = sub.add_parser("conjugacy", help="conjugacy class structure at length q_(k,l)")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(handler=cmd_conjugacy)

    p = sub.add_parser("critical-exponent", help="supremum of fractional indices")
    common(p)
    p.add_argument("--depth", type=int, default=None,
                   help="depth bound: the last term index k listed (default 30)")
    p.set_defaults(handler=cmd_critical_exponent)

    p = sub.add_parser("verify", help="run the formula-vs-oracle verification suites")
    common(p, slope=False)
    p.add_argument("--slope", default=None,
                   help="verify a single slope instead of the default family")
    p.add_argument("--n-max", type=_positive_int, default=None,
                   help="sweep bound for the power-classification suite (default 150)")
    p.add_argument("--suite", action="append", default=None,
                   help="run only the named suite (repeatable)")
    p.add_argument("--inject-fault", choices=list(verify.FAULT_MODES), default=None,
                   help="negative control: corrupt power-classification's index formula")
    p.set_defaults(handler=cmd_verify)

    return parser


# ------------------------------------------------------------------
# shared helpers
# ------------------------------------------------------------------

def _slope_of(args: argparse.Namespace) -> tuple[ContinuedFraction, bool]:
    cf = parse_slope(args.slope)
    return normalize_slope(cf)


def _renderer(cf: ContinuedFraction) -> Callable[[LinearForm], str]:
    """approx_str for one answer: each distinct form is rendered once, on first use."""
    return functools.cache(functools.partial(approx_str, cf))


def _form_json(form: LinearForm, render: Callable[[LinearForm], str]) -> dict:
    return {"q": form.q, "p": form.p, "approx": render(form)}


def _emit(args: argparse.Namespace, cf: ContinuedFraction, swapped: bool,
          results: list, table_lines: list[str]) -> int:
    if args.format == "json":
        depth = getattr(args, "depth", None)  # only critical-exponent takes --depth
        doc = {
            "slope": str(cf),
            "depth": exactnum.depth_limit() if depth is None else depth,
            "command": args.command,
            "letters_swapped_from_input": swapped,
            "results": results,
        }
        print(json.dumps(doc, indent=2))
    else:
        if swapped:
            print(f"# slope normalized to {cf}; letters 0/1 are swapped "
                  "relative to the input slope")
        for line in table_lines:
            print(line)
    return 0


def _fraction_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ------------------------------------------------------------------
# subcommands
# ------------------------------------------------------------------

def cmd_factors(args: argparse.Namespace) -> int:
    cf, swapped = _slope_of(args)
    render = _renderer(cf)
    rows = []
    lines = [f"{'word':<{args.n + 2}} {'left':>5} {'right':>5}  length"]
    for word, interval in factors_of_length(cf, args.n):
        rows.append({
            "word": word,
            "left_idx": interval.left_idx,
            "right_idx": interval.right_idx,
            "length": _form_json(interval.length, render),
        })
        lines.append(f"{word:<{args.n + 2}} {interval.left_idx:>5} "
                     f"{interval.right_idx:>5}  {render(interval.length)}"
                     f"  [{interval.length}]")
    return _emit(args, cf, swapped, rows, lines)


def cmd_index(args: argparse.Namespace) -> int:
    cf, swapped = _slope_of(args)
    if args.word is not None:
        check_word(args.word)
        n = len(args.word)
        reports = [r for r in classify_length(cf, n) if r.word == args.word]
        if not reports:
            raise NotAFactorError(f"{args.word!r} is not a factor for slope {cf}")
        reports[0] = dataclasses.replace(
            reports[0], fractional_index=fractional_index(cf, args.word))
    else:
        reports = classify_length(cf, args.n)
    rows = []
    width = max(len(r.word) for r in reports) + 2
    lines = [f"{'word':<{width}} {'index':>5}  case  conj  fractional"]
    for r in reports:
        rows.append({
            "word": r.word,
            "n": r.n,
            "integer_index": r.integer_index,
            "case": r.case_tag,
            "conjugate_position": r.conjugate_position,
            "fractional_index": None if r.fractional_index is None
            else _fraction_str(r.fractional_index),
        })
        conj = "-" if r.conjugate_position is None else str(r.conjugate_position)
        frac = "-" if r.fractional_index is None else _fraction_str(r.fractional_index)
        lines.append(f"{r.word:<{width}} {r.integer_index:>5}  {r.case_tag:<4}  "
                     f"{conj:>4}  {frac}")
    return _emit(args, cf, swapped, rows, lines)


def cmd_three_distance(args: argparse.Namespace) -> int:
    cf, swapped = _slope_of(args)
    s = three_distance(cf, args.n)
    render = _renderer(cf)
    gaps = [(s.count_short, s.length_short), (s.count_mid, s.length_mid),
            (s.count_long, s.length_long)]
    row = {
        "n": s.n, "k": s.k, "l": s.l, "r": s.r,
        "gaps": [{"count": count, "length": _form_json(form, render)} for count, form in gaps],
    }
    lines = [
        f"n = {s.n} decomposes as {s.l}*q_{s.k - 1} + q_{s.k - 2} + {s.r}",
        f"{'count':>6}  length",
        *(f"{count:>6}  {render(form)}  [{form}]" for count, form in gaps),
    ]
    return _emit(args, cf, swapped, [row], lines)


def cmd_standard_word(args: argparse.Namespace) -> int:
    cf, swapped = _slope_of(args)
    if args.l is None:
        word = standard_word(cf, args.k)
        label = f"s_{args.k}"
    else:
        word = semistandard_word(cf, args.k, args.l)
        label = f"s_({args.k},{args.l})"
    row = {"k": args.k, "l": args.l, "word": word, "length": len(word)}
    return _emit(args, cf, swapped, [row], [f"{label} = {word}  (length {len(word)})"])


def cmd_conjugacy(args: argparse.Namespace) -> int:
    cf, swapped = _slope_of(args)
    rep = conjugacy_report(cf, args.k, args.l)
    render = _renderer(cf)
    rows = []
    lines = [f"conjugates of {rep.base} (length {len(rep.base)}):",
             f"{'pos':>4}  {'word':<{len(rep.base) + 2}} interval length"]
    for i, w in enumerate(rep.conjugates):
        wide = i < rep.wide_count
        form = rep.wide_length if wide else rep.narrow_length
        rows.append({
            "position": i, "word": w,
            "interval_length": _form_json(form, render),
            "block": "wide" if wide else "narrow",
        })
        lines.append(f"{i:>4}  {w:<{len(rep.base) + 2}} "
                     f"{render(form)}  [{form}]  ({'wide' if wide else 'narrow'})")
    rows.append({
        "position": None, "word": rep.leftover,
        "interval_length": _form_json(rep.leftover_length, render),
        "block": "outside-class",
    })
    lines.append(f"{'-':>4}  {rep.leftover:<{len(rep.base) + 2}} "
                 f"{render(rep.leftover_length)}  [{rep.leftover_length}]  "
                 "(outside the class)")
    return _emit(args, cf, swapped, rows, lines)


def cmd_critical_exponent(args: argparse.Namespace) -> int:
    cf, swapped = _slope_of(args)
    depth = args.depth if args.depth is not None else 30
    res = critical_exponent(cf, depth)
    lo, hi = res.bounds()
    try:
        scan_obs, scan_period = oracles.max_run_exponent(
            characteristic_prefix(cf, 100_000), 1200)
    except DepthError:
        scan_obs, scan_period = None, None  # truncation too shallow to code
    sup_approx = decimal_str((lo + hi) / 2)
    row = {
        "depth": depth,
        "terms": [{"k": k, "value": _fraction_str(t), "approx": decimal_str(t)}
                  for k, t in res.terms],
        "attained": res.attained,
        "depth_limited": res.depth_limited,
        "witness_k": res.witness_k,
        "supremum": {
            "exact": None if res.value_attained is None
            else _fraction_str(res.value_attained),
            "limit_offset": res.limit_offset,
            "limit_tail": None if res.limit_tail is None else str(res.limit_tail),
            "approx": sup_approx,
        },
        "scan_lower_bound": None if scan_obs is None else {
            "exponent": _fraction_str(scan_obs),
            "period": scan_period,
            "window": 100_000,
        },
    }
    lines = [f"{'k':>4}  {'term':<16} approx"]
    for k, t in res.terms:
        lines.append(f"{k:>4}  {_fraction_str(t):<16} {decimal_str(t)}")
    if res.depth_limited:
        lines.append(f"supremum >= {sup_approx} (lower bound, depth-limited at {depth})")
    elif res.attained:
        lines.append(f"supremum = {_fraction_str(res.value_attained)} = {sup_approx} "
                     f"(attained, witness k = {res.witness_k})")
    else:
        lines.append(f"supremum = {res.limit_offset} + {res.limit_tail} = {sup_approx} "
                     f"(approached along the depth class of k = {res.witness_k}, "
                     "never attained)")
    if scan_obs is not None:
        lines.append(f"scan lower bound: exponent {_fraction_str(scan_obs)} "
                     f"~ {decimal_str(scan_obs)} at period {scan_period} "
                     "(prefix of 100000 letters)")
    return _emit(args, cf, swapped, [row], lines)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite and "power-classification" not in args.suite:
        if args.inject_fault:
            raise ValueError(f"{args.inject_fault} corrupts only power-classification, "
                             "not selected")
        if args.n_max is not None:
            raise ValueError("--n-max bounds only power-classification, not selected")
    slopes = None
    if args.slope is not None:
        cf, _ = normalize_slope(parse_slope(args.slope))
        slopes = [cf]
    results = verify.run_suites(names=args.suite, slopes=slopes,
                                n_max=150 if args.n_max is None else args.n_max,
                                inject_fault=args.inject_fault)
    all_pass = all(r.passed for r in results)
    if args.format == "json":
        doc = {
            "slope": args.slope or "default-family",
            "depth": exactnum.depth_limit(),
            "command": "verify",
            "results": [
                {"suite": r.name, "passed": r.passed, "checks": r.checks,
                 "failures": r.failures[:20]}
                for r in results
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in results:
            print(r.line())
        print("ALL SUITES PASS" if all_pass else "VERIFICATION FAILED")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
