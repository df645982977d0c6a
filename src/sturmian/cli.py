"""Command-line front end: deterministic tables and JSON reports.

Each command builds its rows once, and `_emit` prints them as JSON or as a
table.  Every decimal has 12 significant digits, from `exactnum.approx_str`
(a critical exponent's class limit included), which deepens from the shared
depth rule `exactnum._Ctx.bracket_depth`, or from an exact rational; two
runs with the same arguments print the same bytes.  Exit codes: 0 success / all
checks pass, 1 verification or domain failure (e.g. a word that is not a
factor), 2 usage errors including malformed slopes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator

from sturmian import exactnum, verify
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
    classify_length,
    classify_word,
    conjugacy_report,
    critical_exponent,
)
from sturmian.rotation import (
    factors_of_length,
    three_distance,
)
from sturmian.words import semistandard_word, standard_word


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        exactnum.depth_limit()  # a bad STURM_DEPTH_LIMIT is refused by every command
        status = args.handler(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return status
    except BrokenPipeError:
        # The rest of the output goes nowhere, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: the output pipe was closed", file=sys.stderr)
        return 1
    except (DepthError, ValueError) as exc:  # SlopeSyntaxError and NotAFactorError too
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SlopeSyntaxError) else 1


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
    p.add_argument("--depth", type=int, default=30,
                   help="depth bound: the last term index k listed (default 30)")
    p.set_defaults(handler=cmd_critical_exponent)

    p = sub.add_parser("verify", help="run the formula-vs-oracle verification suites")
    common(p, slope=False)
    p.add_argument("--slope", default=None,
                   help="verify a single slope instead of the default family")
    p.add_argument("--n-max", type=_positive_int, default=None,
                   help="sweep bound for the power-classification suite (default 150)")
    p.add_argument("--suite", action="append", choices=list(verify.SUITES), default=None,
                   help="run only the named suite (repeatable)")
    p.add_argument("--inject-fault", choices=list(verify.FAULT_MODES), default=None,
                   help="negative control: corrupt power-classification's index formula")
    p.set_defaults(handler=cmd_verify)

    return parser


# ------------------------------------------------------------------
# shared helpers
# ------------------------------------------------------------------

def _slope_of(args: argparse.Namespace) -> tuple[ContinuedFraction, bool]:
    return normalize_slope(parse_slope(args.slope))


def _form_encoder(cf: ContinuedFraction) -> Callable[[LinearForm], dict]:
    """A form's JSON object for one answer: each distinct form is rendered once."""
    return functools.cache(lambda form: {"q": form.q, "p": form.p,
                                         "approx": approx_str(cf, form)})


def _form_cell(form: dict) -> str:
    """The table cell of a form's JSON object: its decimal, then the form."""
    return f"{form['approx']}  [{LinearForm(form['q'], form['p'])}]"


def _dash(value: object) -> str:
    return "-" if value is None else str(value)


def _json(value: object, pad: str = "\n") -> str:
    """The bytes of `json.dumps(value, indent=2)`, which the C encoder cannot indent,
    for None, bools, ints, strs, lists and str-keyed dicts; anything else is a TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):  # before int: True is an int
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):  # encode_basestring_ascii refuses a key that is no str
        ends, items = "{}", [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                             for k, v in value.items()]
    elif isinstance(value, list):
        ends, items = "[]", [_json(v, inner) for v in value]
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{pad}{ends[1]}" if items else ends


def _emit(args: argparse.Namespace, slope: object, rows: list,
          table: Callable[[], Iterable[str]], swapped: bool | None = None) -> int:
    """The CLI's only output site: the rows as one JSON document, or a table.

    `table` reads the rows into lines; only --format table calls it.
    `swapped` is None for `verify`, whose head has no letters_swapped_from_input.
    """
    if args.format == "json":
        # Only critical-exponent takes --depth; the other commands report the cap.
        head = {"slope": str(slope), "depth": getattr(args, "depth", exactnum.depth_limit()),
                "command": args.command}
        if swapped is not None:
            head["letters_swapped_from_input"] = swapped
        print(_json({**head, "results": rows}))
    else:
        if swapped:
            print(f"# slope normalized to {slope}; letters 0/1 are swapped "
                  "relative to the input slope")
        for line in table():
            print(line)
    return 0


# ------------------------------------------------------------------
# subcommands
# ------------------------------------------------------------------

def cmd_factors(args: argparse.Namespace) -> int:
    cf, swapped = _slope_of(args)
    encode = _form_encoder(cf)
    rows = [{"word": word, "left_idx": interval.left_idx, "right_idx": interval.right_idx,
             "length": encode(interval.length)}
            for word, interval in factors_of_length(cf, args.n)]
    width = args.n + 2
    return _emit(args, cf, rows, lambda: [
        f"{'word':<{width}} {'left':>5} {'right':>5}  length",
        *(f"{r['word']:<{width}} {r['left_idx']:>5} {r['right_idx']:>5}  "
          f"{_form_cell(r['length'])}" for r in rows)], swapped)


def cmd_index(args: argparse.Namespace) -> int:
    cf, swapped = _slope_of(args)
    reports = classify_length(cf, args.n) if args.word is None else [classify_word(cf, args.word)]
    rows = [{"word": r.word, "n": len(r.word), "integer_index": r.integer_index, "case": r.case_tag,
             "conjugate_position": r.conjugate_position,
             "fractional_index": None if r.fractional_index is None
             else str(r.fractional_index)}
            for r in reports]
    width = max(len(r.word) for r in reports) + 2
    return _emit(args, cf, rows, lambda: [
        f"{'word':<{width}} {'index':>5}  case  conj  fractional",
        *(f"{r['word']:<{width}} {r['integer_index']:>5}  {r['case']:<4}  "
          f"{_dash(r['conjugate_position']):>4}  {_dash(r['fractional_index'])}"
          for r in rows)], swapped)


def cmd_three_distance(args: argparse.Namespace) -> int:
    cf, swapped = _slope_of(args)
    s = three_distance(cf, args.n)
    encode = _form_encoder(cf)
    gaps = [{"count": count, "length": encode(form)} for count, form in s.gaps]
    row = {"n": args.n, "k": s.k, "l": s.l, "r": s.r, "gaps": gaps}
    return _emit(args, cf, [row], lambda: [
        f"n = {args.n} decomposes as {s.l}*q_{s.k - 1} + q_{s.k - 2} + {s.r}",
        f"{'count':>6}  length",
        *(f"{gap['count']:>6}  {_form_cell(gap['length'])}" for gap in gaps)], swapped)


def cmd_standard_word(args: argparse.Namespace) -> int:
    cf, swapped = _slope_of(args)
    if args.l is None:
        word = standard_word(cf, args.k)
        label = f"s_{args.k}"
    else:
        word = semistandard_word(cf, args.k, args.l)
        label = f"s_({args.k},{args.l})"
    row = {"k": args.k, "l": args.l, "word": word, "length": len(word)}
    return _emit(args, cf, [row], lambda: [f"{label} = {word}  (length {len(word)})"], swapped)


def cmd_conjugacy(args: argparse.Namespace) -> int:
    cf, swapped = _slope_of(args)
    rep = conjugacy_report(cf, args.k, args.l)
    encode = _form_encoder(cf)
    blocks = [(block, form) for block, (count, form) in zip(("wide", "narrow"), rep.gaps)
              for _ in range(count)]
    rows = [{"position": i, "word": w, "interval_length": encode(form), "block": block}
            for i, (w, (block, form)) in enumerate(zip(rep.conjugates, blocks))]
    rows.append({"position": None, "word": rep.leftover,
                 "interval_length": encode(rep.gaps[2][1]), "block": "outside-class"})
    base = rep.conjugates[0]
    width = len(base) + 2
    return _emit(args, cf, rows, lambda: [
        f"conjugates of {base} (length {len(base)}):",
        f"{'pos':>4}  {'word':<{width}} interval length",
        *(f"{_dash(r['position']):>4}  {r['word']:<{width}} {_form_cell(r['interval_length'])}"
          f"  ({'outside the class' if r['position'] is None else r['block']})"
          for r in rows)], swapped)


def cmd_critical_exponent(args: argparse.Namespace) -> int:
    cf, swapped = _slope_of(args)
    res = critical_exponent(cf, args.depth)
    if res.limit_tail is None:
        sup_approx = decimal_str(res.value_attained)
    else:  # the class limit: the tail slope's form a + limit_offset
        sup_approx = approx_str(res.limit_tail, LinearForm(1, -res.limit_offset))
    row = {
        "depth": args.depth,
        "terms": [{"k": k, "value": str(t), "approx": decimal_str(t)} for k, t in res.terms],
        "attained": res.limit_tail is None,
        "depth_limited": not cf.is_periodic,
        "witness_k": res.witness_k,
        "supremum": {
            "exact": None if res.value_attained is None else str(res.value_attained),
            "limit_offset": res.limit_offset,
            "limit_tail": None if res.limit_tail is None else str(res.limit_tail),
            "approx": sup_approx,
        },
    }

    def table() -> Iterator[str]:
        sup = row["supremum"]
        yield f"{'k':>4}  {'term':<16} approx"
        for term in row["terms"]:
            yield f"{term['k']:>4}  {term['value']:<16} {term['approx']}"
        if row["depth_limited"]:
            yield f"supremum >= {sup_approx} (lower bound, depth-limited at {args.depth})"
        elif row["attained"]:
            yield (f"supremum = {sup['exact']} = {sup_approx} "
                   f"(attained, witness k = {res.witness_k})")
        else:
            yield (f"supremum = {res.limit_offset} + {sup['limit_tail']} = {sup_approx} "
                   f"(approached along the depth class of k = {res.witness_k}, "
                   "never attained)")
    return _emit(args, cf, [row], table, swapped)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite and "power-classification" not in args.suite:
        if args.inject_fault:
            raise ValueError(f"{args.inject_fault} corrupts only power-classification, "
                             "not selected")
        if args.n_max is not None:
            raise ValueError("--n-max bounds only power-classification, not selected")
    results = verify.run_suites(names=args.suite,
                                slopes=None if args.slope is None else [_slope_of(args)[0]],
                                n_max=150 if args.n_max is None else args.n_max,
                                inject_fault=args.inject_fault)
    all_pass = all(r.passed for r in results)
    # Only a refused suite's row has a "refusal" key, so other rows keep their bytes.
    rows = [{"suite": r.name, "passed": r.passed, "checks": r.checks,
             "failures": r.failures[:20],
             **({} if r.refusal is None else {"refusal": r.refusal})}
            for r in results]
    _emit(args, args.slope or "default-family", rows, lambda: [
        *(r.line() for r in results), "ALL SUITES PASS" if all_pass else "VERIFICATION FAILED"])
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
