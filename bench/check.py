"""Answer checks, run in the parent after the timed child has exited.

Every answer is re-derived by an independent route:

- factors, and the words of index/conjugacy: the length-n substrings of
  a coded prefix of `oracle_window` length;
- integer indices: `index_oracle`; fractional indices:
  `oracles.max_fractional_power` over the same window;
- three-distance and conjugacy interval lengths: `oracles.gap_spectrum`;
- critical exponent: a run scan of a coded prefix never exceeds the
  printed supremum's upper bound, nor does any printed term;
- a truncated slope passes if it is refused, or if its answer equals the
  answer for two periodic extensions of it (the first of which is also
  checked as above).

Crashes and refusals are not wrong answers: they are counted as failed
ops and listed by kind, never dropped.
"""

from __future__ import annotations

import io
import json
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import inputs
from sturmian import cli, oracles
from sturmian.exactnum import ContinuedFraction, LinearForm
from sturmian.repetitions import critical_exponent, index_oracle, oracle_window
from sturmian.rotation import characteristic_prefix, word_interval

NOT_A_FACTOR = "is not a factor"
RUN_SCAN_LETTERS = 20_000
RUN_SCAN_MAX_PERIOD = 400
EXTENSION_CRITICAL_DEPTH = 30
# The square scan slides over every position for each length without a
# square; at 150 it costs seconds per slope with large quotients.
SQUARE_CHECK_N_MAX = 60


def to_cf(slope: inputs.Slope) -> ContinuedFraction:
    return ContinuedFraction(tuple(slope[0]), tuple(slope[1]))


def window(cf: ContinuedFraction, n: int) -> str:
    return characteristic_prefix(cf, oracle_window(cf, n))


def factor_set(cf: ContinuedFraction, n: int) -> set[str]:
    text = window(cf, n)
    return {text[i:i + n] for i in range(len(text) - n + 1)}


def parse_form(text: str) -> LinearForm:
    """Inverse of str(LinearForm): '3a-1' is q=3, p=1; '-1a+2' is q=-1, p=-2."""
    m = re.fullmatch(r"(-?\d*)a([+-]\d+)?", text)
    if m is None:
        return LinearForm(0, -int(text))
    head = m.group(1)
    q = 1 if head == "" else int(head)
    return LinearForm(q, -int(m.group(2)) if m.group(2) else 0)


def periodic_upper_bound(tail: str) -> Fraction:
    """Upper bound of a purely periodic [0;(b_1..b_p)] from two of its
    convergents, computed here without the package."""
    period = [int(b) for b in re.fullmatch(r"\[0;\((.*)\)\]", tail).group(1).split(",")]
    p0, q0, p1, q1 = 1, 0, 0, 1  # (p_{-1}, q_{-1}), (p_0, q_0)
    for k in range(48):
        b = period[k % len(period)]
        p0, q0, p1, q1 = p1, q1, b * p1 + p0, b * q1 + q0
    return max(Fraction(p0, q0), Fraction(p1, q1))


def run_cli(argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - reported as a mismatch by the caller
            code = None
    return code, out.getvalue(), err.getvalue()


def with_slope(argv: list[str], slope: inputs.Slope) -> list[str]:
    i = argv.index("--slope")
    return argv[:i + 1] + [inputs.slope_str(slope)] + argv[i + 2:]


# ------------------------------------------------------------------
# parsing CLI output (table and json)
# ------------------------------------------------------------------

def parse_rows(kind: str, text: str, fmt: str):
    """Kind-specific rows from one CLI answer."""
    if fmt == "json":
        rows = json.loads(text)["results"]
        if kind == "factors":
            return [r["word"] for r in rows]
        if kind.startswith("index"):
            return [(r["word"], r["integer_index"],
                     None if r["fractional_index"] is None else Fraction(r["fractional_index"]))
                    for r in rows]
        if kind == "three-distance":
            return [(g["count"], LinearForm(g["length"]["q"], g["length"]["p"]))
                    for g in rows[0]["gaps"]]
        if kind == "conjugacy":
            return [(r["word"], LinearForm(r["interval_length"]["q"], r["interval_length"]["p"]),
                     r["block"]) for r in rows]
        sup = rows[0]["supremum"]
        terms = [(t["k"], Fraction(t["value"])) for t in rows[0]["terms"]]
        if rows[0]["depth_limited"]:
            return terms, None, Fraction(sup["exact"])
        if sup["exact"] is not None:
            return terms, Fraction(sup["exact"]), None
        return terms, sup["limit_offset"] + periodic_upper_bound(sup["limit_tail"]), None

    lines = text.splitlines()
    if kind == "factors":
        return [line.split()[0] for line in lines[1:]]
    if kind.startswith("index"):
        rows = [line.split() for line in lines[1:]]
        return [(r[0], int(r[1]), None if r[4] == "-" else Fraction(r[4])) for r in rows]
    if kind == "three-distance":
        return [(int(line.split()[0]), parse_form(line.split()[2].strip("[]")))
                for line in lines[2:5]]
    if kind == "conjugacy":
        out = []
        for line in lines[2:]:
            tok = line.split()
            block = "outside-class" if tok[0] == "-" else tok[4].strip("()")
            out.append((tok[1], parse_form(tok[3].strip("[]")), block))
        return out
    terms, hi, lower = [], None, None
    for line in lines[1:]:
        tok = line.split()
        if tok[0] == "supremum" and tok[1] == ">=":
            lower = Fraction(tok[2])  # 12-digit decimal of the lower bound
        elif tok[0] == "supremum" and tok[3] == "+":
            hi = int(tok[2]) + periodic_upper_bound(tok[4])
        elif tok[0] == "supremum":
            hi = Fraction(tok[2])
        elif tok[0] != "scan":
            terms.append((int(tok[0]), Fraction(tok[1])))
    return terms, hi, lower


# ------------------------------------------------------------------
# one answer against the oracle routes
# ------------------------------------------------------------------

def check_answer(kind: str, cf: ContinuedFraction, argv: list[str], code: int,
                 out: str, err: str) -> str | None:
    """None if the answer of a periodic slope is right, else the reason."""
    fmt = argv[argv.index("--format") + 1]
    if kind == "index-word" and code == 1 and NOT_A_FACTOR in err:
        word = argv[argv.index("--word") + 1]
        return None if index_oracle(cf, word) == 0 else f"{word} is a factor"
    rows = parse_rows(kind, out, fmt)
    if kind == "factors":
        n = int(argv[argv.index("--n") + 1])
        ok = len(rows) == n + 1 and set(rows) == factor_set(cf, n)
        return None if ok else "factor set differs from the coded prefix"
    if kind in ("index-n", "index-word"):
        if kind == "index-n":
            n = int(argv[argv.index("--n") + 1])
            if len(rows) != n + 1 or {w for w, _, _ in rows} != factor_set(cf, n):
                return "indexed words differ from the coded prefix"
        for word, index, frac in rows:
            if index != index_oracle(cf, word):
                return f"index of {word} differs from the scan"
            if frac is not None and \
                    frac != oracles.max_fractional_power(window(cf, len(word)), word):
                return f"fractional index of {word} differs from the scan"
        return None
    if kind == "three-distance":
        n = int(argv[argv.index("--n") + 1])
        counts = oracles.gap_spectrum(cf, n, [form for _, form in rows])
        return None if counts == [c for c, _ in rows] else "gap counts differ from the spectrum"
    if kind == "conjugacy":
        words = [w for w, _, _ in rows]
        n = len(words[0])
        if len(words) != n + 1 or set(words) != factor_set(cf, n):
            return "class words differ from the coded prefix"
        shifts = [w for w, _, b in rows if b != "outside-class"]
        if not all(b == a[-1] + a[:-1] for a, b in zip(shifts, shifts[1:])):
            return "class rows are not successive cyclic shifts"
        blocks: dict[str, list] = {}  # block -> [length form, row count]
        for _, form, block in rows:
            if blocks.setdefault(block, [form, 0])[0] != form:
                return f"rows of the {block} block have different lengths"
            blocks[block][1] += 1
        counts = oracles.gap_spectrum(cf, n, [form for form, _ in blocks.values()])
        ok = counts == [c for _, c in blocks.values()]
        return None if ok else "block sizes differ from the spectrum"
    terms, hi, _ = rows
    if hi is None:
        return "no supremum for a periodic slope"
    observed, _ = oracles.max_run_exponent(characteristic_prefix(cf, RUN_SCAN_LETTERS),
                                           RUN_SCAN_MAX_PERIOD)
    if observed > hi or any(t > hi for _, t in terms):
        return f"a repetition of exponent {observed} or a term exceeds the supremum {hi}"
    return None


def check_truncated(op: dict, code: int, out: str, err: str) -> str | None:
    """A truncation's answer must equal the answer of two periodic extensions."""
    kind, argv = op["kind"], op["argv"]
    fmt = argv[argv.index("--format") + 1]
    for i, ext in enumerate(op["extensions"]):
        if kind == "critical-exponent":
            # Depth 30 keeps every term the truncation can print (it has at
            # most 24 quotients) and stays clear of the known crash.
            res = critical_exponent(to_cf(ext), EXTENSION_CRITICAL_DEPTH)
            terms, _, lower = parse_rows(kind, out, fmt)
            if not set(terms) <= set(res.terms) or \
                    lower > res.bounds()[1] * (1 + Fraction(1, 10**11)):
                return f"lower bound or terms not valid for {inputs.slope_str(ext)}"
            continue
        e_code, e_out, e_err = run_cli(with_slope(argv, ext))
        if e_code != code or (NOT_A_FACTOR in e_err) != (NOT_A_FACTOR in err):
            return f"extension {inputs.slope_str(ext)} answered differently"
        if fmt == "json" and code == 0:
            a, b = json.loads(out), json.loads(e_out)
            a.pop("slope"), b.pop("slope")
            same = a == b
        else:
            same = out == e_out
        if not same:
            return f"extension {inputs.slope_str(ext)} answered differently"
        if i == 0:
            reason = check_answer(kind, to_cf(ext), argv, e_code, e_out, e_err)
            if reason:
                return f"extension {inputs.slope_str(ext)}: {reason}"
    return None


def failure_label(text: str) -> str:
    """Message with slopes, words and numbers masked, for grouping."""
    text = text.strip().splitlines()[0] if text.strip() else "no message"
    text = re.sub(r"\[0;[^\]]*\]", "<slope>", text)
    text = re.sub(r"'[01]+'", "<word>", text)
    text = re.sub(r"render \S+ to", "render <form> to", text)
    return re.sub(r"-?\d+a?[+-]?\d*", "N", text)


def check_queries(ops: list[dict], records: list[dict]) -> tuple[list[str], Counter]:
    """(wrong answers, failed ops by kind)."""
    wrong, failures = [], Counter()
    for op, rec in zip(ops, records):
        kind, code = op["kind"], rec["code"]
        if rec["crash"] is not None:
            failures[f"{kind} crash: {failure_label(rec['crash'])}"] += 1
            continue
        answered = code == 0 or (code == 1 and NOT_A_FACTOR in rec["err"])
        if not answered:
            failures[f"{kind} refusal: {failure_label(rec['err'])}"] += 1
            continue
        if "extensions" in op:
            reason = check_truncated(op, code, rec["out"], rec["err"])
        else:
            reason = check_answer(kind, to_cf(op["slope"]), op["argv"], code,
                                  rec["out"], rec["err"])
        if reason:
            wrong.append(f"{' '.join(op['argv'])}: {reason}")
    return wrong, failures


def check_sweep(slopes: list, records: list[dict]) -> tuple[list[str], Counter]:
    wrong, failures = [], Counter()
    for slope, rec in zip(slopes, records):
        cf, name = to_cf(slope), inputs.slope_str(slope)
        for crash in rec["crashes"]:
            failures[f"sweep crash: {failure_label(crash)}"] += 1
        for n, reports in rec["reports"].items():
            n = int(n)
            text = window(cf, n)
            if len(reports) != n + 1 or {w for w, _, _ in reports} != factor_set(cf, n):
                wrong.append(f"{name} n={n}: reported words differ from the coded prefix")
            # Eight reports per length: the fractional scan walks every
            # occurrence letter by letter, which is slow at n near 150.
            for word, index, frac in reports[::max(1, len(reports) // 8)]:
                if index != index_oracle(cf, word) or \
                        Fraction(frac) != oracles.max_fractional_power(text, word):
                    wrong.append(f"{name} {word}: index {index}, fractional {frac} "
                                 "differ from the scan")
        if rec["squares"] is not None:
            m = SQUARE_CHECK_N_MAX
            small = {q for q in rec["squares"] if q <= m}
            if small != oracles.square_root_lengths(window(cf, m), m):
                wrong.append(f"{name}: square lengths up to {m} differ from the scan")
        if "factors" in rec:
            # A coded window certifying length 4000 runs to millions of
            # letters, so the sample goes through the arc automaton instead.
            fac = rec["factors"]
            n = inputs.SWEEP_FACTOR_N
            if fac["count"] != n + 1 or fac["distinct"] != n + 1 or \
                    any(word_interval(cf, w) is None for w in fac["sample"]):
                wrong.append(f"{name}: factors of length {n} are not the language's")
    return wrong, failures


def check_verify(records: dict) -> tuple[list[str], Counter]:
    wrong = [f"{name}: {msg}" for name, row in records.items() for msg in row["failures"]]
    failures = Counter({f"{name} failed checks": row["failed"]
                        for name, row in records.items() if row["failed"]})
    return wrong, failures
