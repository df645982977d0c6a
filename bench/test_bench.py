"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import calib
import check
import child
import inputs
import spans
from sturmian import words
from sturmian.exactnum import ContinuedFraction, parse_slope

BENCH = Path(__file__).resolve().parent


def test_same_seed_gives_same_ops():
    first = list(islice(inputs.query_stream(7), 300))
    assert first == list(islice(inputs.query_stream(7), 300))
    assert first != list(islice(inputs.query_stream(8), 300))
    assert inputs.sweep_slopes(7, 6) == inputs.sweep_slopes(7, 6)
    assert inputs.query_count(25) == 2500 and inputs.sweep_slope_count(25) == 14


def test_stream_uses_a_new_slope_per_op_and_every_kind():
    ops = list(islice(inputs.query_stream(3), 2000))
    assert len({op["slope"] for op in ops}) == len(ops)
    blocks = len(ops) // 50
    assert Counter(op["kind"] for op in ops) == {k: n * blocks for k, n in inputs.QUERY_MIX}
    assert sum("extensions" in op for op in ops) == inputs.TRUNCATED_PER_BLOCK * blocks
    depths = [int(op["argv"][op["argv"].index("--depth") + 1])
              for op in ops if op["kind"] == "critical-exponent"]
    assert max(depths) > 150


def test_generation_never_imports_the_package():
    code = ("import sys, itertools, inputs; "
            "list(itertools.islice(inputs.query_stream(1), 500)); inputs.sweep_slopes(1, 8); "
            "sys.exit(any(m.split('.')[0] == 'sturmian' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], cwd=BENCH).returncode == 0


@pytest.mark.parametrize("slope", [((2,), (1,)), ((3, 1), (2, 5)), ((5, 4, 1), (3,))])
def test_standard_word_recurrence_matches_the_package(slope):
    cf = ContinuedFraction(*slope)
    text = inputs.standard_word(slope, 200)
    assert text in {words.standard_word(cf, k) for k in range(12)}


def _bindings():
    return {(m.__name__, attr): value for m in spans.package_modules()
            for attr, value in vars(m).items() if callable(value)}


def test_tracer_leaves_no_function_patched():
    before = _bindings()
    with spans.Tracer() as tracer:
        assert sys.modules["sturmian.verify"].classify_length is not \
            before[("sturmian.verify", "classify_length")]
        code, out, _ = check.run_cli(["index", "--slope", "[0;2,(1,2)]", "--n", "7"])
    after = _bindings()
    assert code == 0 and out
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.stats["cli.main"][0] == 1
    assert tracer.stats["repetitions.classify_length"][0] == 1
    assert tracer.stats["rotation.key_table"][0] > 0


def test_self_times_add_up_to_at_most_the_outer_call():
    with spans.Tracer() as tracer:
        start = time.perf_counter()
        check.run_cli(["factors", "--slope", "[0;3,(1,2)]", "--n", "9", "--format", "json"])
        elapsed = time.perf_counter() - start
    self_times = [self_s for _, self_s in tracer.stats.values()]
    assert min(self_times) >= 0
    assert 0 < sum(self_times) <= elapsed


def test_calibrator_samples_the_kernel_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with calib.Calibrator(0.8) as cal:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    ticks = len(cal.samples)
    assert ticks > 5 and 0 < sum(d for _, d in cal.samples) < cal.spent < 0.4
    mean = sum(d for _, d in cal.samples) / ticks
    assert cal.scale() == pytest.approx((calib.REFERENCE_S / mean) ** 0.8)
    # An op covering the whole block is scaled by every tick.
    assert cal.scale_between(cal.samples[0][0], cal.samples[-1][0]) == cal.scale()


def test_scale_between_uses_the_ticks_around_the_op():
    cal = calib.Calibrator(0.8)
    fast, slow = calib.REFERENCE_S, 2 * calib.REFERENCE_S
    cal.samples = [(0.04 * i, fast if i < 100 else slow) for i in range(200)]
    assert cal.scale_between(1.0, 1.1) == pytest.approx(1.0)
    assert cal.scale_between(6.0, 6.1) == pytest.approx(0.5 ** 0.8)
    assert 0.5 ** 0.8 < cal.scale_between(3.9, 4.1) < 1.0


def test_calibrated_clock_leaves_out_the_ticks():
    def run(clock):
        start = clock()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        elapsed = clock() - start
        return {"wall_s": elapsed, "latencies": [elapsed], "starts": [start]}
    doc = child.calibrated(run, 0.8)
    measured = doc["measured"]
    assert measured["ticks"] > 0
    assert measured["wall_s"] < 0.2 - 0.5 * measured["ticks"] * calib.REFERENCE_S
    assert doc["wall_s"] == pytest.approx(measured["wall_s"] * measured["scale"])


def test_injected_fault_fails_verify():
    slopes = [parse_slope("[0;2,(1,2)]")]
    clean = child.run_verify(slopes, n_max=12)
    faulty = child.run_verify(slopes, n_max=12, inject_fault="flip-gamma")
    assert clean["failed"] == 0 and clean["attempted"] > 0
    assert faulty["failed"] > 0
    wrong, failures = check.check_verify(faulty["records"])
    assert wrong and failures["power-classification failed checks"] == faulty["failed"]


def _flip_first_word(text: str) -> str:
    i = text.index("0")
    return text[:i] + "1" + text[i + 1:]


def _bump_json_index(text: str) -> str:
    doc = json.loads(text)
    doc["results"][-1]["integer_index"] += 1
    return json.dumps(doc)


def _bump_first_count(text: str) -> str:
    lines = text.splitlines()
    count, rest = lines[2].split(maxsplit=1)
    lines[2] = f"{int(count) + 1:>6}  {rest}"
    return "\n".join(lines) + "\n"


def _swap_block(text: str) -> str:
    return text.replace("(wide)", "(narrow)", 1)


def _lower_supremum(text: str) -> str:
    doc = json.loads(text)
    doc["results"][0]["supremum"].update(exact="2", limit_offset=None, limit_tail=None)
    return json.dumps(doc)


@pytest.mark.parametrize("kind,argv,mutate", [
    ("factors", ["factors", "--n", "6"], _flip_first_word),
    ("index-n", ["index", "--n", "5", "--format", "json"], _bump_json_index),
    ("index-word", ["index", "--word", "01001", "--format", "json"], _bump_json_index),
    ("three-distance", ["three-distance", "--n", "40"], _bump_first_count),
    ("conjugacy", ["conjugacy", "--k", "3", "--l", "1"], _swap_block),
    ("critical-exponent", ["critical-exponent", "--depth", "20", "--format", "json"],
     _lower_supremum),
])
def test_checker_accepts_real_answers_and_rejects_mutated_ones(kind, argv, mutate):
    slope = ((2,), (1, 2))
    argv = argv + ["--slope", inputs.slope_str(slope)]
    if "--format" not in argv:
        argv += ["--format", "table"]
    code, out, err = check.run_cli(argv)
    assert code == 0
    op = {"kind": kind, "slope": slope, "argv": argv}
    record = {"code": code, "out": out, "err": err, "crash": None}
    assert check.check_queries([op], [record]) == ([], Counter())
    wrong, _ = check.check_queries([op], [dict(record, out=mutate(out))])
    assert len(wrong) == 1


def test_truncated_answer_must_match_its_extensions():
    truncated = ((3,) + (4, 5) * 6, ())
    op = {"kind": "factors", "slope": truncated,
          "argv": ["factors", "--n", "5", "--slope", inputs.slope_str(truncated),
                   "--format", "json"],
          "extensions": [(truncated[0], (1, 2)), (truncated[0], (3,))]}
    code, out, err = check.run_cli(op["argv"])
    assert code == 0
    assert check.check_truncated(op, code, out, err) is None
    doc = json.loads(out)
    doc["results"][0]["word"] = _flip_first_word(doc["results"][0]["word"])
    assert check.check_truncated(op, code, json.dumps(doc), err) is not None


def test_crashes_and_refusals_count_as_failed_not_wrong():
    op = {"kind": "critical-exponent", "slope": ((2,), (1,)),
          "argv": ["critical-exponent", "--depth", "190", "--slope", "[0;2,(1)]"]}
    crash = {"code": None, "out": "", "err": "", "crash": "AssertionError: boom 3"}
    refusal = {"code": 1, "out": "", "err": "error: cannot render 5a-1 to 12 digits\n",
               "crash": None}
    wrong, failures = check.check_queries([op, op], [crash, refusal])
    assert wrong == []
    assert sum(failures.values()) == 2


def test_queries_capture_each_cli_answer():
    argv = ["factors", "--slope", "[0;2,(1)]", "--n", "3"]
    result = child.run_queries([{"argv": argv}] * 2)
    assert result["attempted"] == 2 and len(result["latencies"]) == 2
    assert result["records"][0] == {"code": 0, "out": check.run_cli(argv)[1], "err": "",
                                    "crash": None}
