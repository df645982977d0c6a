"""Benchmark of the sturmian package: three seeded workloads.

    python3 bench/run.py --workload {verify,queries,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Each run happens in a fresh child
interpreter (bench/child.py), one caller in a closed loop, so slope-keyed
caches start cold and the peak RSS is that run's alone.  After the child
exits, this process checks every answer against an independent route
(bench/check.py); a wrong answer makes the command exit 1.

--trace 0 prints the end-to-end metrics: setup_s is the median of nine
interpreter starts (import plus input generation up to the first timed
op).  Their times are taken to reference speed by bench/calib.py, so
that a change of the shared host's speed does not read as a change of
the program; the times as measured are printed too.  --trace 1 runs the
workload untraced and then the same ops under bench/spans.py, and prints
per-layer calls and self time, cache sizes, suite times and the tracing
overhead, all as measured.  Every metric is printed by name with its
unit; the last stdout line is one JSON object, and a copy with the
failure list goes to bench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
SETUP_BURSTS = 60
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))
import calib  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("verify", "queries", "sweep")
# verify.SUITES at the time the per-layer metric names were fixed.
VERIFY_SUITES = ("best-approximations", "closest-multiples", "three-distance",
                 "square-lengths", "conjugacy-intervals", "power-classification",
                 "critical-exponent", "cube-structure")


class ChildError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: int, mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(seconds), mode]
    argv.append(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quantile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def check_answers(workload: str, seed: int, seconds: int, doc: dict):
    import check as checks  # needs src/ on sys.path, which main() adds
    if workload == "verify":
        return checks.check_verify(doc["records"])
    if workload == "queries":
        ops = list(itertools.islice(inputs.query_stream(seed), inputs.query_count(seconds)))
        return checks.check_queries(ops, doc["records"])
    slopes = inputs.sweep_slopes(seed, inputs.sweep_slope_count(seconds))
    return checks.check_sweep(slopes, doc["records"])


def answers(workload: str, doc: dict):
    """The part of a child's records that must not depend on tracing."""
    if workload == "queries":
        return [(r["code"], r["out"]) for r in doc["records"]]
    if workload == "verify":
        return {name: (r["checks"], r["failures"]) for name, r in doc["records"].items()}
    return doc["records"]


def end_to_end(doc: dict, setups: list[float]) -> dict:
    """The end-to-end metrics; the child and `setup_sample` have taken
    every time to reference speed (see calib.py)."""
    lat, wall = doc["latencies"], doc["wall_s"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (doc["attempted"] / wall, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1e3 * quantile(lat, 90), "ms"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def setup_sample(workload: str, seed: int, seconds: int) -> tuple[float, float]:
    """One fresh interpreter's setup_s at reference speed, and as measured.
    Host speed is sampled by kernel loops just before and after."""
    before = calib.mean_burst_s(SETUP_BURSTS)
    raw = spawn(workload, seed, seconds, "setup")["setup_s"]
    after = calib.mean_burst_s(SETUP_BURSTS)
    scale = calib.to_reference([(0, before), (0, after)], calib.REFERENCE_LOOP_S,
                               calib.SENSITIVITY["setup"])
    return raw * scale, raw


def per_layer(workload: str, plain: dict, traced: dict) -> dict:
    out: dict = {}
    totals = dict.fromkeys(spans.TRACED, 0.0)
    for name, (calls, self_s) in traced["trace"].items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        totals[name.split(".")[0]] += self_s
    for layer, self_s in totals.items():
        out[f"{layer}.self_s"] = (self_s, "s")
    for name, value in plain["caches"].items():
        out[name] = (value, "count")
    suites = plain["records"] if workload == "verify" else {}
    for name in VERIFY_SUITES:
        out[f"verify.{name}.s"] = (suites[name]["seconds"] if suites else 0.0, "s")
    out["trace.wall_s"] = (traced["wall_s"], "s")
    out["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return out


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, bool, dict]:
    # Set-up is sampled first, while this process's heap is still small.
    setups = [] if trace else [setup_sample(workload, seed, seconds)
                               for _ in range(SETUP_SAMPLES)]
    plain = spawn(workload, seed, seconds, "plain" if trace else "run")
    wrong, failures = check_answers(workload, seed, seconds, plain)
    failed = sum(failures.values())
    summary = {
        "attempted": plain["attempted"], "failed": failed, "wrong": wrong,
        "failures": dict(failures.most_common()), "samples": len(plain["latencies"]),
    }
    if trace:
        traced = spawn(workload, seed, seconds, "trace")
        if answers(workload, traced) != answers(workload, plain):
            wrong.append("traced run answered differently from the untraced run")
        metrics = per_layer(workload, plain, traced)
    else:
        metrics = end_to_end(plain, [s for s, _ in setups])
        summary["measured"] = {
            "setup_s": statistics.median(raw for _, raw in setups),
            **plain["measured"],
        }
    return metrics, not wrong, summary


def report(args, metrics: dict, correct: bool, summary: dict) -> None:
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  python {platform.python_version()}  cpus {os.cpu_count()}")
    rows = dict(metrics)
    if not args.trace:
        rows["failed_ratio"] = (failed / attempted, "ratio")
    for name, (value, unit) in rows.items():
        note = ""
        if name.startswith("latency_"):
            note = f"  (n={summary['samples']})"
        elif name == "setup_s":
            note = f"  (median of {SETUP_SAMPLES} interpreter starts)"
        elif name == "failed_ratio":
            note = f"  ({failed} of {attempted})"
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")
    if "measured" in summary:
        m = summary["measured"]
        print(f"  times above are at reference speed; as measured: setup_s "
              f"{m['setup_s']:.6g} s, wall_s {m['wall_s']:.6g} s, scale "
              f"{m['scale']:.4f} from {m['ticks']} calibration ticks")
    for label, n in summary["failures"].items():
        print(f"  failed x{n}: {label}")
    for line in summary["wrong"][:20]:
        print(f"  WRONG: {line}")
    print(f"  answers {'correct' if correct else 'WRONG'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sturmian" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'sturmian'} not found", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=2)
    sys.path.insert(0, str(SRC))
    try:
        metrics, correct, summary = run(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args, metrics, correct, summary)
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, "summary": summary, "args": vars(args),
                                "python": platform.python_version(),
                                "cpus": os.cpu_count()}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
