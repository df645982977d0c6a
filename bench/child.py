"""One benchmark run inside a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED SECONDS MODE SPAWNED

MODE is `setup` (import and generate inputs, then stop), `run` (timed
under `calib.Calibrator`, for the end-to-end metrics), `plain` (without
calibration: the baseline of a traced run) or `trace` (the same ops under
`spans.Tracer`).  SPAWNED is the parent's CLOCK_MONOTONIC reading just
before it started this interpreter, so `setup_s` covers interpreter
start, imports and input generation up to the first timed op.  SECONDS
sizes the fixed work of the run.  The last line of stdout is one JSON
document.  Answers are checked by the parent, outside this process, so
that checking neither warms these caches nor adds to this peak RSS.
"""

from __future__ import annotations

import io
import itertools
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

VERIFY_N_MAX = 150


# ------------------------------------------------------------------
# workloads: each returns wall_s, per-op latencies and start times, ops
# attempted and the records the parent checks
# ------------------------------------------------------------------

def run_verify(slopes, n_max: int = VERIFY_N_MAX, inject_fault: str | None = None,
               clock=time.perf_counter) -> dict:
    """`sturmian verify --n-max 150`, one suite over the whole family per op.

    Suites run in the CLI's order, so the package does the same work in the
    same order as a single run_suites call; the split only yields latency
    samples.  They are eight suites of very different sizes, so their
    median and 90th percentile keep their rank from run to run, where
    (suite, slope) pairs would put the median in a gap between clusters.
    """
    from sturmian import verify

    suites: dict[str, dict] = {}
    latencies, starts = [], []
    t0 = clock()
    for name in verify.SUITES:
        start = clock()
        [res] = verify.run_suites(names=[name], slopes=slopes, n_max=n_max,
                                  inject_fault=inject_fault)
        latencies.append(clock() - start)
        starts.append(start)
        suites[name] = {"checks": res.checks, "failed": len(res.failures),
                        "seconds": res.seconds, "failures": res.failures[:3]}
    wall = clock() - t0
    return {
        "wall_s": wall, "latencies": latencies, "starts": starts,
        "attempted": sum(r["checks"] for r in suites.values()),
        "failed": sum(r["failed"] for r in suites.values()),
        "records": suites,
    }


def run_queries(ops: list[dict], clock=time.perf_counter) -> dict:
    """Closed loop, one caller: each CLI invocation starts when the last
    ends.  A crash is recorded with its exception and the loop goes on."""
    from sturmian import cli

    records, latencies, starts = [], [], []
    t0 = clock()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with redirect_stdout(out), redirect_stderr(err):
            start = clock()
            try:
                code = cli.main(list(op["argv"]))
            except SystemExit as exc:  # argparse usage error
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001 - a crash is a failed op
                code, crash = None, f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - start)
            starts.append(start)
        records.append({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                        "crash": crash})
    wall = clock() - t0
    return {"wall_s": wall, "latencies": latencies, "starts": starts, "attempted": len(records),
            "records": records}


def run_sweep(slopes, seed: int, clock=time.perf_counter) -> dict:
    """Formula-only deep sweep: classify every length with fractional
    indices, then square lengths and the factors at one large length."""
    from sturmian import repetitions, rotation
    from sturmian.exactnum import ContinuedFraction

    records, latencies, starts = [], [], []

    def timed(fn, *args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs), None
        except Exception as exc:  # noqa: BLE001 - a crash is a failed op
            return None, f"{type(exc).__name__}: {exc}"
        finally:
            latencies.append(clock() - start)
            starts.append(start)

    t0 = clock()
    for idx, (pre, per) in enumerate(slopes):
        cf = ContinuedFraction(pre, per)
        sample = set(inputs.sweep_sample(seed, idx))
        rec: dict = {"reports": {}, "crashes": []}
        for n in range(1, inputs.SWEEP_N_MAX + 1):
            reports, crash = timed(repetitions.classify_length, cf, n, with_fractional=True)
            if crash:
                rec["crashes"].append(crash)
            elif n in sample:
                rec["reports"][n] = [[r.word, r.integer_index, str(r.fractional_index)]
                                     for r in reports]
        squares, crash = timed(repetitions.square_lengths, cf, inputs.SWEEP_SQUARE_N_MAX)
        rec["squares"] = None if crash else sorted(squares)
        factors, crash2 = timed(rotation.factors_of_length, cf, inputs.SWEEP_FACTOR_N)
        if factors is not None:
            words = [w for w, _ in factors]
            rec["factors"] = {"count": len(words), "distinct": len(set(words)),
                              "sample": words[::len(words) // 8]}
        rec["crashes"] += [c for c in (crash, crash2) if c]
        records.append(rec)
    wall = clock() - t0
    return {"wall_s": wall, "latencies": latencies, "starts": starts,
            "attempted": len(latencies),
            "records": records}


# ------------------------------------------------------------------
# entry point
# ------------------------------------------------------------------

def prepare(workload: str, seed: int, seconds: int):
    """Import the layers the workload calls and build its inputs."""
    if workload == "verify":
        from sturmian import verify
        slopes = verify.default_family()
        return lambda clock: run_verify(slopes, clock=clock)
    if workload == "queries":
        import sturmian.cli  # noqa: F401
        ops = list(itertools.islice(inputs.query_stream(seed), inputs.query_count(seconds)))
        return lambda clock: run_queries(ops, clock=clock)
    if workload == "sweep":
        import sturmian.repetitions  # noqa: F401
        slopes = inputs.sweep_slopes(seed, inputs.sweep_slope_count(seconds))
        return lambda clock: run_sweep(slopes, seed, clock=clock)
    raise SystemExit(f"unknown workload {workload!r}")


def cache_stats() -> dict:
    from sturmian import exactnum, rotation
    info = exactnum.alpha_bounds.cache_info()
    return {
        "exactnum.alpha_bounds.cache_hits": info.hits,
        "exactnum.alpha_bounds.cache_misses": info.misses,
        "exactnum.alpha_bounds.cache_size": info.currsize,
        "rotation.factor_interval_map.cache_size":
            rotation.factor_interval_map.cache_info().currsize,
    }


def calibrated(run, sensitivity: float) -> dict:
    """Run under `calib.Calibrator`, timing with a clock that leaves out
    the calibration ticks, and take each op's latency to reference speed
    by the ticks around it; `measured` keeps the times as timed."""
    cal = calib.Calibrator(sensitivity)

    def clock() -> float:
        while True:
            spent = cal.spent
            now = time.perf_counter()
            if cal.spent == spent:
                return now - spent

    cal.clock = clock
    with cal:
        result = run(clock)
    latencies = [t * cal.scale_between(start, start + t)
                 for start, t in zip(result["starts"], result["latencies"])]
    between_ops = result["wall_s"] - sum(result["latencies"])
    return {**result, "latencies": latencies,
            "wall_s": sum(latencies) + between_ops * cal.scale(),
            "measured": {"wall_s": result["wall_s"], "scale": cal.scale(),
                         "ticks": len(cal.samples)}}


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode, spawned = argv
    run = prepare(workload, int(seed), int(seconds))
    doc: dict = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawned)}
    if mode == "run":
        doc.update(calibrated(run, calib.SENSITIVITY[workload]))
    elif mode == "plain":
        doc.update(run(time.perf_counter))
    elif mode == "trace":
        with spans.Tracer() as tracer:
            doc.update(run(time.perf_counter))
        doc["trace"] = tracer.stats
    if mode != "setup":
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        doc["caches"] = cache_stats()
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
