"""Real-clock serving benchmark: one workload per process.

Usage, from the root of a checkout::

    python3 servebench/run.py --workload read_burst --seed 1 --seconds 40 --trace 0
    python3 servebench/run.py --workload replay_mixed --seed 1 --seconds 40 --trace 1
    python3 servebench/run.py --smoke     # both workloads, small size, all checks

``--trace 0`` sets the service up several times (reporting the median
set-up time), runs the load phase on the last set-up and prints the
end-to-end metrics, with every time scaled to the reference speed of
:mod:`speed`'s probe, which runs beside the program throughout.
``--trace 1`` runs the load phase untraced on one set-up and traced on a
second, identical one, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
output check failed.
"""

import os

# One BLAS thread: the pool size is fixed and no larger than nproc, and
# the default two-thread pool doubles CPU per query without helping
# wall time on the serving path.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("read_burst", "replay_mixed")
# Set-ups per untraced run; set-up time is their median.
SETUPS = 3
# Interval of the speed probe during each set-up.
SETUP_PROBE_EVERY_S = 0.05
SMOKE_SECONDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument(
        "--smoke", action="store_true",
        help="run both workloads at the small size, traced and untraced",
    )
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_phase(workload, setup, size, seed, seconds, tracer=None,
               probe=None):
    """Run one load phase and check its outputs; (result, errors)."""
    from checks import (
        check_query,
        chance_hit_rate,
        expected_refits,
        first_grid_point_after,
    )
    from workloads import read_burst_schedule, run_read_burst, run_replay_mixed

    service = setup.service
    online = service.core.online_config
    refits_before = service.report.n_refits
    if workload == "read_burst":
        schedule = read_burst_schedule(setup, size, seed, seconds)
        result = run_read_burst(setup, schedule, tracer, probe)
    else:
        result = run_replay_mixed(setup, tracer, probe)

    errors: list[str] = []
    grid = first_grid_point_after(
        [t.created_at for t in setup.history],
        online.warmup_hours,
        online.refit_interval_hours,
    )
    times = sorted(o.thread.created_at for o in result.outcomes)
    want = expected_refits(grid, online.refit_interval_hours, times)
    got = service.report.n_refits - refits_before
    if got != want:
        errors.append(f"{got} refits ran; the grid owes {want}")
    hits, chance = [], []
    for outcome in result.outcomes:
        if outcome.kind != "query" or not outcome.response.ok:
            continue
        errors.extend(
            check_query(outcome.response, outcome.thread, online.top_k)
        )
        if outcome.candidates:
            answerers = set(outcome.thread.answerers)
            hit = bool(answerers & set(outcome.response.ranked[:5]))
            hits.append(hit)
            chance.append(
                chance_hit_rate(outcome.candidates, outcome.answerers, 5)
            )
    if workload == "replay_mixed":
        hit_rate = sum(hits) / len(hits) if hits else 0.0
        chance_rate = sum(chance) / len(chance) if chance else 1.0
        print(f"hit@5 {hit_rate:.4f} against chance {chance_rate:.4f}")
        if not hit_rate > chance_rate:
            errors.append(
                f"hit@5 {hit_rate:.4f} does not beat chance {chance_rate:.4f}"
            )
    return result, errors


def failures(result) -> int:
    bad = 0
    for outcome in result.outcomes:
        status = outcome.response.status
        if status != ("ok" if outcome.kind == "query" else "admitted"):
            bad += 1
    return bad


def latencies_ms(result, kind: str):
    """Latency of each request of ``kind``, from the time it was due."""
    import numpy as np

    return np.array(
        [(o.done - o.due) * 1e3 for o in result.outcomes if o.kind == kind]
    )


def end_to_end(workload, result, setup_times, setup_factors) -> dict:
    """The end-to-end metrics at the speed probe's reference speed.

    Every time is divided by the slowdown the probe measured beside it:
    the load phase's factor for the load metrics, each set-up's own for
    its set-up time.  ``requests_per_s`` is capacity only on the closed
    loop; on ``read_burst`` it follows the offered rate and is left as
    measured.  The figures as measured are printed beside them.
    """
    import numpy as np

    query_ms = latencies_ms(result, "query")
    n = len(result.outcomes)
    raw = {
        "setup_s": (statistics.median(setup_times), "s"),
        "query_p50_ms": (float(np.percentile(query_ms, 50)), "ms"),
        # The gated tail is p95: p99 sits among the queries a handful of
        # gen-2 collections stall, and moved 30% between seeds (see the
        # README); it is reported by the traced run instead.
        "query_p95_ms": (float(np.percentile(query_ms, 95)), "ms"),
        "event_p50_ms": (
            float(np.percentile(latencies_ms(result, "event"), 50)), "ms"
        ),
        "requests_per_s": (n / result.wall_s, "req/s"),
        "cpu_ms_per_request": (result.cpu_s * 1e3 / n, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for name, (value, unit) in raw.items():
        print(f"measured {name:23s} {value:14.4f} {unit}")
    if workload == "read_burst":
        lag_ms = [(o.sent - o.due) * 1e3 for o in result.outcomes]
        for q in (50, 99):
            print(f"measured lag_p{q}_ms{'':14s}"
                  f"{np.percentile(lag_ms, q):14.4f} ms")
    print(f"measured speed factor, set-up  "
          f"{statistics.median(setup_factors):14.4f}")
    print(f"measured speed factor, load    {result.speed_factor:14.4f}")
    metrics = dict(raw)
    metrics["setup_s"] = (
        statistics.median(
            t / f for t, f in zip(setup_times, setup_factors)
        ),
        "s",
    )
    for name in ("query_p50_ms", "query_p95_ms", "event_p50_ms",
                 "cpu_ms_per_request"):
        metrics[name] = (raw[name][0] / result.speed_factor, raw[name][1])
    if workload == "replay_mixed":
        metrics["requests_per_s"] = (
            raw["requests_per_s"][0] * result.speed_factor, "req/s"
        )
    return metrics


def untraced_run(args, size):
    from speed import SpeedProbe
    from workloads import build

    probe = SpeedProbe()
    setup_times, setup_factors = [], []
    setup = None
    for _ in range(SETUPS):
        setup = None
        gc.collect()
        first, probe_wall = len(probe.times), probe.wall_s
        with probe.sampling(SETUP_PROBE_EVERY_S):
            setup = build(args.workload, size, args.seed, args.seconds)
        setup_times.append(setup.setup_s - (probe.wall_s - probe_wall))
        setup_factors.append(probe.factor(since=first))
    result, errors = load_phase(
        args.workload, setup, size, args.seed, args.seconds, probe=probe
    )
    metrics = end_to_end(args.workload, result, setup_times, setup_factors)
    return result, errors, metrics


def traced_run(args, size):
    import numpy as np

    from repro import perf
    from tracing import (
        Tracer,
        cost_model_fit,
        guard_outcomes,
        layer_metrics,
        unattributed_ms,
    )
    from workloads import build

    setup = build(args.workload, size, args.seed, args.seconds)
    plain, errors = load_phase(
        args.workload, setup, size, args.seed, args.seconds
    )
    generate_s, warm_s = [setup.generate_s], [setup.warm_s]
    setup = None
    gc.collect()

    tracer = Tracer().install()
    try:
        setup_begin = time.perf_counter()
        setup = build(args.workload, size, args.seed, args.seconds)
        setup_window = (setup_begin, time.perf_counter())
        generate_s.append(setup.generate_s)
        warm_s.append(setup.warm_s)
        tracer.guard_repaired = tracer.guard_quarantined = 0
        perf.get_registry().reset()
        traced, traced_errors = load_phase(
            args.workload, setup, size, args.seed, args.seconds, tracer
        )
        peak_pending = perf.get_registry().counter(
            "serving.peak_pending_queries"
        )
    finally:
        tracer.remove()
    errors += traced_errors
    if failures(traced):
        errors.append(f"{failures(traced)} operations failed in the traced load")
    tracer.write(
        HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    )

    window = traced.window
    queries = traced.metrics["queries"]
    metrics = {
        "ingest.peak_pending_queries": (float(peak_pending), "count"),
        "batcher.batches": (float(queries["batches"]), "count"),
        "batcher.mean_batch_size": (float(queries["mean_batch_size"]),
                                    "count"),
        "batcher.wait_p50_ms": (
            float(traced.metrics["batch_wait"].get("p50_ms", 0.0)), "ms"
        ),
    }
    metrics.update(layer_metrics(tracer, window))
    metrics.update(guard_outcomes(tracer))
    setup_refits = layer_metrics(tracer, setup_window)
    metrics["setup.refits"] = (setup_refits["refit.calls"][0], "count")
    metrics["setup.refit_ms"] = (setup_refits["refit.ms"][0], "ms")
    metrics["setup.generate_s"] = (statistics.median(generate_s), "s")
    metrics["setup.warm_s"] = (statistics.median(warm_s), "s")
    metrics["tail.query_p99_ms"] = (
        float(np.percentile(latencies_ms(plain, "query"), 99)), "ms"
    )
    lag_ms = [(o.sent - o.due) * 1e3 for o in plain.outcomes]
    metrics["loadgen.lag_p99_ms"] = (float(np.percentile(lag_ms, 99)), "ms")
    metrics["trace.overhead_pct"] = (
        (traced.cpu_s - plain.cpu_s) / plain.cpu_s * 100.0, "%"
    )
    metrics["trace.unattributed_ms"] = (unattributed_ms(tracer, window), "ms")
    metrics.update(cost_model_fit(tracer, window))
    return plain, errors, metrics


def run_workload(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checks import LpSampler, check_lp
    from workloads import SIZES

    size = SIZES[(args.workload, args.size)]
    sampler = LpSampler().install()
    try:
        if args.trace:
            result, errors, metrics = traced_run(args, size)
        else:
            result, errors, metrics = untraced_run(args, size)
    finally:
        sampler.remove()
    errors += check_lp(sampler.samples)
    attempted = len(result.outcomes)
    failed = failures(result)

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    print(f"attempted {attempted}  failed {failed}")
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")
    correct = not errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def smoke() -> int:
    """Both workloads, small size, untraced and traced, every check on."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", "1",
                "--seconds", str(SMOKE_SECONDS), "--trace", str(trace),
                "--size", "small",
            ]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=170
            )
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-1]) if lines else {}
            ok = (
                proc.returncode == 0
                and record.get("correct") is True
                and record.get("failed") == 0
                and record.get("attempted", 0) > 0
            )
            print(
                f"{workload} trace={trace}: "
                f"{'ok' if ok else 'FAILED'} "
                f"({record.get('attempted')} attempted, "
                f"{record.get('failed')} failed)"
            )
            if not ok:
                status = 1
                sys.stdout.write(proc.stdout[-2000:])
                sys.stdout.write(proc.stderr[-2000:])
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return smoke()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
