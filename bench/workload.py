"""The workload process: set-up, the timed closed loop, and the checks.

Started by ``run.py`` with the environment already pinned (one BLAS
thread, ``TWOATOM_MAX_WORKERS`` set, ``PYTHONPATH`` at the checkout's
``src``).  Prints one JSON object on its last stdout line.

    --probe       only time set-up (import, parse, warm-up op) and exit
    --trace 0     run passes until --seconds of op time have been measured
    --trace 1     one untraced and one traced run of pass 0, compared
"""
import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads


def _set_up(workload: str, seed: int):
    """Import the engine, parse pass 0 and run the warm-up op: set-up time."""
    ops = workloads.make_pass(workload, seed, 0)
    warm = workloads.warmup_op(workload)
    start = time.perf_counter()
    from twoatom.config import parse_config
    from twoatom.runner import run_scenario
    for op in ops:
        parse_config(op.text)
    run_scenario(parse_config(warm.text)).to_csv()
    return time.perf_counter() - start


def _run_op(op):
    """One op through the public path; returns (seconds, csv, sidecars, error)."""
    from twoatom.config import parse_config
    from twoatom.runner import run_scenario
    start = time.perf_counter()
    try:
        table = run_scenario(parse_config(op.text))
        csv = table.to_csv()
    except Exception as exc:  # a failing op is counted, never re-drawn
        return time.perf_counter() - start, None, {}, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, csv, dict(table.sidecars), None


def _replay_other_workers(op, csv, sidecars) -> list[str]:
    """Jump records must be bit-identical for any worker count."""
    from checks import strip_wall_time
    saved = os.environ["TWOATOM_MAX_WORKERS"]
    other = "1" if saved != "1" else "2"
    os.environ["TWOATOM_MAX_WORKERS"] = other
    try:
        _, csv2, sidecars2, error = _run_op(op)
    finally:
        os.environ["TWOATOM_MAX_WORKERS"] = saved
    if error or strip_wall_time(csv2) != strip_wall_time(csv) or sidecars2 != sidecars:
        return [f"output differs with TWOATOM_MAX_WORKERS={other}"]
    return []


class Log:
    """Per-op record of one run, written next to the replayable configs."""

    def __init__(self, out: Path):
        self.out = out
        self.ops = []

    def record(self, label, op_index, op, seconds, csv, sidecars, failures):
        name = f"{label}_op{op_index:02d}"
        (self.out / f"{name}.cfg").write_text(op.text)
        if failures and csv is not None:
            (self.out / f"{name}.csv").write_text(csv)
            for key, payload in sidecars.items():
                (self.out / f"{name}.csv.{key}").write_text(payload)
        self.ops.append({"op": name, "kind": op.kind, "seconds": seconds,
                         "failures": failures})


def _measure(op, label, op_index, log, replay=False, tracer=None):
    """Run and check one op; the check is outside the timed (and traced)
    region."""
    from checks import check_op
    if tracer is None:
        seconds, csv, sidecars, error = _run_op(op)
    else:
        with tracer.op(op_index):
            seconds, csv, sidecars, error = _run_op(op)
    failures = [error] if error else check_op(op.values, csv, sidecars)
    if replay and not failures:
        failures = _replay_other_workers(op, csv, sidecars)
    log.record(label, op_index, op, seconds, csv, sidecars, failures)
    return seconds, csv, sidecars


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its pool workers (each worker counted
    at the largest worker peak; ru_maxrss is in KiB on Linux)."""
    from twoatom.jumps import default_worker_count
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = default_worker_count() if child else 0
    return (own + workers * child) * 1024 / 1e6


def _environment() -> dict:
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pinned = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "TWOATOM_MAX_WORKERS")
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **{key: os.environ.get(key) for key in pinned}}


def latency_summary(latencies: list[float], tail_p: float) -> dict:
    """Median and tail op latency, with how many ops lie beyond the tail.

    Both use the Harrell-Davis quantile estimator, a Beta-weighted mean
    of neighbouring order statistics: a pass mixes op kinds whose costs
    differ by orders of magnitude, and the plain order statistic jumps
    between kinds when two neighbours swap places.
    """
    from scipy.stats.mstats import hdquantiles
    p50, tail = hdquantiles(latencies, prob=[0.5, tail_p])
    return {"p50_s": float(p50), "tail_s": float(tail), "tail_p": tail_p,
            "n": len(latencies),
            "beyond": sum(1 for x in latencies if x > tail)}


def run_timed(args, log) -> dict:
    from hostspeed import HostSpeed
    host = HostSpeed()
    passes, elapsed = [], 0.0
    while not passes or elapsed < args.seconds:
        index = len(passes)
        ops = workloads.make_pass(args.workload, args.seed, index)
        replay = index == 0 and args.workload == "jumps"
        total = 0.0
        for k, op in enumerate(ops):
            seconds = _measure(op, f"pass{index:03d}", k, log, replay)[0]
            log.ops[-1]["slowdown"] = host.sample(seconds)
            total += seconds
        passes.append(total)
        elapsed += total
    return {"pass_seconds": passes, "peak_rss_mb": _peak_rss_mb(),
            "slowdown": host.slowdown, "reference_units": host.units,
            "latency": latency_summary([op["seconds"] for op in log.ops],
                                       workloads.TAIL_P[args.workload])}


def run_traced(args, log) -> dict:
    from checks import strip_wall_time
    from spans import Tracer
    ops = workloads.make_pass(args.workload, args.seed, 0)
    plain = [_measure(op, "untraced", k, log) for k, op in enumerate(ops)]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_measure(op, "traced", k, log, tracer=tracer)
                  for k, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    tracer.save(log.out / "spans.npz")
    metrics = tracer.layer_metrics()
    untraced_s = sum(seconds for seconds, _, _ in plain)
    traced_s = sum(seconds for seconds, _, _ in traced)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    identical = all(a[1] is not None and b[1] is not None
                    and strip_wall_time(a[1]) == strip_wall_time(b[1])
                    and a[2] == b[2] for a, b in zip(plain, traced))
    return {"layers": metrics, "identical": identical,
            "pass_seconds": [untraced_s, traced_s]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    setup_s = _set_up(args.workload, args.seed)
    if not args.trace:
        from hostspeed import SETUP_UNITS, HostSpeed
        setup = {"setup_s": setup_s,
                 "setup_slowdown": HostSpeed().run(SETUP_UNITS)}
    if args.probe:
        print(json.dumps(setup))
        return 0
    shutil.rmtree(args.out, ignore_errors=True)
    args.out.mkdir(parents=True)
    log = Log(args.out)
    result = run_traced(args, log) if args.trace else run_timed(args, log)
    if not args.trace:
        result.update(setup)
    result.update(environment=_environment(), ops=log.ops)
    (args.out / "result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
