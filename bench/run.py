"""Benchmark entry point for the twoatom engine.

    python3 bench/run.py --workload presets --seed 1 --seconds 18 --trace 0

Run from the root of a checkout.  ``--workload all`` runs every workload
in turn.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer ones; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every op's configuration, and the output of any op that
fails its check, is written under ``bench_out/`` so it can be replayed
with ``twoatom run``.

This process never imports numpy or the engine: it pins the environment
(one BLAS/OpenMP thread, ``TWOATOM_MAX_WORKERS``) and starts the
workload process and the set-up probes with it, so the pinning holds
before numpy loads and pool workers times BLAS threads never exceed the
processor count.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "bench_out"
DEADLINE_S = 170.0
SETUP_PROBES = 2  # extra fresh-process set-ups; the workload's own is one more


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("us_per_call", "us_per_point")):
        return "us"
    if name.endswith("ms_per_traj"):
        return "ms"
    if name.endswith(("per_state", "per_sample", "overhead_frac")):
        return "ratio"
    return "count"


def _environment(trace: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    # traced runs keep jump trajectories in-process so their spans are seen
    env["TWOATOM_MAX_WORKERS"] = "1" if trace else str(len(os.sched_getaffinity(0)))
    return env


def _child(argv: list[str], env: dict, deadline: float) -> dict:
    """Run workload.py to completion (or kill its process group)."""
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *argv],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("bench: workload process exceeded the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"bench: workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 deadline: float) -> dict:
    env = _environment(trace)
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    if not trace:
        setups = [_child(argv + ["--probe"], env, deadline)
                  for _ in range(SETUP_PROBES)]
    out = OUT / f"{name}-seed{seed}-trace{trace}"
    result = _child(argv + ["--out", str(out)], env, deadline)
    ops = result["ops"]
    failed = sum(1 for op in ops if op["failures"])
    report = [f"{name}: seed {seed}, {len(ops)} ops, {failed} failed "
              f"(failed_frac {failed / len(ops):.4f}), environment "
              + " ".join(f"{k}={v}" for k, v in result["environment"].items())]
    for op in ops:
        for failure in op["failures"]:
            report.append(f"{name}: FAILED {op['op']} ({op['kind']}): {failure}")
    if trace:
        metrics = {k: (v, layer_unit(k), "") for k, v in result["layers"].items()}
        if not result["identical"]:
            report.append(f"{name}: traced CSV output differs from untraced")
        correct = failed == 0 and result["identical"]
    else:
        setups.append(result)
        report.append(f"{name}: raw setup_s " + ", ".join(
            f"{s['setup_s']:.4f} (slowdown {s['setup_slowdown']:.4f})"
            for s in setups))
        wall = statistics.median(result["pass_seconds"])
        lat = result["latency"]
        # every time metric is divided by the host slowdown measured with
        # it (hostspeed.py); the raw figures are printed beside them
        slow = result["slowdown"]
        report.append(f"{name}: host slowdown {slow:.4f} from "
                      f"{result['reference_units']} reference units; raw "
                      f"wall_s {wall:.6g}, op_p50_ms {1e3 * lat['p50_s']:.6g}, "
                      f"op_tail_ms {1e3 * lat['tail_s']:.6g}")
        tail_note = (f"p{100 * lat['tail_p']:.0f}, {lat['beyond']} of "
                     f"{lat['n']} ops beyond, host-normalised")
        metrics = {
            "setup_s": (statistics.median(s["setup_s"] / s["setup_slowdown"]
                                          for s in setups), "s",
                        f"median of {len(setups)} set-ups, host-normalised"),
            "wall_s": (wall / slow, "s", f"median of "
                       f"{len(result['pass_seconds'])} passes, host-normalised"),
            "op_p50_ms": (1e3 * lat["p50_s"] / slow, "ms",
                          f"median of {lat['n']} ops, host-normalised"),
            "op_tail_ms": (1e3 * lat["tail_s"] / slow, "ms", tail_note),
            "peak_rss_mb": (result["peak_rss_mb"], "MB",
                            "workload process plus pool workers"),
        }
        correct = failed == 0
    for key, (value, unit, note) in metrics.items():
        report.append(f"{name}: {key:<30} {value:>14.6g} {unit:<5} {note}")
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in metrics.items()},
            "report": report}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "twoatom" / "__init__.py").is_file():
        print(f"bench: no engine source at {ROOT / 'src' / 'twoatom'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        results[name] = run_workload(name, args.seed, args.seconds,
                                     args.trace, deadline)
        print("\n".join(results[name]["report"]), flush=True)
    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
