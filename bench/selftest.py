"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest bench/selftest.py

Kept out of the engine's test suite (pytest only collects this file
when it is named), because the traced runs take tens of seconds.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from twoatom.config import parse_config  # noqa: E402
from twoatom.runner import run_scenario  # noqa: E402

COUNTS = ("jumps.jumps", "jumps.survival.calls", "jumps.trajectories",
          "dynamics.evolve.points", "dynamics.steady.degenerate")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {name: [_result("--workload", name, "--seed", "7", "--trace", "1")
                   for _ in range(2)]
            for name in ("transient", "jumps")}


@pytest.mark.parametrize("name", ["transient", "jumps"])
def test_layer_counts_repeat_and_tracing_changes_nothing(traced, name):
    first, second = traced[name]
    assert first["correct"] and second["correct"]  # includes identical CSVs
    counts = [k for k in first["metrics"]
              if k.endswith(".calls") or k in COUNTS]
    assert counts
    for key in counts:
        assert first["metrics"][key] == second["metrics"][key], key
    m = first["metrics"]
    if name == "transient":  # 15 ops a pass, each evolves once; 5 are g2
        assert m["dynamics.evolve.calls"]["value"] == 15
        assert m["observables.g2_tau.calls"]["value"] == 5
        assert m["dynamics.steady.calls"]["value"] == 5
    else:  # two ensembles, each with one reference evolve
        assert m["jumps.trajectories"]["value"] == sum(
            workloads.JUMP_TRAJECTORIES.values())
        assert m["dynamics.evolve.calls"]["value"] == 2
        assert m["jumps.survival.calls"]["value"] > m["jumps.sample.calls"]["value"] > 0


def test_metric_names_match_benchmark_json(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = _result("--workload", "jumps", "--seed", "7", "--seconds", "1")
    for result, section in ((plain, "end_to_end"),
                            (traced["jumps"][0], "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert all(plain["metrics"][m["name"]]["value"] > 0
               for m in spec["end_to_end"])


def test_no_engine_source_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "presets", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _perturb(csv: str, row: int, column: int, scale: float) -> str:
    """Shift one CSV value by scale * max(|value|, 1)."""
    lines = csv.splitlines(keepends=True)
    data = [k for k, line in enumerate(lines) if not line.startswith("#")][1:]
    k = data[row]
    cells = lines[k].rstrip("\n").split(",")
    value = float(cells[column])
    cells[column] = repr(value + scale * max(abs(value), 1.0))
    lines[k] = ",".join(cells) + "\n"
    return "".join(lines)


def _small(op, **changes):
    return workloads.Op({**op.values, **changes})


def _ops():
    by_kind = {}
    for name in workloads.WORKLOADS:
        for op in workloads.make_pass(name, 3, 0):
            by_kind.setdefault(op.kind, op)
    by_kind["figure"] = workloads.Op({"scenario": "figure", "figure": "fig4"})
    by_kind["sweep"] = _small(by_kind["sweep"], grid_points=129)
    by_kind["evolve"] = _small(by_kind["evolve"], grid_points=41)
    return by_kind


@pytest.mark.parametrize("kind", ["figure", "sweep", "evolve", "g2",
                                  "variance", "jump"])
def test_gate_fails_on_perturbed_output(kind):
    op = _ops()[kind]
    table = run_scenario(parse_config(op.text))
    csv, sidecars = table.to_csv(), dict(table.sidecars)
    assert checks.check_op(op.values, csv, sidecars) == []
    if kind == "jump":
        bad = csv
        for row in range(1, op.values["grid_points"]):
            bad = _perturb(bad, row, 1, 0.25)   # mc_gg
            bad = _perturb(bad, row, 4, -0.25)  # mc_ee, sum stays 1
        assert checks.check_op(op.values, bad, sidecars)
        records = sidecars["records.jsonl"].splitlines()
        k = next(i for i, line in enumerate(records)
                 if json.loads(line)["n_jumps"])
        rec = json.loads(records[k])
        rec["jump_times"] = rec["jump_times"][::-1] + [1e9]
        records[k] = json.dumps(rec)
        broken = dict(sidecars, **{"records.jsonl": "\n".join(records) + "\n"})
        assert checks.check_op(op.values, csv, broken)
    else:
        assert checks.check_op(op.values, _perturb(csv, 5, 1, 1e-4), sidecars)
