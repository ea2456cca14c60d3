"""Pin the jump records of the criterion-8 configuration.

Runs the first 64 trajectory streams of the acceptance suite's
criterion-8 ensemble (separation 0.2, rabi 2, seed 2024, 20 grid points
to t = 5, starting in |gg>) and stores each stream's jump times and
channels in ``jump_records_2024.json``.  The committed file was produced
before jump sampling was vectorised; rerun this only to re-pin
deliberately, never to make a failing test pass.

    PYTHONPATH=src python3 tests/data/pin_jump_records.py
"""
import json
from pathlib import Path

import numpy as np

from twoatom import dynamics, geometry, jumps

PINNED = Path(__file__).with_name("jump_records_2024.json")
CONFIG = {"separation": 0.2, "rabi": 2.0, "seed": 2024, "n_traj": 64,
          "grid_stop": 5.0, "grid_points": 20}


def ensemble():
    """The pinned streams, run by the current code."""
    gen = dynamics.build_vacuum_drive(
        geometry.AtomPairConfig(separation=CONFIG["separation"]),
        geometry.DriveField(rabi=CONFIG["rabi"]))
    rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
    grid = np.linspace(0.0, CONFIG["grid_stop"], CONFIG["grid_points"])
    return jumps.run_trajectories(gen, rho0, CONFIG["n_traj"],
                                  seed=CONFIG["seed"], grid=grid)


def main() -> None:
    records = [{"index": int(r.index),
                "jump_times": [float(t) for t in r.jump_times],
                "channels": [int(c) for c in r.channels]}
               for r in ensemble().records]
    PINNED.write_text(json.dumps({**CONFIG, "records": records}, indent=1)
                      + "\n")


if __name__ == "__main__":
    main()
