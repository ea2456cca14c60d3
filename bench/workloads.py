"""Seeded workload definitions.

Each workload is a closed loop of one client.  A pass is a list of ops;
an op is one scenario configuration sent through the public path
``parse_config -> run_scenario -> ResultTable.to_csv``.  Pass ``j`` of
seed ``s`` is drawn from its own stream, so every pass is fresh input but
any pass can be regenerated alone.

Only the standard library is used here: configurations are generated
before ``twoatom`` (and numpy) are imported, so set-up timing starts
from a clean interpreter.

Why the passes have a fixed composition: the seed draws parameter
values, never the mix of op kinds, because op costs differ by kind (a
squeezed sweep costs about twice a driven one) and a seed-dependent mix
would make medians and tails differ between seeds more than any code
change we want to see.
"""
import math
import random

WORKLOADS = ("presets", "sweep", "transient", "jumps")

PRESETS = ["fig1"] + [f"fig{k}" for k in range(3, 23)]

SWEEP_POINTS = 2001
DENSE_POINTS = (201, 401, 601, 801)
STIFF_POINTS = 11
# the undriven ensemble is larger so both jump ops cost about the same
# (0.45 s on a 2-vCPU host) and the median does not fall in a gap
# between two clusters of latencies
JUMP_TRAJECTORIES = {"driven": 256, "undriven": 352}

# Tail percentile of op latency per workload: the highest that leaves at
# least ten ops beyond it in a run at the seed commit (sweep, with four
# to eight 2001-point ops a run, cannot).  It is fixed, not recomputed
# from each run's op count, so a faster commit that fits more ops into
# a run is compared at the same percentile as its parent.  transient's
# p90 sits inside its stiff tail (3 of every 15 ops).
TAIL_P = {"presets": 0.75, "sweep": 0.75, "transient": 0.9, "jumps": 0.75}


class Op:
    """One configuration: its text (what the program receives) and the
    values the correctness oracles use."""

    def __init__(self, values: dict):
        self.values = values
        self.text = "".join(f"{key} = {_render(value)}\n"
                            for key, value in values.items())

    @property
    def kind(self) -> str:
        return self.values["scenario"]


def _render(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def make_pass(workload: str, seed: int, index: int) -> list[Op]:
    """Ops of pass ``index`` of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = _BUILDERS[workload](rng)
    rng.shuffle(ops)
    return ops


def warmup_op(workload: str) -> Op:
    """A small fixed op on the workload's code path, run untimed in set-up."""
    return {
        "presets": Op({"scenario": "figure", "figure": "fig8"}),
        "sweep": Op({"scenario": "sweep", "generator": "vacuum_drive",
                     "sweep_key": "detuning", "grid_start": -5.0,
                     "grid_stop": 5.0, "grid_points": 21, "workers": 1,
                     "separation": 0.2, "rabi": 1.0}),
        "transient": Op({"scenario": "evolve", "separation": 0.2,
                         "rabi": 1.0, "grid_stop": 5.0,
                         "grid_points": 21}),
        "jumps": Op({"scenario": "jump", "separation": 0.2, "rabi": 2.0,
                     "grid_stop": 5.0, "grid_points": 11, "n_traj": 64,
                     "seed": 1, "workers": 0}),
    }[workload]


def _pair_values(separation) -> dict:
    return {"separation": separation, "gamma1": 1.0, "gamma2": 1.0,
            "delta": 0.0, "dipole_angle": math.pi / 2}


def _drive_values(rabi, detuning) -> dict:
    # in-phase running wave: the closed-form driven steady state applies
    return {"rabi": rabi, "detuning": detuning,
            "propagation_angle": math.pi / 2, "wave_type": "running",
            "drive_phase": 0.0}


def _presets(rng) -> list[Op]:
    return [Op({"scenario": "figure", "figure": fig}) for fig in PRESETS]


_SWEEP_RANGES = {
    "detuning": lambda rng: (-rng.uniform(8.0, 12.0), rng.uniform(8.0, 12.0)),
    "rabi": lambda rng: (rng.uniform(0.05, 0.2), rng.uniform(3.0, 6.0)),
    "separation": lambda rng: (rng.uniform(0.05, 0.1), rng.uniform(1.0, 2.0)),
}


def _sweeps(rng) -> list[Op]:
    ops = []
    for generator in ("vacuum_drive", "squeezed"):
        key = rng.choice(sorted(_SWEEP_RANGES))
        start, stop = _SWEEP_RANGES[key](rng)
        n = rng.uniform(0.05, 2.0)
        values = {"scenario": "sweep", "generator": generator,
                  "sweep_key": key, "grid_start": start, "grid_stop": stop,
                  "grid_points": SWEEP_POINTS, "workers": 1,
                  **_pair_values(rng.uniform(0.05, 1.0)),
                  **_drive_values(rng.uniform(0.3, 3.0),
                                  rng.uniform(-3.0, 3.0)),
                  "n_photons": n,
                  "m_magnitude": math.sqrt(n * (n + 1.0)) * rng.uniform(0.3, 1.0),
                  "squeeze_phase": rng.uniform(0.0, 2.0 * math.pi),
                  "matching": 1.0, "solid_angle": math.pi,
                  "carrier_offset": 0.0}
        ops.append(Op(values))
    return ops


_INITIAL = ("ground", "excited_one", "excited_two", "excited_both",
            "symmetric", "antisymmetric")


def _transient_values(rng, kind, separation, stop, points, **fixed) -> dict:
    values = {"scenario": kind, **_pair_values(separation),
              **_drive_values(fixed.get("rabi", rng.uniform(0.5, 3.0)),
                              fixed.get("detuning", rng.uniform(-3.0, 3.0))),
              "grid_start": 0.0, "grid_stop": stop, "grid_points": points,
              "theta1": math.pi / 2, "theta2": math.pi / 2,
              "obs_phi": math.pi / 2}
    if kind != "g2":
        values["initial"] = fixed.get("initial", rng.choice(_INITIAL))
    if kind == "variance":
        values["alpha"] = rng.uniform(0.0, math.pi)
    return values


def _transients(rng) -> list[Op]:
    ops = []
    for kind in ("evolve", "g2", "variance"):
        for points in DENSE_POINTS:
            ops.append(Op(_transient_values(
                rng, kind, rng.uniform(0.1, 1.0), 8.0, points)))
        # near-contact tail: Omega12 ~ r^-3 makes DOP853 stiff.  With the
        # drive, detuning and initial state fixed and the horizon scaled
        # like r^3, every draw costs about the same number of steps, so
        # the seed varies r without varying the cost.
        separation = rng.uniform(0.01, 0.02)
        ops.append(Op(_transient_values(
            rng, kind, separation, 5.0 * (separation / 0.02) ** 3,
            STIFF_POINTS, rabi=1.0, detuning=0.0, initial="ground")))
    return ops


def _jumps(rng) -> list[Op]:
    common = {"scenario": "jump", "grid_start": 0.0, "grid_points": 21,
              "workers": 0}
    driven = Op({**common, "n_traj": JUMP_TRAJECTORIES["driven"],
                 **_pair_values(rng.uniform(0.1, 0.5)),
                 **_drive_values(2.0, rng.uniform(-1.0, 1.0)),
                 "initial": "ground", "grid_stop": 5.0,
                 "seed": rng.randrange(1 << 31)})
    # undriven decay from |ee>: at most two jumps, long waits
    undriven = Op({**common, "n_traj": JUMP_TRAJECTORIES["undriven"],
                   **_pair_values(rng.uniform(0.1, 0.5)),
                   **_drive_values(0.0, 0.0),
                   "initial": "excited_both", "grid_stop": 8.0,
                   "seed": rng.randrange(1 << 31)})
    return [driven, undriven]


_BUILDERS = {"presets": _presets, "sweep": _sweeps,
             "transient": _transients, "jumps": _jumps}
