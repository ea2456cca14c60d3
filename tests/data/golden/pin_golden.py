"""Pin one 201-point sweep CSV per generator and one CSV per scenario.

Each configuration in ``SWEEPS`` and ``SCENARIOS`` runs through
``parse_config -> run_scenario -> ResultTable.to_csv`` and is stored
beside this script as ``<name>.csv``; the jump ensemble's trajectory
records are stored as ``<name>.records.jsonl`` and ``<name>.records.txt``.
``tests/test_golden.py`` compares the current engine with them: the
``# cfg:`` block and the header exactly, the values within the gate of
the preset pins, the records byte for byte.  Rerun this only to re-pin
deliberately, never to make a failing test pass, and report the drift
when you do.

    PYTHONPATH=src python3 tests/data/golden/pin_golden.py
"""
from pathlib import Path

from twoatom.config import parse_config
from twoatom.runner import run_scenario

HERE = Path(__file__).resolve().parent
_SWEEP = "scenario = sweep\ngrid_points = 201\n"

SWEEPS = {
    "vacuum_drive_detuning": _SWEEP + """\
generator = vacuum_drive
sweep_key = detuning
grid_start = -10.0
grid_stop = 10.0
separation = 0.1
gamma2 = 1.5
delta = 0.5
rabi = 1.0
propagation_angle = 0.7
wave_type = standing
drive_phase = 0.3
""",
    "squeezed_separation": _SWEEP + """\
generator = squeezed
sweep_key = separation
grid_start = 0.0
grid_stop = 1.5
n_photons = 0.5
m_magnitude = 0.8
squeeze_phase = 0.4
solid_angle = 2.5
carrier_offset = 0.3
""",
    "squeezed_delta": _SWEEP + """\
generator = squeezed
sweep_key = delta
grid_start = -2.0
grid_stop = 2.0
separation = 0.3
dipole_angle = 0.4
n_photons = 0.5
m_magnitude = 0.6
""",
    "dicke_dressed_rabi": _SWEEP + """\
generator = dicke_dressed
sweep_key = rabi
grid_start = 0.5
grid_stop = 20.0
""",
    "bad_cavity_cavity_drive": _SWEEP + """\
generator = bad_cavity
sweep_key = cavity_drive
grid_start = 0.0
grid_stop = 50.0
separation = 0.4
gamma2 = 0.8
cavity_coupling = 2.0
cavity_rate = 50.0
""",
}


SCENARIOS = {
    "steady_squeezed": """\
scenario = steady
generator = squeezed
separation = 0.25
dipole_angle = 1.1
n_photons = 0.7
m_magnitude = 0.9
squeeze_phase = 0.6
solid_angle = 3.0
""",
    "evolve_vacuum_drive": """\
scenario = evolve
separation = 0.15
gamma2 = 1.3
delta = 0.4
rabi = 1.5
detuning = -0.7
wave_type = standing
initial = excited_both
grid_stop = 8.0
grid_points = 161
""",
    "g2_vacuum_drive": """\
scenario = g2
separation = 0.3
rabi = 2.0
detuning = 0.5
theta1 = 1.2
theta2 = 0.8
obs_phi = 0.4
grid_stop = 6.0
grid_points = 121
""",
    "variance_dicke_dressed": """\
scenario = variance
generator = dicke_dressed
rabi = 3.0
detuning = 0.5
initial = symmetric
alpha = 0.9
obs_phi = 0.3
grid_stop = 5.0
grid_points = 101
""",
    "visibility_bad_cavity": """\
scenario = visibility
generator = bad_cavity
separation = 0.35
cavity_coupling = 2.5
cavity_rate = 40.0
cavity_drive = 12.0
""",
    "jump_vacuum_drive": """\
scenario = jump
separation = 0.2
rabi = 2.0
detuning = 0.3
grid_stop = 5.0
grid_points = 21
n_traj = 48
seed = 77
""",
}

CASES = {**SWEEPS, **SCENARIOS}


def run(name: str):
    """Result table of the named configuration, run by the current code."""
    return run_scenario(parse_config(CASES[name]))


def main() -> None:
    for name in CASES:
        table = run(name)
        (HERE / f"{name}.csv").write_text(table.to_csv())
        for sidecar, payload in table.sidecars.items():
            (HERE / f"{name}.{sidecar}").write_text(payload)


if __name__ == "__main__":
    main()
