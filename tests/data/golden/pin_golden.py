"""Pin one 201-point sweep CSV per generator.

Each sweep in ``SWEEPS`` runs through ``parse_config -> run_scenario ->
ResultTable.to_csv`` and is stored beside this script as ``<name>.csv``.
``tests/test_golden.py`` compares the current engine with them: the
``# cfg:`` block and the header exactly, the values within the gate of
the preset pins.  Rerun this only to re-pin deliberately, never to make
a failing test pass, and report the drift when you do.

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


def render(name: str) -> str:
    """CSV of the named sweep, run by the current code."""
    return run_scenario(parse_config(SWEEPS[name])).to_csv()


def main() -> None:
    for name in SWEEPS:
        (HERE / f"{name}.csv").write_text(render(name))


if __name__ == "__main__":
    main()
