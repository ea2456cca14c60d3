"""Golden outputs: every figure preset, one sweep per generator and one
table per other scenario.

The presets are compared, read-only, with the benchmark's pinned tables
in ``bench/reference/presets.npz``; the sweeps and scenarios with the
CSVs pinned by ``tests/data/golden/pin_golden.py``.  Both use the
benchmark's gate: identical columns, NaN exactly where the pin has NaN,
and elsewhere |got - pin| <= ATOL + RTOL |pin|.  A refactor that moves
any value past it fails here.  Trajectory records must match byte for
byte.
"""
import io
from pathlib import Path

import numpy as np
import pytest

from data.golden.pin_golden import HERE as GOLDEN, SCENARIOS, SWEEPS, run
from twoatom.config import parse_config
from twoatom.figures import available_figures
from twoatom.runner import run_scenario

ROOT = Path(__file__).resolve().parents[1]

ATOL, RTOL = 1e-9, 1e-7


def parse_csv(text: str) -> tuple[list[str], list[str], np.ndarray]:
    """The ``# cfg:`` lines, the header and the values of a CSV."""
    lines = text.splitlines()
    cfg = [line for line in lines if line.startswith("# cfg: ")]
    body = [line for line in lines if not line.startswith("#")]
    data = np.loadtxt(io.StringIO("\n".join(body[1:])), delimiter=",",
                      ndmin=2)
    return cfg, body[0].split(","), data


def assert_within_gate(got: np.ndarray, pin: np.ndarray) -> None:
    assert got.shape == pin.shape
    assert np.array_equal(np.isnan(got), np.isnan(pin))
    err = np.abs(np.nan_to_num(got) - np.nan_to_num(pin))
    limit = ATOL + RTOL * np.abs(np.nan_to_num(pin))
    worst = np.unravel_index(np.argmax(err - limit), err.shape)
    assert (err <= limit).all(), (
        f"row {worst[0]}, column {worst[1]}: {got[worst]!r} vs {pin[worst]!r}")


@pytest.fixture(scope="module")
def preset_pins():
    with np.load(ROOT / "bench" / "reference" / "presets.npz") as ref:
        return {key: ref[key] for key in ref.files}


@pytest.mark.parametrize("fig", available_figures())
def test_preset_matches_pin(fig, preset_pins):
    table = run_scenario(parse_config(f"scenario = figure\nfigure = {fig}\n"))
    _, columns, data = parse_csv(table.to_csv())
    assert columns == [str(c) for c in preset_pins[fig + ".columns"]]
    assert_within_gate(data, preset_pins[fig])


def assert_matches_golden(name: str) -> None:
    table = run(name)
    cfg, columns, data = parse_csv(table.to_csv())
    pin_cfg, pin_columns, pin = parse_csv((GOLDEN / f"{name}.csv").read_text())
    assert cfg == pin_cfg
    assert columns == pin_columns
    assert_within_gate(data, pin)
    pinned = {path.name[len(name) + 1:]: path.read_text()
              for path in GOLDEN.glob(f"{name}.*") if path.suffix != ".csv"}
    assert table.sidecars == pinned


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(name):
    assert_matches_golden(name)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden(name):
    assert_matches_golden(name)
