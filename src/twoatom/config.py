"""Flat key = value scenario configuration for the command-line front end.

The format is line oriented: one ``key = value`` pair per line, ``#``
starts a comment, blank lines are ignored.  Parsing resolves every
default, so a serialized configuration always records the complete
parameter set that produced a result.
"""
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import geometry
from .errors import ConfigError

SCENARIOS = ("steady", "evolve", "g2", "variance", "jump", "visibility",
             "sweep", "figure")
GENERATORS = ("vacuum_drive", "squeezed", "dicke_dressed", "bad_cavity")
INITIAL_STATES = ("ground", "excited_one", "excited_two", "excited_both",
                  "symmetric", "antisymmetric")
SERIES_SCENARIOS = ("evolve", "g2", "variance", "jump", "sweep")
# numeric keys that no generator reads: a sweep over one of them would
# return the same steady state on every row
UNSWEEPABLE = ("rtol", "atol", "grid_start", "grid_stop", "theta1", "theta2",
               "obs_phi", "alpha")

# key -> (type, default); None means "required for the scenarios using it"
_SCHEMA = {
    "scenario": (str, None),
    # pair
    "separation": (float, 0.2),
    "gamma1": (float, 1.0),
    "gamma2": (float, 1.0),
    "delta": (float, 0.0),
    "dipole_angle": (float, math.pi / 2),
    # drive
    "rabi": (float, 0.0),
    "detuning": (float, 0.0),
    "propagation_angle": (float, math.pi / 2),
    "wave_type": (str, "running"),
    "drive_phase": (float, 0.0),
    # squeezed reservoir
    "n_photons": (float, 0.0),
    "m_magnitude": (float, 0.0),
    "squeeze_phase": (float, 0.0),
    "matching": (float, 1.0),
    "solid_angle": (float, math.pi),
    "carrier_offset": (float, 0.0),
    # bad cavity
    "cavity_coupling": (float, 1.0),
    "cavity_rate": (float, 100.0),
    "cavity_drive": (float, 0.0),
    # engine / state
    "generator": (str, "vacuum_drive"),
    "initial": (str, "ground"),
    # detection
    "theta1": (float, math.pi / 2),
    "theta2": (float, math.pi / 2),
    "obs_phi": (float, math.pi / 2),
    "alpha": (float, 0.0),
    # grid
    "grid_start": (float, 0.0),
    "grid_stop": (float, 10.0),
    "grid_points": (int, 101),
    # sweep
    "sweep_key": (str, "detuning"),
    # jump ensemble
    "n_traj": (int, 1000),
    "seed": (int, 0),
    "workers": (int, 0),  # read by nothing; kept so older tables parse
    "max_jumps": (int, 1_000_000),
    # figure preset
    "figure": (str, ""),
    # tolerances: propagation is exact and reads neither; they are kept
    # only so that older tables still parse and replay
    "rtol": (float, 1e-9),
    "atol": (float, 1e-12),
    # output
    "out": (str, ""),
}


@dataclass
class ScenarioConfig:
    """Fully resolved scenario parameters."""
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        return self.values.get(key, default)

    def _build(self, cls, **keys):
        """``cls`` with each field read from its namesake key, or renamed."""
        return cls(**{f.name: self[keys.get(f.name, f.name)]
                      for f in fields(cls)})

    def pair(self) -> geometry.AtomPairConfig:
        return self._build(geometry.AtomPairConfig)

    def drive(self) -> geometry.DriveField:
        return self._build(geometry.DriveField, phase="drive_phase")

    def reservoir(self) -> geometry.SqueezedReservoir:
        return self._build(geometry.SqueezedReservoir)

    def grid(self):
        return np.linspace(self["grid_start"], self["grid_stop"],
                           self["grid_points"])


def _coerce(key: str, raw: str):
    kind, _ = _SCHEMA[key]
    raw = raw.strip()
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"value for '{key}' is not a number: {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"value for '{key}' is not finite: {raw!r}")
    return value


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a configuration; all defaults get resolved."""
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        values[key] = _coerce(key, raw)
    return _validate(ScenarioConfig(values=values))


def _validate(cfg: ScenarioConfig) -> ScenarioConfig:
    scenario = cfg.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, "
                          f"got {scenario!r}")
    if cfg["generator"] not in GENERATORS:
        raise ConfigError(f"generator must be one of {GENERATORS}")
    if cfg["initial"] not in INITIAL_STATES:
        raise ConfigError(f"initial must be one of {INITIAL_STATES}")
    if scenario in SERIES_SCENARIOS and cfg["grid_points"] < 2:
        raise ConfigError("grid_points must be >= 2 for series outputs")
    if scenario == "sweep":
        key = cfg["sweep_key"]
        if key not in _SCHEMA or _SCHEMA[key][0] is not float:
            raise ConfigError(f"sweep_key must name a numeric parameter, "
                              f"got '{key}'")
        if key in UNSWEEPABLE:
            raise ConfigError(f"sweep_key '{key}' is read by no generator, "
                              f"so every row would be the same")
    if scenario == "figure" and not cfg["figure"]:
        raise ConfigError("figure scenario requires a 'figure' id")
    if cfg["n_traj"] < 1:
        raise ConfigError("n_traj must satisfy n_traj >= 1")
    if not 0 <= cfg["seed"] < 2 ** 63:
        raise ConfigError("seed must satisfy 0 <= seed < 2**63")
    # physics invariants are owned by the domain types; surface their
    # message under the configuration error contract
    try:
        cfg.pair()
        cfg.drive()
        cfg.reservoir()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render the fully resolved configuration, one key per line."""
    lines = [f"{key} = {cfg.values[key]}" for key in sorted(cfg.values)]
    return "\n".join(lines) + "\n"
