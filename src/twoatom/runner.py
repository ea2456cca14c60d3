"""Scenario dispatch: turn a parsed configuration into a result table.

Tables carry their fully resolved configuration in the metadata block, so
any emitted CSV can be replayed bit-identically.
"""
from dataclasses import dataclass, field

import numpy as np

from . import __version__, basis, dynamics, jumps, observables
from .config import ScenarioConfig, parse_config, serialize_config
from .errors import ConfigError
from .operators import KET_A, KET_EG, KET_GE, KET_S, ket_density

_INITIAL_KETS = {
    "ground": np.array([1, 0, 0, 0], dtype=complex),
    "excited_one": KET_EG,
    "excited_two": KET_GE,
    "excited_both": np.array([0, 0, 0, 1], dtype=complex),
    "symmetric": KET_S,
    "antisymmetric": KET_A,
}


@dataclass
class ResultTable:
    """Rectangular numeric results plus reproduction metadata.

    Sidecar payloads (for example trajectory records) ride along without
    entering the CSV rendering; the CLI writes them to companion files.
    """
    columns: list
    rows: list
    metadata: dict = field(default_factory=dict)
    sidecars: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])

    def to_csv(self) -> str:
        lines = []
        for key in sorted(self.metadata):
            if key == "config":
                for cfg_line in self.metadata[key].strip().splitlines():
                    lines.append(f"# cfg: {cfg_line}")
            else:
                lines.append(f"# {key} = {self.metadata[key]}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def parse_table_config(csv_text: str) -> ScenarioConfig:
    """Recover the configuration embedded in an emitted CSV."""
    cfg_lines = [line[len("# cfg: "):] for line in csv_text.splitlines()
                 if line.startswith("# cfg: ")]
    if not cfg_lines:
        raise ConfigError("no embedded configuration found")
    return parse_config("\n".join(cfg_lines))


def initial_state(cfg: ScenarioConfig) -> np.ndarray:
    return ket_density(_INITIAL_KETS[cfg["initial"]])


def build_generator(cfg: ScenarioConfig) -> dynamics.Generator:
    kind = cfg["generator"]
    if kind == "vacuum_drive":
        return dynamics.build_vacuum_drive(cfg.pair(), cfg.drive())
    if kind == "squeezed":
        return dynamics.build_squeezed(cfg.pair(), cfg.reservoir())
    if kind == "dicke_dressed":
        return dynamics.build_dicke_dressed(cfg.drive())
    return dynamics.build_bad_cavity(cfg.pair(), cfg["cavity_coupling"],
                                     cfg["cavity_rate"], cfg["cavity_drive"])


def _table(columns: dict) -> ResultTable:
    """Result table whose rows read across equally long columns."""
    rows = np.column_stack([np.ravel(c) for c in columns.values()]).tolist()
    return ResultTable(columns=list(columns), rows=rows)


def _state_columns(states: np.ndarray, pair) -> dict:
    """Observables of an (N, 4, 4) stack of states, one column each; a
    dark state's visibility is NaN."""
    pops = basis.collective_populations(states)
    return {
        "rho_gg": pops[:, 0], "rho_ss": pops[:, 1],
        "rho_aa": pops[:, 2], "rho_ee": pops[:, 3],
        "intensity": observables.total_intensity(states, pair),
        "visibility": observables.visibility(states),
        "purity": observables.purity(states),
        "spin_squared": observables.total_spin_squared(states),
    }


def _run_steady(cfg: ScenarioConfig) -> ResultTable:
    gen = build_generator(cfg)
    rho, degenerate = dynamics.steady_state(gen)
    rc = basis.basis_transform("to_collective", rho)
    table = _table({
        **_state_columns(rho[None], cfg.pair()),
        "re_rho_sg": rc[1, 0].real, "im_rho_sg": rc[1, 0].imag,
        "re_rho_es": rc[3, 1].real, "im_rho_es": rc[3, 1].imag,
        "re_rho_eg": rc[3, 0].real, "im_rho_eg": rc[3, 0].imag,
    })
    table.metadata["degenerate"] = int(degenerate)
    return table


def _run_evolve(cfg: ScenarioConfig) -> ResultTable:
    gen = build_generator(cfg)
    series = dynamics.evolve(gen, initial_state(cfg), cfg.grid())
    cols = _state_columns(series.states, cfg.pair())
    return _table({"t": series.times, **{
        key: cols[key] for key in ("rho_gg", "rho_ss", "rho_aa", "rho_ee",
                                   "intensity", "purity", "spin_squared")}})


def _run_g2(cfg: ScenarioConfig) -> ResultTable:
    gen = build_generator(cfg)
    rho, degenerate = dynamics.steady_state(gen)
    geom = observables.DetectionGeometry(theta1=cfg["theta1"],
                                         theta2=cfg["theta2"],
                                         phi=cfg["obs_phi"])
    series = observables.g2_tau(gen, rho, cfg.pair(), geom, cfg.grid())
    table = _table({"tau": series.taus, "g2": series.values})
    table.metadata["degenerate"] = int(degenerate)
    return table


def _run_variance(cfg: ScenarioConfig) -> ResultTable:
    gen = build_generator(cfg)
    series = dynamics.evolve(gen, initial_state(cfg), cfg.grid())
    geom = observables.DetectionGeometry(theta1=cfg["theta1"],
                                         phi=cfg["obs_phi"])
    return _table({"t": series.times,
                   "variance": observables.quadrature_variance(
                       series.states, cfg.pair(), cfg["alpha"], geom)})


def _run_jump(cfg: ScenarioConfig) -> ResultTable:
    gen = build_generator(cfg)
    ensemble = jumps.run_trajectories(gen, initial_state(cfg),
                                      cfg["n_traj"], cfg["seed"], cfg.grid(),
                                      max_jumps=cfg["max_jumps"])
    reference = dynamics.evolve(gen, initial_state(cfg), cfg.grid())
    columns = {"t": ensemble.times}
    for kind, pops in (("mc", np.einsum("kii->ki", ensemble.mean_states)),
                       ("stderr", ensemble.population_stderr),
                       ("me", np.einsum("kii->ki", reference.states))):
        # product-basis (tensor) ordering
        columns.update({f"{kind}_{s}": np.real(pops[:, j]) for j, s
                        in enumerate(("gg", "ge", "eg", "ee"))})
    table = _table(columns)
    table.metadata["n_trajectories"] = ensemble.n_trajectories
    table.sidecars.update(ensemble.render_records())
    return table


def _run_sweep(cfg: ScenarioConfig) -> ResultTable:
    key = cfg["sweep_key"]
    grid = cfg.grid()
    # one stacked model over the swept values; a key the generator does
    # not read leaves it unstacked, and its state holds on every row
    stacked = ScenarioConfig(values={**cfg.values, key: grid})
    states, _ = dynamics.steady_states(build_generator(stacked))
    states = np.broadcast_to(states, grid.shape + (4, 4))
    return _table({key: grid, **_state_columns(states, stacked.pair())})


def _run_figure(cfg: ScenarioConfig) -> ResultTable:
    from .figures import run_figure
    return run_figure(cfg["figure"])


_RUNNERS = {
    "steady": _run_steady,
    "evolve": _run_evolve,
    "g2": _run_g2,
    "variance": _run_variance,
    "visibility": _run_steady,
    "jump": _run_jump,
    "sweep": _run_sweep,
    "figure": _run_figure,
}


def run_scenario(cfg: ScenarioConfig) -> ResultTable:
    """Execute a validated configuration and return its result table,
    whose CSV rendering is byte-identical on replay."""
    table = _RUNNERS[cfg["scenario"]](cfg)
    table.metadata.setdefault("config", serialize_config(cfg))
    table.metadata["engine_version"] = __version__
    return table
