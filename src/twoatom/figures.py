"""Bundled parameter presets for the standard plotted curves of the
two-atom system.

Each preset returns the raw curve data as a result table; rendering is
deliberately out of scope.  Presets are keyed fig1 and fig3..fig22 (fig2
is intentionally absent: that slot is a level diagram, not data).  Presets
with a known ambiguity in their nominal parameters record it in the
metadata note.
"""
import math

import numpy as np

from . import basis, dynamics, geometry, observables
from .config import ScenarioConfig, parse_config
from .errors import ConfigError
from .operators import ket_density, KET_EG


def _pair(separation, gamma2=1.0, delta=0.0, dipole_angle=math.pi / 2):
    return geometry.AtomPairConfig(separation=separation, gamma2=gamma2,
                                   delta=delta, dipole_angle=dipole_angle)


def _decay_intensity(pair, grid, initial=None):
    gen = dynamics.build_vacuum_drive(pair, geometry.DriveField(rabi=0.0))
    rho0 = ket_density(KET_EG) if initial is None else initial
    series = dynamics.evolve(gen, rho0, grid)
    return observables.total_intensity(series.states, pair)


def _driven_intensity(pair, drive, grid):
    gen = dynamics.build_vacuum_drive(pair, drive)
    rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
    series = dynamics.evolve(gen, rho0, grid)
    return observables.total_intensity(series.states, pair)


def _table(cols: dict, note: str):
    from .runner import _table as table
    result = table(cols)
    result.metadata["note"] = note
    return result


def _fig1():
    seps = np.linspace(0.02, 2.0, 300)
    cols = {"separation": seps}
    for tag, angle in (("perp", math.pi / 2), ("parallel", 0.0)):
        damping, shift = [], []
        for s in seps:
            p = _pair(s, dipole_angle=angle)
            damping.append(geometry.collective_damping(p))
            shift.append(geometry.dipole_dipole_shift(p))
        cols[f"damping_{tag}"] = np.array(damping)
        cols[f"shift_{tag}"] = np.array(shift)
    return _table(cols,
                  "collective damping and dipole-dipole shift vs separation")


def _fig3():
    deltas = np.linspace(-10, 10, 201)
    cols = {"delta": deltas}
    for s in (0.05, 0.1, 0.5):
        vals = []
        for d in deltas:
            p = _pair(s, delta=d)
            b = basis.build_basis(p)
            g12 = geometry.collective_damping(p)
            vals.append(0.5 * (1.0 - 2.0 * b.alpha * b.beta * g12))
        cols[f"gamma_a_r{s}"] = np.array(vals)
    return _table(cols,
                  "antisymmetric-state damping vs frequency splitting")


def _fig4():
    grid = np.linspace(0, 3, 301)
    cols = {"t": grid}
    for d in (0.0, -2.0, -3.0):
        cols[f"intensity_delta{d:g}"] = _decay_intensity(
            _pair(1 / 12, delta=d), grid)
    return _table(cols,
                  "decay intensity quantum beats vs frequency splitting; "
                  "r12 = lambda/12, perpendicular dipoles")


def _fig5():
    grid = np.linspace(0, 3, 301)
    cols = {"t": grid}
    for ratio in (1.0, 2.5, 5.0):
        cols[f"intensity_ratio{ratio:g}"] = _decay_intensity(
            _pair(1 / 12, gamma2=ratio), grid)
    return _table(cols,
                  "decay intensity quantum beats vs damping-rate ratio")


def _fig6(wave="running"):
    grid = np.linspace(0, 25, 501)
    cols = {"t": grid}
    for s in (0.2, 0.16, 0.14):
        phase = math.pi * s if wave == "standing" else 0.0
        drive = geometry.DriveField(rabi=0.2, propagation_angle=0.0,
                                    wave_type=wave, phase=phase)
        cols[f"intensity_r{s:g}"] = _driven_intensity(_pair(s), drive, grid)
    return _table(cols,
                  f"driven intensity beats, {wave} wave along the axis")


def _fig8():
    taus = np.linspace(0, 3, 301)
    cols = {"tau": taus}
    pair = _pair(0.0)
    geom = observables.DetectionGeometry(theta1=math.pi / 2)
    for om in (2.5, 10.0):
        gen = dynamics.build_dicke_dressed(geometry.DriveField(rabi=om))
        rho, _ = dynamics.steady_state(gen)
        series = observables.g2_tau(gen, rho, pair, geom, taus)
        cols[f"g2_rabi{om:g}"] = series.values
    return _table(cols,
                  "dressed-model g2 of the strongly driven small sample")


def _sweep_detuning(separations, rabi, outputs, note, detunings=None,
                    propagation_angle=math.pi / 2):
    detunings = np.linspace(-15, 15, 201) if detunings is None else detunings
    cols = {"detuning": detunings}
    drives = [geometry.DriveField(rabi=rabi, detuning=d,
                                  propagation_angle=propagation_angle)
              for d in detunings]
    for tag, pair in [(f"r{s:g}", _pair(s)) for s in separations]:
        states, _ = dynamics.steady_states(
            dynamics.build_vacuum_drive(pair, drive) for drive in drives)
        for name in outputs:
            cols[f"{name}_{tag}"] = _output_column(name, states, pair)
    return _table(cols, note)


_POPULATIONS = {"pop_ss": 1, "pop_aa": 2, "pop_ee": 3}
_QUADRATURES = {"variance0": 0.0, "variance_pi2": math.pi / 2,
                "variance_3pi4": 3 * math.pi / 4}


def _output_column(name, states, pair):
    geom = observables.DetectionGeometry(theta1=math.pi / 2)
    if name == "g2zero":
        return np.array([observables.g2_zero(rho, pair, geom)
                         for rho in states])
    if name in _QUADRATURES:
        return observables.quadrature_variance(states, pair,
                                               _QUADRATURES[name], geom)
    return basis.collective_populations(states)[:, _POPULATIONS[name]]


def _fig9():
    return _sweep_detuning((10.0, 0.15, 0.08), 0.5, ["g2zero"],
                           "equal-time photon correlation vs detuning; "
                           "single detector perpendicular to the axis")


def _fig10():
    grid = np.linspace(0, 0.4, 801)
    cols = {"t": grid}
    pair = _pair(0.0)
    geom = observables.DetectionGeometry(theta1=math.pi / 2)
    for om in (100.0, 200.0):
        gen = dynamics.build_dicke_dressed(geometry.DriveField(rabi=om))
        series = dynamics.evolve(gen, np.diag([1.0, 0, 0, 0]).astype(complex),
                                 grid)
        cols[f"variance_rabi{om:g}"] = observables.quadrature_variance(
            series.states, pair, 0.0, geom)
    return _table(cols,
                  "transient in-phase variance of the driven small sample")


def _fig11():
    return _sweep_detuning((10.0, 0.15, 0.08), 0.5, ["variance0"],
                           "stationary in-phase variance vs detuning")


def _fig12():
    return _sweep_detuning((0.05,), 3.0, ["variance_pi2", "variance_3pi4"],
                           "stationary variance near the two-photon "
                           "resonance for two quadrature phases",
                           detunings=np.linspace(-40, 40, 321))


def _small_sample_generator(gamma1, gamma2, delta, omega12, rabi, detuning):
    """Idealized small-sample pair: contact-value collective damping with
    the coherent coupling kept as a free parameter, as in the selective
    excitation presets."""
    pair = geometry.AtomPairConfig(separation=0.0, gamma1=gamma1,
                                   gamma2=gamma2, delta=delta)
    drive = geometry.DriveField(rabi=rabi, detuning=detuning)
    return dynamics._vacuum(pair, drive, omega12)


_SELECTIVE_NOTE = ("small-sample idealization: collective damping at its "
                   "contact value with the coherent coupling kept as an "
                   "independent parameter, fixed at ten linewidths")


def _selective_sweep(cases, rabi, outputs, detunings):
    cols = {"detuning": detunings}
    for tag, gamma2, delta in cases:
        states, _ = dynamics.steady_states(
            _small_sample_generator(1.0, gamma2, delta, 10.0, rabi, d)
            for d in detunings)
        pops = basis.collective_populations(states)
        for name in outputs:
            cols[f"{name}_{tag}"] = pops[:, _POPULATIONS[name]]
    return cols


def _fig13():
    cols = _selective_sweep([("split", 1.0, 1.0), ("rates", 2.0, 0.0)],
                            10.0, ["pop_aa"], np.linspace(-25, 25, 501))
    return _table(cols,
                  "antisymmetric-state population vs detuning for two kinds "
                  "of nonidentical atoms; " + _SELECTIVE_NOTE)


def _fig14():
    cols = _selective_sweep([("split", 1.0, 1.0)], 10.0,
                            ["pop_ee", "pop_ss"], np.linspace(-25, 25, 501))
    return _table(cols,
                  "upper and symmetric populations vs detuning; "
                  + _SELECTIVE_NOTE)


def _fig15():
    detunings = np.linspace(-25, 25, 501)
    cols = {"detuning": detunings}
    for om in (1.0, 5.0, 20.0):
        sub = _selective_sweep([("split", 1.0, 1.0)], om, ["pop_aa"],
                               detunings)
        cols[f"pop_aa_rabi{om:g}"] = sub["pop_aa_split"]
    return _table(cols,
                  "antisymmetric-state population vs detuning and drive; "
                  + _SELECTIVE_NOTE)


def _fig16():
    return _sweep_detuning((0.08,), 2.5, ["pop_ee", "pop_aa", "pop_ss"],
                           "collective populations vs detuning, drive along "
                           "the interatomic axis", propagation_angle=0.0)


def _fig17():
    detunings = np.linspace(-15, 15, 201)
    cols = {"detuning": detunings}
    pair = _pair(0.1)
    for tag, angle in (("perp", math.pi / 2), ("quarter", math.pi / 4),
                       ("axial", 0.0)):
        states, _ = dynamics.steady_states(dynamics.build_vacuum_drive(
            pair, geometry.DriveField(rabi=0.5, detuning=d,
                                      propagation_angle=angle))
            for d in detunings)
        cols[f"visibility_{tag}"] = observables.visibility(states)
    return _table(cols,
                  "fringe visibility vs detuning; nominal drive quoted both "
                  "as rabi = 0.5 and 0.25 for this configuration, 0.5 kept")


def _fig18():
    return _sweep_detuning((0.1,), 0.5, ["pop_ss", "pop_aa"],
                           "symmetric/antisymmetric populations for the "
                           "axial drive of the visibility preset; nominal "
                           "drive quoted both as rabi = 0.5 and 0.25, "
                           "0.5 kept", propagation_angle=0.0)


def _squeezed_sweep(n_eff, quantum, columns=("pop_ee", "pop_aa", "pop_ss")):
    seps = np.linspace(0.02, 1.5, 149)
    m = math.sqrt(n_eff * (n_eff + 1.0)) if quantum else n_eff
    res = geometry.SqueezedReservoir(n_photons=n_eff, m_magnitude=m)
    states, _ = dynamics.steady_states(
        dynamics.build_squeezed(_pair(s), res) for s in seps)
    out = {}
    for name in columns:
        if name == "purity":
            out[name] = observables.purity(states)
        elif name == "visibility":
            out[name] = observables.visibility(states)
        else:
            out[name] = basis.collective_populations(states)[
                :, _POPULATIONS[name]]
    return seps, out


def _fig19():
    seps = None
    cols = {}
    for tag, quantum in (("quantum", True), ("classical", False)):
        seps, out = _squeezed_sweep(0.05, quantum)
        for name, vals in out.items():
            cols[f"{name}_{tag}"] = vals
    cols = {"separation": seps, **cols}
    return _table(cols,
                  "stationary collective populations vs separation in "
                  "quantum and classical squeezed baths")


def _fig20():
    cols = {}
    seps = None
    for n in (0.05, 0.5, 5.0):
        seps, out = _squeezed_sweep(n, True, columns=("purity",))
        cols[f"purity_n{n:g}"] = out["purity"]
    cols = {"separation": seps, **cols}
    return _table(cols,
                  "stationary purity vs separation under ideal quantum "
                  "squeezing")


def _fig21():
    from .analytic import entangled_eigenstates
    seps = np.linspace(0.02, 1.5, 149)
    cols = {"separation": seps}
    for tag, quantum in (("quantum", True), ("classical", False)):
        n = 0.5
        m = math.sqrt(n * (n + 1.0)) if quantum else n
        res = geometry.SqueezedReservoir(n_photons=n, m_magnitude=m)
        states, _ = dynamics.steady_states(
            dynamics.build_squeezed(_pair(s), res) for s in seps)
        pops = np.array([[population for _, population, _ in
                          entangled_eigenstates(rc)] for rc in
                         basis.basis_transform("to_collective", states)])
        for k, label in enumerate(("P1", "P2", "P3", "P4")):
            cols[f"{label}_{tag}"] = pops[:, k]
    return _table(cols,
                  "populations of the entangled eigenstates vs separation")


def _fig22():
    cols = {}
    seps = None
    for tag, quantum in (("quantum", True), ("classical", False)):
        for n in (0.05, 0.5, 5.0):
            seps, out = _squeezed_sweep(n, quantum, columns=("visibility",))
            cols[f"visibility_{tag}_n{n:g}"] = out["visibility"]
    cols = {"separation": seps, **cols}
    return _table(cols,
                  "fringe visibility vs separation in quantum and classical "
                  "squeezed baths")


_FIGURES = {
    "fig1": _fig1,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": lambda: _fig6("running"),
    "fig7": lambda: _fig6("standing"),
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig16": _fig16,
    "fig17": _fig17,
    "fig18": _fig18,
    "fig19": _fig19,
    "fig20": _fig20,
    "fig21": _fig21,
    "fig22": _fig22,
}


def available_figures() -> list:
    return sorted(_FIGURES, key=lambda s: int(s[3:]))


def figure_preset(figure_id: str) -> ScenarioConfig:
    """Configuration that regenerates the given preset."""
    if figure_id not in _FIGURES:
        raise ConfigError(f"unknown figure '{figure_id}'; available: "
                          f"{', '.join(available_figures())}")
    return parse_config(f"scenario = figure\nfigure = {figure_id}\n")


def run_figure(figure_id: str):
    """Compute the curve data behind the given preset."""
    if figure_id not in _FIGURES:
        raise ConfigError(f"unknown figure '{figure_id}'; available: "
                          f"{', '.join(available_figures())}")
    return _FIGURES[figure_id]()
