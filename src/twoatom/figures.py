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


_GROUND = np.diag([1.0, 0, 0, 0]).astype(complex)
_PERPENDICULAR = observables.DetectionGeometry(theta1=math.pi / 2)


def _intensity(pair, grid, drive=geometry.DriveField(rabi=0.0),
               rho0=ket_density(KET_EG)):
    series = dynamics.evolve(dynamics.build_vacuum_drive(pair, drive), rho0,
                             grid)
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
        p = _pair(seps, dipole_angle=angle)
        cols[f"damping_{tag}"] = geometry.collective_damping(p)
        cols[f"shift_{tag}"] = geometry.dipole_dipole_shift(p)
    return _table(cols,
                  "collective damping and dipole-dipole shift vs separation")


def _fig3():
    deltas = np.linspace(-10, 10, 201)
    cols = {"delta": deltas}
    for s in (0.05, 0.1, 0.5):
        p = _pair(s, delta=deltas)
        b = basis.build_basis(p)
        cols[f"gamma_a_r{s}"] = 0.5 * (
            1.0 - 2.0 * b.alpha * b.beta * geometry.collective_damping(p))
    return _table(cols,
                  "antisymmetric-state damping vs frequency splitting")


def _fig4():
    grid = np.linspace(0, 3, 301)
    cols = {"t": grid}
    for d in (0.0, -2.0, -3.0):
        cols[f"intensity_delta{d:g}"] = _intensity(_pair(1 / 12, delta=d),
                                                   grid)
    return _table(cols,
                  "decay intensity quantum beats vs frequency splitting; "
                  "r12 = lambda/12, perpendicular dipoles")


def _fig5():
    grid = np.linspace(0, 3, 301)
    cols = {"t": grid}
    for ratio in (1.0, 2.5, 5.0):
        cols[f"intensity_ratio{ratio:g}"] = _intensity(
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
        cols[f"intensity_r{s:g}"] = _intensity(_pair(s), grid, drive, _GROUND)
    return _table(cols,
                  f"driven intensity beats, {wave} wave along the axis")


def _fig8():
    taus = np.linspace(0, 3, 301)
    cols = {"tau": taus}
    for om in (2.5, 10.0):
        gen = dynamics.build_dicke_dressed(geometry.DriveField(rabi=om))
        rho, _ = dynamics.steady_state(gen)
        cols[f"g2_rabi{om:g}"] = observables.g2_tau(
            gen, rho, _pair(0.0), _PERPENDICULAR, taus).values
    return _table(cols,
                  "dressed-model g2 of the strongly driven small sample")


def _sweep_detuning(separations, rabi, outputs, note, detunings=None,
                    propagation_angle=math.pi / 2):
    detunings = np.linspace(-15, 15, 201) if detunings is None else detunings
    cols = {"detuning": detunings}
    drive = geometry.DriveField(rabi=rabi, detuning=detunings,
                                propagation_angle=propagation_angle)
    for tag, pair in [(f"r{s:g}", _pair(s)) for s in separations]:
        states, _ = dynamics.steady_states(
            dynamics.build_vacuum_drive(pair, drive))
        for name in outputs:
            cols[f"{name}_{tag}"] = _output_column(name, states, pair)
    return _table(cols, note)


_POPULATIONS = {"pop_ss": 1, "pop_aa": 2, "pop_ee": 3}
_QUADRATURES = {"variance0": 0.0, "variance_pi2": math.pi / 2,
                "variance_3pi4": 3 * math.pi / 4}


def _output_column(name, states, pair):
    if name == "g2zero":
        return observables.g2_zero(states, pair, _PERPENDICULAR)
    if name in _QUADRATURES:
        return observables.quadrature_variance(
            states, pair, _QUADRATURES[name], _PERPENDICULAR)
    return basis.collective_populations(states)[:, _POPULATIONS[name]]


def _fig10():
    grid = np.linspace(0, 0.4, 801)
    cols = {"t": grid}
    for om in (100.0, 200.0):
        gen = dynamics.build_dicke_dressed(geometry.DriveField(rabi=om))
        series = dynamics.evolve(gen, _GROUND, grid)
        cols[f"variance_rabi{om:g}"] = observables.quadrature_variance(
            series.states, _pair(0.0), 0.0, _PERPENDICULAR)
    return _table(cols,
                  "transient in-phase variance of the driven small sample")


_SELECTIVE_NOTE = ("small-sample idealization: collective damping at its "
                   "contact value with the coherent coupling kept as an "
                   "independent parameter, fixed at ten linewidths")
_SELECTIVE_DETUNINGS = np.linspace(-25, 25, 501)


def _selective_populations(gamma2, delta, rabi):
    """Collective populations of the small sample over _SELECTIVE_DETUNINGS
    (last axis), for each rabi given (leading axes), as one stacked model."""
    drive = geometry.DriveField(rabi=rabi, detuning=_SELECTIVE_DETUNINGS)
    states, _ = dynamics.steady_states(dynamics._vacuum(
        _pair(0.0, gamma2=gamma2, delta=delta), drive, 10.0))
    return basis.collective_populations(states)


def _fig13():
    split, rates = _selective_populations(np.array([[1.0], [2.0]]),
                                          np.array([[1.0], [0.0]]), 10.0)
    cols = {"detuning": _SELECTIVE_DETUNINGS, "pop_aa_split": split[:, 2],
            "pop_aa_rates": rates[:, 2]}
    return _table(cols,
                  "antisymmetric-state population vs detuning for two kinds "
                  "of nonidentical atoms; " + _SELECTIVE_NOTE)


def _fig14():
    pops = _selective_populations(1.0, 1.0, 10.0)
    cols = {"detuning": _SELECTIVE_DETUNINGS, "pop_ee_split": pops[:, 3],
            "pop_ss_split": pops[:, 1]}
    return _table(cols,
                  "upper and symmetric populations vs detuning; "
                  + _SELECTIVE_NOTE)


def _fig15():
    rabis = (1.0, 5.0, 20.0)
    pops = _selective_populations(1.0, 1.0, np.array(rabis)[:, None])
    cols = {"detuning": _SELECTIVE_DETUNINGS,
            **{f"pop_aa_rabi{om:g}": p for om, p in zip(rabis, pops[..., 2])}}
    return _table(cols,
                  "antisymmetric-state population vs detuning and drive; "
                  + _SELECTIVE_NOTE)


def _fig17():
    detunings = np.linspace(-15, 15, 201)
    angles = {"perp": math.pi / 2, "quarter": math.pi / 4, "axial": 0.0}
    drive = geometry.DriveField(
        rabi=0.5, detuning=detunings,
        propagation_angle=np.reshape(list(angles.values()), (-1, 1)))
    visibility = observables.visibility(dynamics.steady_states(
        dynamics.build_vacuum_drive(_pair(0.1), drive))[0])
    cols = {"detuning": detunings,
            **{f"visibility_{tag}": v for tag, v in zip(angles, visibility)}}
    return _table(cols,
                  "fringe visibility vs detuning; nominal drive quoted both "
                  "as rabi = 0.5 and 0.25 for this configuration, 0.5 kept")


_SQUEEZED_SEPARATIONS = np.linspace(0.02, 1.5, 149)


def _squeezed_states(n_eff, quantum):
    """Stationary states over _SQUEEZED_SEPARATIONS, with a leading axis for
    several n_eff, in an ideal quantum (m^2 = n(n+1)) or classical (m = n)
    squeezed bath."""
    n = np.asarray(n_eff, dtype=float)[..., None]
    m = np.sqrt(n * (n + 1.0)) if quantum else n
    res = geometry.SqueezedReservoir(n_photons=n, m_magnitude=m)
    return dynamics.steady_states(dynamics.build_squeezed(
        _pair(_SQUEEZED_SEPARATIONS), res))[0]


_BATH_KINDS = (("quantum", True), ("classical", False))
_N_EFF = (0.05, 0.5, 5.0)


def _fig19():
    cols = {"separation": _SQUEEZED_SEPARATIONS}
    for tag, quantum in _BATH_KINDS:
        pops = basis.collective_populations(_squeezed_states(0.05, quantum))
        for name in ("pop_ee", "pop_aa", "pop_ss"):
            cols[f"{name}_{tag}"] = pops[:, _POPULATIONS[name]]
    return _table(cols,
                  "stationary collective populations vs separation in "
                  "quantum and classical squeezed baths")


def _fig20():
    purity = observables.purity(_squeezed_states(_N_EFF, True))
    cols = {"separation": _SQUEEZED_SEPARATIONS,
            **{f"purity_n{n:g}": p for n, p in zip(_N_EFF, purity)}}
    return _table(cols,
                  "stationary purity vs separation under ideal quantum "
                  "squeezing")


def _fig21():
    rc = basis.basis_transform("to_collective", np.stack(
        [_squeezed_states(0.5, quantum) for _, quantum in _BATH_KINDS]))
    rgg, rss, raa, ree = np.moveaxis(rc.diagonal(0, -2, -1).real, -1, 0)
    # the stationary states hold populations and a g-e coherence only, so
    # the entangled eigenstates are the g-e block's two, then |s> and |a>
    split = np.sqrt((rgg - ree) ** 2 + 4.0 * np.abs(rc[..., 3, 0]) ** 2)
    pops = (0.5 * (rgg + ree) + 0.5 * split, 0.5 * (rgg + ree) - 0.5 * split,
            rss, raa)
    cols = {"separation": _SQUEEZED_SEPARATIONS}
    for k, (tag, _) in enumerate(_BATH_KINDS):
        cols.update({f"P{j + 1}_{tag}": p[k] for j, p in enumerate(pops)})
    return _table(cols,
                  "populations of the entangled eigenstates vs separation")


def _fig22():
    cols = {"separation": _SQUEEZED_SEPARATIONS}
    for tag, quantum in _BATH_KINDS:
        visibility = observables.visibility(_squeezed_states(_N_EFF, quantum))
        cols.update({f"visibility_{tag}_n{n:g}": v
                     for n, v in zip(_N_EFF, visibility)})
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
    "fig9": lambda: _sweep_detuning(
        (10.0, 0.15, 0.08), 0.5, ["g2zero"],
        "equal-time photon correlation vs detuning; single detector "
        "perpendicular to the axis"),
    "fig10": _fig10,
    "fig11": lambda: _sweep_detuning(
        (10.0, 0.15, 0.08), 0.5, ["variance0"],
        "stationary in-phase variance vs detuning"),
    "fig12": lambda: _sweep_detuning(
        (0.05,), 3.0, ["variance_pi2", "variance_3pi4"],
        "stationary variance near the two-photon resonance for two "
        "quadrature phases", detunings=np.linspace(-40, 40, 321)),
    "fig13": _fig13,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig16": lambda: _sweep_detuning(
        (0.08,), 2.5, ["pop_ee", "pop_aa", "pop_ss"],
        "collective populations vs detuning, drive along the interatomic "
        "axis", propagation_angle=0.0),
    "fig17": _fig17,
    "fig18": lambda: _sweep_detuning(
        (0.1,), 0.5, ["pop_ss", "pop_aa"],
        "symmetric/antisymmetric populations for the axial drive of the "
        "visibility preset; nominal drive quoted both as rabi = 0.5 and "
        "0.25, 0.5 kept", propagation_angle=0.0),
    "fig19": _fig19,
    "fig20": _fig20,
    "fig21": _fig21,
    "fig22": _fig22,
}


def available_figures() -> list:
    return sorted(_FIGURES, key=lambda s: int(s[3:]))


def _preset(figure_id: str):
    if figure_id not in _FIGURES:
        raise ConfigError(f"unknown figure '{figure_id}'; available: "
                          f"{', '.join(available_figures())}")
    return _FIGURES[figure_id]


def figure_preset(figure_id: str) -> ScenarioConfig:
    """Configuration that regenerates the given preset."""
    _preset(figure_id)
    return parse_config(f"scenario = figure\nfigure = {figure_id}\n")


def run_figure(figure_id: str):
    """Compute the curve data behind the given preset."""
    return _preset(figure_id)()
