"""Acceptance suite: one test per exit criterion, each printed pass/fail.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines.  Criterion 4 is split: the beat-frequency check passes; the
pointwise comparison of the decay intensity against the quoted closed form
is expected to fail at the stated tolerance and parameters (the closed
form's beat amplitude carries a factor-2 internal inconsistency and the
mandated separation sits outside its own validity regime; see
docs/decisions.md).  It is implemented verbatim and marked xfail, and
the intensity is checked pointwise against the exact one-excitation
solution instead.
"""
import math
import time

import numpy as np
import pytest
from scipy.signal import argrelmax

import oracles
from conftest import random_density_matrix, random_hermitian
from twoatom import (analytic, basis, dynamics, geometry, jumps, observables)
from twoatom.operators import (KET_EG, S1M, S2M, DICKE_BASIS, ket_density,
                               unvec, vec)

GAMMA = 1.0


def _report(num, label, elapsed, limit, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {num:>2}: {status}  "
          f"({elapsed:.2f}s / limit {limit:.0f}s)  {label}")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def perp():
    return observables.DetectionGeometry(theta1=math.pi / 2)


def test_criterion_01_dicke_strong_field_g2():
    start = time.perf_counter()
    rabi = 100.0
    gen = dynamics.build_dicke_dressed(geometry.DriveField(rabi=rabi))
    rho, degenerate = dynamics.steady_state(gen)
    assert degenerate
    taus = np.linspace(0.0, 5.0, 251)
    series = observables.g2_tau(gen, rho,
                                geometry.AtomPairConfig(separation=0.0),
                                perp(), taus)
    ref = oracles.dressed_g2(taus, GAMMA, rabi)
    assert series.values[0] == pytest.approx(0.75, abs=1e-6)
    assert np.abs(series.values - ref).max() < 1e-6
    _report(1, "dressed-model g2 matches the closed form to 1e-6",
            time.perf_counter() - start, 1.0)


def test_criterion_02_steady_state_intensities():
    start = time.perf_counter()
    dicke = geometry.AtomPairConfig(separation=0.0)
    gen = dynamics.build_vacuum_drive(dicke,
                                      geometry.DriveField(rabi=1000.0))
    rho, degenerate = dynamics.steady_state(gen)
    assert degenerate
    assert observables.total_intensity(rho, dicke) == pytest.approx(
        4.0 / 3.0, rel=5e-3)
    extended = geometry.AtomPairConfig(separation=0.2)
    gen = dynamics.build_vacuum_drive(extended,
                                      geometry.DriveField(rabi=1000.0))
    rho, degenerate = dynamics.steady_state(gen)
    assert not degenerate
    assert observables.total_intensity(rho, extended) == pytest.approx(
        1.0, rel=5e-3)
    _report(2, "strong-drive intensities 4/3 (small sample) and 1 (extended)",
            time.perf_counter() - start, 1.0)


def test_criterion_03_driven_steady_state_grid():
    start = time.perf_counter()
    pair = geometry.AtomPairConfig(separation=0.08)
    g12 = geometry.collective_damping(pair)
    omega12 = geometry.dipole_dipole_shift(pair)
    worst = 0.0
    for rabi in (0.2, 0.5, 1.0, 2.0, 5.0):
        for detuning in (-5.0, -1.0, 0.0, 1.0, 5.0):
            gen = dynamics.build_vacuum_drive(
                pair, geometry.DriveField(rabi=rabi, detuning=detuning))
            rho, _ = dynamics.steady_state(gen)
            rc = basis.basis_transform("to_collective", rho)
            ref = analytic.driven_steady_state(rabi, detuning, GAMMA, g12,
                                               omega12)
            worst = max(worst, np.abs(rc - ref).max())
    assert worst < 1e-8
    _report(3, f"5x5 driven steady-state grid, worst deviation {worst:.1e}",
            time.perf_counter() - start, 5.0)


def _beat_intensity_series():
    pair = geometry.AtomPairConfig(separation=1 / 12, delta=-2.0)
    gen = dynamics.build_vacuum_drive(pair, geometry.DriveField(rabi=0.0))
    grid = np.linspace(0.0, 3.0, 2401)
    series = dynamics.evolve(gen, ket_density(KET_EG), grid)
    intensity = np.array([observables.total_intensity(series.states[k], pair)
                          for k in range(len(grid))])
    return pair, grid, intensity


def test_criterion_04a_quantum_beat_frequency():
    start = time.perf_counter()
    pair, grid, intensity = _beat_intensity_series()
    g12 = geometry.collective_damping(pair)
    omega12 = geometry.dipole_dipole_shift(pair)
    smooth = np.exp(-grid) * (np.cosh(g12 * grid) - g12 * np.sinh(g12 * grid))
    residual = intensity - smooth
    peaks = argrelmax(residual, order=5)[0]
    assert len(peaks) >= 3
    spacing = np.diff(grid[peaks]).mean()
    beat = 2.0 * math.pi / spacing
    expected = 2.0 * math.hypot(omega12, pair.delta)
    assert beat == pytest.approx(expected, rel=0.02)
    _report("4a", f"beat frequency {beat:.3f} vs 2w = {expected:.3f}",
            time.perf_counter() - start, 5.0)


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: the quoted beat intensity misses a factor 2 in its "
           "oscillation amplitude relative to the exact moment equations "
           "and is evaluated outside its own validity regime at the "
           "mandated separation (|omega12/delta| = 2.3, not >= 10); the "
           "RMS deviation is 0.08-0.19 gamma across every admissible "
           "parameter reading (0.12 here).  See docs/decisions.md.")
def test_criterion_04b_quantum_beat_closed_form_rms():
    pair, grid, intensity = _beat_intensity_series()
    g12 = geometry.collective_damping(pair)
    omega12 = geometry.dipole_dipole_shift(pair)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = oracles.beat_intensity_frequency_split(grid, GAMMA, g12,
                                                     omega12, pair.delta)
    rms = math.sqrt(float(np.mean((intensity - ref) ** 2)))
    print(f"[ACCEPTANCE] criterion 4b: RMS(I - closed form)/gamma = {rms:.4f}"
          f" (tolerance 0.05)")
    assert rms <= 0.05


def test_criterion_04_exact_one_excitation_oracle():
    # the exact intensity of the 2x2 no-jump block, c(t)^+ G c(t), on the
    # criterion-4 grid: the reference 4b's closed form approximates
    pair, grid, intensity = _beat_intensity_series()
    exact = oracles.one_excitation_intensity(pair, grid)
    assert np.abs(intensity - exact).max() < 1e-10


def test_criterion_05_transient_squeezing():
    start = time.perf_counter()
    pair = geometry.AtomPairConfig(separation=0.0)
    ground = np.diag([1.0, 0, 0, 0]).astype(complex)
    # minimum of the exact in-phase variance for rabi = 100 gamma
    gen_full = dynamics.build_vacuum_drive(pair,
                                           geometry.DriveField(rabi=100.0))
    grid = np.linspace(0.0, 0.06, 1201)
    series = dynamics.evolve(gen_full, ground, grid)
    variances = np.array([
        observables.quadrature_variance(series.states[k], pair, 0.0, perp())
        for k in range(len(grid))])
    assert variances.min() == pytest.approx(-1.0 / 16.0, rel=0.02)
    # pointwise agreement with the closed form in the dressed regime
    gen_dressed = dynamics.build_dicke_dressed(geometry.DriveField(rabi=100.0))
    grid2 = np.linspace(0.0, 0.4, 801)
    series2 = dynamics.evolve(gen_dressed, ground, grid2)
    got = np.array([
        observables.quadrature_variance(series2.states[k], pair, 0.0, perp())
        for k in range(len(grid2))])
    ref = oracles.transient_variance_inphase(grid2, GAMMA, 100.0)
    assert np.abs(got - ref).max() < 1e-3
    _report(5, f"variance dip {variances.min():.5f} vs -1/16; dressed "
               f"pointwise dev {np.abs(got - ref).max():.1e}",
            time.perf_counter() - start, 5.0)


def test_criterion_06_squeezed_vacuum_steady_states():
    start = time.perf_counter()
    worst_finite = worst_secular = 0.0
    for n in (0.05, 0.5, 5.0):
        m = math.sqrt(n * (n + 1.0))
        res = geometry.SqueezedReservoir(n_photons=n, m_magnitude=m)
        for a in (0.0, 0.5, 0.99):
            sep = oracles.separation_for_damping(a)
            pair = geometry.AtomPairConfig(separation=sep)
            rho, _ = dynamics.steady_state(dynamics.build_squeezed(pair, res))
            rc = basis.basis_transform("to_collective", rho)
            ref = analytic.squeezed_steady_finite(n, m, a)
            dev = max(abs(rc[3, 3].real - ref["ree"]),
                      abs(rc[1, 1].real - ref["rss"]),
                      abs(rc[2, 2].real - ref["raa"]),
                      abs((rc[3, 0] + rc[0, 3]).real - ref["ru"]))
            worst_finite = max(worst_finite, dev)
            pair_split = geometry.AtomPairConfig(separation=sep, delta=25.0)
            rho, _ = dynamics.steady_state(
                dynamics.build_squeezed(pair_split, res))
            rc = basis.basis_transform("to_collective", rho)
            ref = oracles.squeezed_steady_secular(n, m, a)
            dev = max(abs(rc[3, 3].real - ref["ree"]),
                      abs(rc[1, 1].real - ref["rss"]),
                      abs(rc[2, 2].real - ref["raa"]),
                      abs((rc[3, 0] + rc[0, 3]).real - ref["ru"]))
            worst_secular = max(worst_secular, dev)
        # small-sample limit, both maximal-classical and ideal-quantum
        dicke = geometry.AtomPairConfig(separation=0.0)
        rho, degenerate = dynamics.steady_state(
            dynamics.build_squeezed(dicke, res))
        assert degenerate
        rc = basis.basis_transform("to_collective", rho)
        ref = oracles.squeezed_steady_dicke(n, m)
        assert abs(rc[1, 1].real) < 1e-10          # symmetric state empty
        assert rc[3, 3].real == pytest.approx(ref["ree"], abs=1e-8)
        res_c = geometry.SqueezedReservoir(n_photons=n, m_magnitude=n)
        rho, _ = dynamics.steady_state(dynamics.build_squeezed(dicke, res_c))
        rc = basis.basis_transform("to_collective", rho)
        ref = oracles.squeezed_steady_dicke(n, n)
        assert rc[1, 1].real == pytest.approx(ref["rss"], abs=1e-8)
    assert worst_finite < 1e-8 and worst_secular < 1e-8
    _report(6, f"squeezed steady states: finite dev {worst_finite:.1e}, "
               f"secular dev {worst_secular:.1e}, ideal small-sample "
               f"symmetric population < 1e-10",
            time.perf_counter() - start, 10.0)


def test_criterion_07_tpe_purity_and_annihilation():
    start = time.perf_counter()
    n = 0.5
    res = geometry.SqueezedReservoir(n_photons=n,
                                     m_magnitude=math.sqrt(n * (n + 1)))
    gen = dynamics.build_squeezed(geometry.AtomPairConfig(separation=0.0),
                                  res)
    rho, _ = dynamics.steady_state(gen)
    assert observables.purity(rho) == pytest.approx(1.0, abs=1e-8)
    rc = basis.basis_transform("to_collective", rho)
    states = oracles.entangled_eigenstates(rc)
    label, population, vec4 = states[0]
    assert label == "tpe_plus" and population == pytest.approx(1.0, abs=1e-8)
    psi_product = DICKE_BASIS @ vec4
    residual = oracles.tpe_annihilation_residual(psi_product, n)
    assert residual < 1e-10
    _report(7, f"two-photon entangled steady state pure, annihilation "
               f"residual {residual:.1e}",
            time.perf_counter() - start, 1.0)


def test_criterion_08_jump_master_equivalence():
    start = time.perf_counter()
    pair = geometry.AtomPairConfig(separation=0.2)
    drive = geometry.DriveField(rabi=2.0)
    rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
    grid = np.linspace(0.0, 5.0, 20)
    gen = dynamics.build_vacuum_drive(pair, drive)
    ensemble = jumps.run_trajectories(gen, rho0, 10_000, seed=2024,
                                      grid=grid)
    reference = dynamics.evolve(gen, rho0, grid)
    chi2, dof = 0.0, 0
    for k in range(len(grid)):
        mc = np.real(np.diag(ensemble.mean_states[k]))
        me = np.real(np.diag(reference.states[k]))
        se = ensemble.population_stderr[k]
        for j in range(4):
            if se[j] > 1e-9:
                chi2 += ((mc[j] - me[j]) / se[j]) ** 2
                dof += 1
    bound = dof + 3.0 * math.sqrt(2.0 * dof)
    assert chi2 < bound, f"chi2 {chi2:.1f} exceeds 3-sigma bound {bound:.1f}"
    # determinism: the first streams of the same seed reproduce bit for bit
    probe = jumps.run_trajectories(gen, rho0, 64, seed=2024,
                                   grid=grid)
    for rec_a, rec_b in zip(probe.records, ensemble.records[:64]):
        assert np.array_equal(rec_a.jump_times, rec_b.jump_times)
        assert np.array_equal(rec_a.channels, rec_b.channels)
    elapsed = time.perf_counter() - start
    _report(8, f"10^4 trajectories chi2 {chi2:.1f} < {bound:.1f} "
               f"({dof} dof), deterministic",
            elapsed, 60.0)


def test_criterion_09_visibility():
    start = time.perf_counter()
    worst = 0.0
    for rabi in (0.3, 1.0, 3.0):
        for detuning in (-3.0, 0.0, 2.0):
            pair = geometry.AtomPairConfig(separation=0.11)
            gen = dynamics.build_vacuum_drive(
                pair, geometry.DriveField(rabi=rabi, detuning=detuning))
            rho, _ = dynamics.steady_state(gen)
            got = observables.visibility(rho)
            ref = oracles.driven_visibility(rabi, detuning, GAMMA)
            worst = max(worst, abs(got - ref))
    assert worst < 1e-8
    worst_squeezed = 0.0
    for n in (0.05, 0.5, 5.0):
        m = math.sqrt(n * (n + 1))
        res = geometry.SqueezedReservoir(n_photons=n, m_magnitude=m)
        for a in (0.3, 0.7, 0.99):
            pair = geometry.AtomPairConfig(
                separation=oracles.separation_for_damping(a))
            rho, _ = dynamics.steady_state(dynamics.build_squeezed(pair, res))
            got = observables.visibility(rho)
            ref = oracles.squeezed_visibility(n, m, a)
            worst_squeezed = max(worst_squeezed, abs(got - ref))
    assert worst_squeezed < 1e-8
    # strong-field limit of the ideal quantum bath approaches -1/2
    n = 1000.0
    res = geometry.SqueezedReservoir(n_photons=n,
                                     m_magnitude=math.sqrt(n * (n + 1)))
    pair = geometry.AtomPairConfig(
        separation=oracles.separation_for_damping(0.99))
    rho, _ = dynamics.steady_state(dynamics.build_squeezed(pair, res))
    limit = observables.visibility(rho)
    assert limit == pytest.approx(-0.5, abs=1e-3)
    _report(9, f"visibility grids: driven dev {worst:.1e}, squeezed dev "
               f"{worst_squeezed:.1e}, strong-field limit {limit:.5f}",
            time.perf_counter() - start, 5.0)


def test_criterion_10_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    identity_vec = vec(np.eye(4))
    n_instances = 1000
    nodes, weights = np.polynomial.legendre.leggauss(80)
    phis = np.linspace(0.0, 2.0 * math.pi, 161)[:-1]
    for k in range(n_instances):
        pair = geometry.AtomPairConfig(
            separation=float(rng.uniform(0.03, 2.0)),
            gamma2=float(rng.uniform(0.5, 2.0)),
            delta=float(rng.uniform(-2.0, 2.0)),
            dipole_angle=float(rng.uniform(0.0, math.pi / 2)))
        drive = geometry.DriveField(
            rabi=float(rng.uniform(0.0, 4.0)),
            detuning=float(rng.uniform(-4.0, 4.0)),
            propagation_angle=float(rng.uniform(0.0, math.pi)))
        gen = dynamics.build_vacuum_drive(pair, drive)
        # trace preservation as a functional and on a random state
        assert np.abs(identity_vec @ gen.matrix).max() < 1e-10
        hermitian = random_hermitian(rng)
        assert abs(np.trace(unvec(gen.matrix @ vec(hermitian)))) < 1e-10
        # one exact step: Hermiticity and positivity of the output
        rho0 = random_density_matrix(rng)
        state = dynamics.evolve(gen, rho0, np.array([0.4])).states[0]
        assert np.abs(state - state.conj().T).max() < 1e-8
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.eigvalsh(state).min() > -1e-7
        # basis-transform unitarity
        rc = basis.basis_transform("to_collective", rho0)
        back = basis.basis_transform("to_product", rc)
        assert np.abs(back - rho0).max() < 1e-12
        # equal-time consistency of the two correlation paths
        geom = observables.DetectionGeometry(
            theta1=float(rng.uniform(0.0, math.pi)),
            theta2=float(rng.uniform(0.0, math.pi)))
        try:
            direct = observables.g2_zero(rho0, pair, geom)
        except Exception:
            direct = None
        if direct is not None and np.isfinite(direct):
            series = observables.g2_tau(gen, rho0, pair, geom,
                                        np.array([0.0, 0.05]))
            assert series.values[0] == pytest.approx(direct, abs=1e-8,
                                                     rel=1e-8)
        # angular integral equals the total intensity (Gauss quadrature)
        mu_hat = np.array([math.cos(pair.dipole_angle), 0.0,
                           math.sin(pair.dipole_angle)])
        pattern = 1.0 - (np.outer(nodes, mu_hat[:1]).ravel()[:, None] * 0
                         + nodes[:, None] * mu_hat[0]
                         + np.sqrt(1 - nodes[:, None] ** 2)
                         * (np.cos(phis)[None, :] * mu_hat[1]
                            + np.sin(phis)[None, :] * mu_hat[2])) ** 2
        phase = np.exp(2j * math.pi * pair.separation * nodes)
        amp_same = (pair.gamma1 * observables.expect(S1M.conj().T @ S1M, rho0)
                    + pair.gamma2
                    * observables.expect(S2M.conj().T @ S2M, rho0)).real
        cross = math.sqrt(pair.gamma1 * pair.gamma2) \
            * observables.expect(S1M.conj().T @ S2M, rho0)
        angular = 3.0 / (8.0 * math.pi) * (
            pattern.mean(axis=1) * (amp_same + 2.0 * (cross * phase).real))
        integral = 2.0 * math.pi * float(weights @ angular)
        assert integral == pytest.approx(
            observables.total_intensity(rho0, pair), abs=1e-6)
        # coupling limits
        g12 = geometry.collective_damping(pair)
        assert g12 ** 2 <= pair.gamma1 * pair.gamma2 * (1 + 1e-12)
    tiny = geometry.AtomPairConfig(separation=1e-4)
    assert abs(geometry.collective_damping(tiny) - 1.0) < 1e-4
    assert geometry.dipole_dipole_shift(tiny) == pytest.approx(
        oracles.quasistatic_shift(tiny), rel=1e-4)
    _report(10, f"{n_instances} randomized instances of the property suite",
            time.perf_counter() - start, 30.0)


def test_figure_preset_qualitative_shapes():
    # the plotted curves are accepted on shape assertions: beat presence
    # and absence, anticorrelation and population peaks at the shifted
    # lines, visibility signs
    start = time.perf_counter()
    from twoatom.figures import run_figure
    fig4 = run_figure("fig4")
    flat = fig4.column("intensity_delta0")
    beat = fig4.column("intensity_delta-2")
    interior = lambda y: int(np.sum((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
                                    & (y[1:-1] > 1e-3)))
    assert interior(flat) == 0 and interior(beat) >= 3
    fig13 = run_figure("fig13")
    det = fig13.column("detuning")
    paa = fig13.column("pop_aa_split")
    assert det[np.argmax(paa)] == pytest.approx(-10.0, abs=0.5)
    fig9 = run_figure("fig9")
    g2 = fig9.column("g2zero_r0.08")
    omega12 = geometry.dipole_dipole_shift(
        geometry.AtomPairConfig(separation=0.08))
    assert fig9.column("detuning")[np.argmin(g2)] == pytest.approx(
        omega12, abs=0.5)
    fig22 = run_figure("fig22")
    close = fig22.column("separation") < 0.3
    assert fig22.column("visibility_quantum_n0.05")[close].max() < 0
    _report("F", "figure presets reproduce the qualitative shapes",
            time.perf_counter() - start, 30.0)
