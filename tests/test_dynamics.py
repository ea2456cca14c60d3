import math

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from conftest import random_density_matrix, random_hermitian, random_pair
from oracles import dissipator, hamiltonian_superop
from twoatom import analytic, basis, dynamics, geometry, observables
from twoatom.errors import DomainError, SteadyStateError, ValidationError
from twoatom.operators import (KET_A, KET_EG, S1M, S1P, S2M, SM, SP, expect,
                               ket_density, unvec, vec)
from twoatom.validation import validate_density_matrix


def pair(separation, **kw):
    return geometry.AtomPairConfig(separation=separation, **kw)


def ground():
    return np.diag([1.0, 0, 0, 0]).astype(complex)


def trace_functional(lmat):
    return np.abs(vec(np.eye(4)) @ lmat).max()


class TestVacuumDrive:
    def test_trace_preserving(self, rng):
        for _ in range(10):
            gen = dynamics.build_vacuum_drive(random_pair(rng),
                                              geometry.DriveField(rabi=1.0))
            assert trace_functional(gen.matrix) < 1e-10

    def test_nearly_independent_decay(self):
        # at 50 wavelengths the residual couplings are ~1e-3, so single-atom
        # exponential decay holds to second order in them
        p = pair(50.0)
        gen = dynamics.build_vacuum_drive(p, geometry.DriveField(rabi=0.0))
        grid = np.linspace(0, 3, 16)
        series = dynamics.evolve(gen, ket_density(KET_EG), grid)
        excited = [expect(S1P @ S1M, series.states[k]).real
                   for k in range(len(grid))]
        assert np.abs(excited - np.exp(-grid)).max() < 1e-4

    def test_resonant_steady_state_correlators(self):
        p = pair(0.12)
        drive = geometry.DriveField(rabi=1.3)
        gen = dynamics.build_vacuum_drive(p, drive)
        rho, degenerate = dynamics.steady_state(gen)
        assert not degenerate
        ref = oracles.driven_correlators_extended(
            1.3, 1.0, geometry.collective_damping(p),
            geometry.dipole_dipole_shift(p))
        assert expect(S1P @ S1M, rho).real == pytest.approx(
            ref["population"], abs=1e-10)
        assert expect(S1P @ S2M, rho).real == pytest.approx(
            ref["cross"], abs=1e-10)

    def test_population_decay_rates(self):
        p = pair(0.09)
        g12 = geometry.collective_damping(p)
        gen = dynamics.build_vacuum_drive(p, geometry.DriveField(rabi=0.0))
        grid = np.linspace(0, 2, 9)
        series = dynamics.evolve(gen, ket_density(KET_EG), grid)
        pss_ref, paa_ref = oracles.population_decay(grid, 1.0, g12)
        pops = np.array([basis.collective_populations(series.states[k])
                         for k in range(len(grid))])
        assert np.abs(pops[:, 1] - pss_ref).max() < 1e-8
        assert np.abs(pops[:, 2] - paa_ref).max() < 1e-8

    def test_dicke_steady_state_matches_small_sample_forms(self):
        gen = dynamics.build_vacuum_drive(pair(0.0),
                                          geometry.DriveField(rabi=2.0))
        rho, degenerate = dynamics.steady_state(gen)
        assert degenerate
        ref = oracles.driven_correlators_dicke(2.0, 1.0)
        assert expect(S1P @ S1M, rho).real == pytest.approx(
            ref["population"], abs=1e-10)
        assert expect(S1P @ S2M, rho).real == pytest.approx(
            ref["cross"], abs=1e-10)

    def test_undriven_vacuum_reaches_ground(self):
        gen = dynamics.build_vacuum_drive(pair(0.37),
                                          geometry.DriveField(rabi=0.0))
        rho, _ = dynamics.steady_state(gen)
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-10)


class TestSqueezed:
    def test_vacuum_reservoir_reduces_to_undriven_generator(self):
        p = pair(0.31)
        res = geometry.SqueezedReservoir(n_photons=0.0, m_magnitude=0.0)
        a = dynamics.build_squeezed(p, res)
        b = dynamics.build_vacuum_drive(p, geometry.DriveField(rabi=0.0))
        assert np.abs(a.matrix - b.matrix).max() < 1e-12

    def test_ideal_dicke_two_photon_state(self):
        n = 0.5
        res = geometry.SqueezedReservoir(n_photons=n,
                                         m_magnitude=math.sqrt(n * (n + 1)))
        gen = dynamics.build_squeezed(pair(0.0), res)
        rho, degenerate = dynamics.steady_state(gen)
        assert degenerate
        rc = basis.basis_transform("to_collective", rho)
        assert abs(rc[1, 1]) < 1e-10
        assert rc[3, 3].real == pytest.approx(n / (2 * n + 1), abs=1e-10)

    def test_finite_separation_matches_closed_form(self):
        n, a = 0.5, 0.7
        m = math.sqrt(n * (n + 1))
        p = pair(oracles.separation_for_damping(a))
        res = geometry.SqueezedReservoir(n_photons=n, m_magnitude=m,
                                         squeeze_phase=0.9)
        gen = dynamics.build_squeezed(p, res)
        rho, degenerate = dynamics.steady_state(gen)
        assert not degenerate
        rc = basis.basis_transform("to_collective", rho)
        ref = analytic.squeezed_steady_finite(n, m, a)
        assert rc[3, 3].real == pytest.approx(ref["ree"], abs=1e-10)
        assert rc[1, 1].real == pytest.approx(ref["rss"], abs=1e-10)
        assert rc[2, 2].real == pytest.approx(ref["raa"], abs=1e-10)
        ru = (rc[3, 0] * np.exp(-0.9j) + rc[0, 3] * np.exp(0.9j)).real
        assert ru == pytest.approx(ref["ru"], abs=1e-10)

    def test_secular_nonidentical_matches_closed_form(self):
        n, a = 0.5, 0.5
        m = math.sqrt(n * (n + 1))
        p = pair(oracles.separation_for_damping(a), delta=25.0)
        res = geometry.SqueezedReservoir(n_photons=n, m_magnitude=m)
        gen = dynamics.build_squeezed(p, res)
        assert gen.meta["secular"]
        rho, _ = dynamics.steady_state(gen)
        rc = basis.basis_transform("to_collective", rho)
        ref = oracles.squeezed_steady_secular(n, m, a)
        assert rc[1, 1].real == pytest.approx(ref["rss"], abs=1e-12)
        assert rc[2, 2].real == pytest.approx(ref["raa"], abs=1e-12)
        assert rc[3, 3].real == pytest.approx(ref["ree"], abs=1e-12)

    def test_thermal_boltzmann_ordering(self):
        # classical maximal correlations keep the Boltzmann ladder
        n = 0.8
        res = geometry.SqueezedReservoir(n_photons=n, m_magnitude=n)
        gen = dynamics.build_squeezed(pair(0.0), res)
        rho, _ = dynamics.steady_state(gen)
        rc = basis.basis_transform("to_collective", rho)
        ref = oracles.squeezed_steady_dicke(n, n)
        assert rc[1, 1].real == pytest.approx(ref["rss"], abs=1e-10)
        assert rc[3, 3].real == pytest.approx(ref["ree"], abs=1e-10)
        rgg, rss, ree = rc[0, 0].real, rc[1, 1].real, rc[3, 3].real
        assert rgg > rss > ree
        assert rss == pytest.approx(n / (3 * n + 1), abs=1e-10)
        # a purely thermal bath keeps the same ladder
        res0 = geometry.SqueezedReservoir(n_photons=n, m_magnitude=0.0)
        rho0, _ = dynamics.steady_state(dynamics.build_squeezed(pair(0.0),
                                                                res0))
        rc0 = basis.basis_transform("to_collective", rho0)
        assert rc0[0, 0].real > rc0[1, 1].real > rc0[3, 3].real

    def test_moment_equations_match_collective_form(self):
        # the generator's closed set for (ee, ss, aa, u) must reproduce the
        # collective-state equations coefficient by coefficient
        p = pair(0.2)
        g12 = geometry.collective_damping(p)
        n, m = 0.7, 0.9
        res = geometry.SqueezedReservoir(n_photons=n, m_magnitude=m)
        gen = dynamics.build_squeezed(p, res)
        from twoatom.operators import DICKE_BASIS
        kets = DICKE_BASIS.T  # rows g, s, a, e
        proj = [np.outer(kets[k], kets[k].conj()) for k in range(4)]
        u_op = (np.outer(kets[3], kets[0].conj())
                + np.outer(kets[0], kets[3].conj()))
        ops = {"ee": proj[3], "ss": proj[1], "aa": proj[2], "u": u_op}
        # expected coefficient table from the collective-state equations
        gp, gm_ = 1 + g12, 1 - g12
        expected = {
            "ee": {"ee": -2 * (n + 1), "ss": n * gp, "aa": n * gm_,
                   "u": g12 * m, "const": 0.0},
            "ss": {"ee": gp, "ss": -gp * (3 * n + 1), "aa": -gp * n,
                   "u": -gp * m, "const": gp * n},
            "aa": {"ee": gm_, "ss": -gm_ * n, "aa": -gm_ * (3 * n + 1),
                   "u": gm_ * m, "const": gm_ * n},
            "u": {"ee": 0.0, "ss": -2 * m * (1 + 2 * g12),
                  "aa": 2 * m * (1 - 2 * g12), "u": -(2 * n + 1),
                  "const": 2 * g12 * m},
        }
        lmat = gen.matrix
        for name, op in ops.items():
            # d<op>/dt sourced by each basis operator of the closed set;
            # the basis is trace-orthogonal so each coefficient reads off
            # directly
            for other, op2 in ops.items():
                got = np.trace(op @ unvec(lmat @ vec(op2))).real
                want = expected[name][other] * np.trace(op2 @ op2).real \
                    + expected[name]["const"] * np.trace(op2).real
                assert got == pytest.approx(want, abs=1e-10), (name, other)

    def test_invalid_reservoir_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            geometry.SqueezedReservoir(n_photons=0.5, m_magnitude=2.0)

    def test_secular_requires_midway_carrier(self):
        res = geometry.SqueezedReservoir(n_photons=0.5, m_magnitude=0.5,
                                         carrier_offset=3.0)
        with pytest.raises(ValidationError, match="midway"):
            dynamics.build_squeezed(pair(0.1, delta=20.0), res)

    def test_detuned_carrier_suppresses_two_photon_pumping(self):
        # identical atoms: detuning the carrier from the two-photon
        # resonance leaves the coherence rotating and starves the upper
        # state
        n = 0.3
        m = math.sqrt(n * (n + 1))
        on = geometry.SqueezedReservoir(n_photons=n, m_magnitude=m)
        off = geometry.SqueezedReservoir(n_photons=n, m_magnitude=m,
                                         carrier_offset=8.0)
        p = pair(0.05)
        ree = {}
        for tag, res in (("on", on), ("off", off)):
            rho, _ = dynamics.steady_state(dynamics.build_squeezed(p, res))
            rc = basis.basis_transform("to_collective", rho)
            ree[tag] = rc[3, 3].real
        assert ree["off"] < ree["on"]


class TestDickeDressed:
    def test_moment_rates(self):
        om = 37.0
        gen = dynamics.build_dicke_dressed(geometry.DriveField(rabi=om))
        from twoatom.dynamics import _dressed_rotation
        rz, rp, rm = _dressed_rotation()
        lmat = gen.matrix

        def heisenberg_rate(op):
            out = unvec(lmat.conj().T @ vec(op))
            # expect out = c * op; extract c by projection
            denom = np.trace(op.conj().T @ op)
            c = np.trace(op.conj().T @ out) / denom
            assert np.abs(out - c * op).max() < 1e-10
            return c

        assert heisenberg_rate(rz) == pytest.approx(-0.5, abs=1e-12)
        cp = heisenberg_rate(rp)
        cm = heisenberg_rate(rm)
        assert cp.real == pytest.approx(-0.75, abs=1e-12)
        assert cm.real == pytest.approx(-0.75, abs=1e-12)
        assert sorted((cp.imag, cm.imag)) == pytest.approx([-om, om],
                                                           abs=1e-10)
        cpp = heisenberg_rate(rp @ rp)
        assert cpp.real == pytest.approx(-2.5, abs=1e-10)
        assert abs(cpp.imag) == pytest.approx(2 * om, abs=1e-10)

    def test_g2_matches_closed_form(self):
        om = 40.0
        gen = dynamics.build_dicke_dressed(geometry.DriveField(rabi=om))
        rho, degenerate = dynamics.steady_state(gen)
        assert degenerate
        taus = np.linspace(0, 4, 161)
        geom = observables.DetectionGeometry(theta1=math.pi / 2)
        series = observables.g2_tau(gen, rho, pair(0.0), geom, taus)
        ref = oracles.dressed_g2(taus, 1.0, om)
        assert np.abs(series.values - ref).max() < 1e-6


class TestBadCavity:
    def test_gamma_c_must_be_positive(self):
        with pytest.raises(DomainError):
            dynamics.build_bad_cavity(pair(1.0), g=1.0, gamma_c=0.0,
                                      omega_drive=1.0)

    def test_no_coupling_is_independent_emission(self):
        p = pair(1.0, gamma2=1.7)
        gen = dynamics.build_bad_cavity(p, g=0.0, gamma_c=50.0,
                                        omega_drive=10.0)
        ref = dissipator(1.0, S1M) + dissipator(1.7, S2M)
        assert np.abs(gen.matrix - ref).max() < 1e-14

    def test_negligible_atomic_decay_gives_collective_model(self):
        p = geometry.AtomPairConfig(separation=2.0, gamma1=1e-12,
                                    gamma2=1e-12)
        g, gc, om = 1.0, 100.0, 50.0
        gen = dynamics.build_bad_cavity(p, g=g, gamma_c=gc, omega_drive=om)
        h = -0.5 * g * (om / gc) * (SP + SM)
        ref = hamiltonian_superop(h) + dissipator(g ** 2 / gc, SM)
        assert np.abs(gen.matrix - ref).max() < 1e-10

    def test_effective_rabi_in_hamiltonian_block(self):
        p = pair(2.0)
        gen = dynamics.build_bad_cavity(p, g=1.0, gamma_c=100.0,
                                        omega_drive=50.0)
        assert gen.meta["effective_rabi"] == pytest.approx(0.5)
        hand = hamiltonian_superop(-0.25 * (SP + SM)) \
            + dissipator(1.0, S1M) + dissipator(1.0, S2M) \
            + dissipator(0.01, SM)
        assert np.abs(gen.matrix - hand).max() < 1e-12


class TestEvolve:
    def test_zero_generator_constant(self, rng):
        gen = dynamics.Generator(h=np.zeros((4, 4), dtype=complex),
                                 rates=np.zeros(0),
                                 ops=np.zeros((0, 4, 4)), scenario="test")
        rho0 = random_density_matrix(rng)
        series = dynamics.evolve(gen, rho0, np.linspace(0, 5, 7))
        for k in range(7):
            assert np.abs(series.states[k] - rho0).max() < 1e-12

    def test_against_matrix_exponential_oracle(self, rng):
        cases = []
        for _ in range(5):
            p = random_pair(rng)
            drive = geometry.DriveField(rabi=float(rng.uniform(0, 3)),
                                        detuning=float(rng.uniform(-2, 2)))
            cases.append((p, drive, np.linspace(0.5, 10.0, 6)))
        # a non-uniform grid: one propagator per step
        cases.append((random_pair(rng), geometry.DriveField(rabi=1.5),
                      np.sort(rng.uniform(0.0, 10.0, 40))))
        # near contact Omega12 ~ r^-3 reaches 1e3-1e5; the cost stays flat
        for separation in (0.003, 0.01):
            cases.append((pair(separation), geometry.DriveField(rabi=1.0),
                          np.linspace(0.0, 5.0, 11)))
        for p, drive, grid in cases:
            gen = dynamics.build_vacuum_drive(p, drive)
            rho0 = random_density_matrix(rng)
            series = dynamics.evolve(gen, rho0, grid)
            for k, t in enumerate(grid):
                oracle = unvec(expm(gen.matrix * t) @ vec(rho0))
                assert np.abs(series.states[k] - oracle).max() < 1e-8

    def test_dicke_cascade_intensity(self):
        # doubly excited small sample: the intensity is the closed
        # double-exponential cascade 2 gamma e^{-2 gamma t} (1 + 2 gamma t)
        p = pair(0.0)
        gen = dynamics.build_vacuum_drive(p, geometry.DriveField(rabi=0.0))
        grid = np.linspace(0, 4, 41)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[3, 3] = 1.0
        series = dynamics.evolve(gen, rho0, grid)
        intensity = np.array([observables.total_intensity(series.states[k], p)
                              for k in range(len(grid))])
        ref = 2.0 * np.exp(-2.0 * grid) * (1.0 + 2.0 * grid)
        assert np.abs(intensity - ref).max() < 1e-8

    def test_quantum_beat_frequency(self):
        p = pair(1 / 12, delta=-2.0)
        w = math.hypot(geometry.dipole_dipole_shift(p), p.delta)
        gen = dynamics.build_vacuum_drive(p, geometry.DriveField(rabi=0.0))
        grid = np.linspace(0, 3, 1201)
        series = dynamics.evolve(gen, ket_density(KET_EG), grid)
        intensity = np.array([observables.total_intensity(series.states[k], p)
                              for k in range(len(grid))])
        spectrum = np.fft.rfft(intensity * np.hanning(len(grid)))
        freqs = 2 * np.pi * np.fft.rfftfreq(len(grid), d=grid[1] - grid[0])
        peak = freqs[5 + np.argmax(np.abs(spectrum[5:]))]
        assert peak == pytest.approx(2 * w, rel=0.05)

    def test_validates_inputs(self, rng):
        gen = dynamics.build_vacuum_drive(pair(0.2),
                                          geometry.DriveField(rabi=0.0))
        with pytest.raises(ValidationError):
            dynamics.evolve(gen, np.eye(4, dtype=complex), np.array([0., 1.]))
        with pytest.raises(ValidationError):
            dynamics.evolve(gen, ground(), np.array([1.0, 0.5]))


class TestSteadyState:
    def test_driven_matches_closed_form_matrix(self):
        p = pair(0.08)
        drive = geometry.DriveField(rabi=0.5, detuning=1.5)
        gen = dynamics.build_vacuum_drive(p, drive)
        rho, _ = dynamics.steady_state(gen)
        rc = basis.basis_transform("to_collective", rho)
        ref = analytic.driven_steady_state(
            0.5, 1.5, 1.0, geometry.collective_damping(p),
            geometry.dipole_dipole_shift(p))
        assert np.abs(rc - ref).max() < 1e-10

    @pytest.mark.parametrize("separation", [0.003, 0.005])
    def test_near_contact_kernel_is_one_dimensional(self, separation):
        # Omega12 ~ 1e4-1e5 dominates sigma_max while gamma - Gamma12 ~ 1e-4:
        # ranked against the channel rates the kernel stays 1-D, and an
        # antisymmetric reference cannot select another state
        p = pair(separation)
        gen = dynamics.build_vacuum_drive(p, geometry.DriveField(rabi=1.0))
        ref = analytic.driven_steady_state(
            1.0, 0.0, 1.0, geometry.collective_damping(p),
            geometry.dipole_dipole_shift(p))
        for reference in (None, ket_density(KET_A)):
            rho, degenerate = dynamics.steady_state(gen, reference=reference)
            assert not degenerate
            rc = basis.basis_transform("to_collective", rho)
            assert np.abs(rc - ref).max() < 1e-10

    def test_kernel_rank_over_separations_and_angles(self):
        drive = geometry.DriveField(rabi=1.0)
        for angle in np.linspace(0.0, math.pi / 2, 4):
            for separation in [0.0, *np.geomspace(1e-4, 10.0, 11)]:
                gen = dynamics.build_vacuum_drive(
                    pair(separation, dipole_angle=angle), drive)
                _, degenerate = dynamics.steady_state(gen)
                assert degenerate == (separation == 0.0)

    @pytest.mark.parametrize("reference", [None, ket_density(KET_A)])
    def test_stack_matches_one_point_solves(self, reference):
        # an ordinary point, a near-contact one (Omega12 ~ 1e5) and the
        # degenerate Dicke pair, cycled past the end of one solver chunk
        separations = (0.3, 0.003, 0.0)
        size = dynamics.STACK_CHUNK + 1
        seps = np.array([separations[k % 3] for k in range(size)])
        detunings = np.linspace(-2.0, 2.0, size)
        stack = dynamics.build_vacuum_drive(
            pair(seps), geometry.DriveField(rabi=1.0, detuning=detunings))
        states, degenerate = dynamics.steady_states(stack, reference=reference)
        assert states.shape == (size, 4, 4)
        assert degenerate.tolist() == [k % 3 == 2 for k in range(size)]
        for k in range(size):
            gen = dynamics.build_vacuum_drive(
                pair(float(seps[k])),
                geometry.DriveField(rabi=1.0, detuning=float(detunings[k])))
            rho, flag = dynamics.steady_state(gen, reference=reference)
            assert np.abs(states[k] - rho).max() <= 1e-13
            assert degenerate[k] == flag

    @pytest.mark.parametrize("scale", [1e8, 1e12])
    def test_degenerate_residual_is_ranked_against_the_rates(self, scale):
        # the Dicke pair at separation 0 with every rate and frequency
        # scaled: the projected state's residual grows with ||L||, so only
        # a bound relative to the channel rates accepts it
        def populations(s):
            gen = dynamics.build_vacuum_drive(
                pair(0.0, gamma1=s, gamma2=s), geometry.DriveField(rabi=s))
            rho, degenerate = dynamics.steady_state(gen)
            assert degenerate
            return basis.collective_populations(rho)

        reference = populations(1.0)
        assert np.abs(reference - [7 / 11, 3 / 11, 0.0, 1 / 11]).max() < 1e-12
        assert np.abs(populations(scale) - reference).max() < 1e-10

    def test_stack_with_a_point_without_null_vector_raises(self):
        gen = dynamics.build_vacuum_drive(pair(0.3),
                                          geometry.DriveField(rabi=1.0))
        # an invertible generator, L = -1 at total channel rate 1, has no
        # stationary state
        invertible = (-0.5j * np.eye(4), [1.0, 0.0], np.zeros((2, 4, 4)))
        stack = dynamics.Generator(*(
            np.stack([field, field, odd, field]) for field, odd in
            zip((gen.h, gen.rates, gen.ops), invertible)), scenario="test")
        with pytest.raises(SteadyStateError, match="no null vector"):
            dynamics.steady_states(stack)

    def test_trace_preservation_random_states(self, rng):
        builders = [
            dynamics.build_vacuum_drive(random_pair(rng),
                                        geometry.DriveField(rabi=2.0)),
            dynamics.build_squeezed(
                pair(0.4), geometry.SqueezedReservoir(n_photons=1.0,
                                                      m_magnitude=1.2)),
            dynamics.build_dicke_dressed(geometry.DriveField(rabi=30.0)),
            dynamics.build_bad_cavity(pair(1.5), 1.0, 60.0, 10.0),
        ]
        for gen in builders:
            for _ in range(25):
                rho = random_hermitian(rng)
                assert abs(np.trace(unvec(gen.matrix @ vec(rho)))) < 1e-10

    def test_evolution_preserves_state_invariants(self, rng):
        gen = dynamics.build_vacuum_drive(pair(0.1),
                                          geometry.DriveField(rabi=3.0))
        series = dynamics.evolve(gen, ground(), np.linspace(0, 8, 17))
        for k in range(17):
            rho = series.states[k]
            assert np.abs(rho - rho.conj().T).max() < 1e-9
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
            assert np.linalg.eigvalsh(rho).min() > -1e-7


class TestStateValidation:
    def test_stack_is_checked_state_by_state(self, rng):
        stack = np.stack([random_density_matrix(rng) for _ in range(5)])
        validate_density_matrix(stack)
        stack[2] = np.diag([1.2, -0.2, 0.0, 0.0])
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            validate_density_matrix(stack)

    def test_non_finite_states_rejected(self, rng):
        stack = np.stack([random_density_matrix(rng) for _ in range(3)])
        stack[1, 0, 0] = np.nan
        stack[2, 2, 2] = np.inf
        for bad in (stack, stack[1], stack[2]):
            # inf - inf in rho - rho^+ is NaN, which numpy reports
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValidationError, match="non-finite entries"):
                validate_density_matrix(bad)
