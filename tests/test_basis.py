import math

import numpy as np
import pytest

import oracles
from conftest import random_density_matrix
from twoatom import basis, geometry
from twoatom.errors import ValidationError
from twoatom.operators import DICKE_BASIS, KET_EG, KET_S, ket_density


def pair(separation, **kw):
    return geometry.AtomPairConfig(separation=separation, **kw)


class TestBuildBasis:
    def test_identical_atoms_balanced(self):
        b = basis.build_basis(pair(0.15))
        assert b.alpha == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert b.beta == pytest.approx(1 / math.sqrt(2), abs=1e-14)

    def test_large_splitting_product_limit(self):
        p = pair(0.15)
        omega12 = geometry.dipole_dipole_shift(p)
        p = pair(0.15, delta=100.0 * omega12)
        b = basis.build_basis(p)
        assert b.alpha > 0.9999
        assert b.beta < 0.01

    def test_intermediate_splitting(self):
        # separation tuned so the coherent coupling is exactly 3
        s = oracles.separation_for_shift(3.0)
        b = basis.build_basis(pair(s, delta=4.0))
        assert b.w == pytest.approx(5.0, abs=1e-10)
        assert b.energies[1] == pytest.approx(+b.w)
        assert b.energies[2] == pytest.approx(-b.w)

    def test_normalization_and_orthonormality(self, rng):
        for _ in range(30):
            p = pair(float(rng.uniform(0.03, 2.0)),
                     delta=float(rng.uniform(-5, 5)))
            b = basis.build_basis(p)
            assert b.alpha ** 2 + b.beta ** 2 == pytest.approx(1.0, abs=1e-12)
            c = b.matrix()
            gram = c.conj().T @ c
            assert np.abs(gram - np.eye(4)).max() < 1e-12

    def test_diagonalizes_one_excitation_block(self, rng):
        for _ in range(20):
            p = pair(float(rng.uniform(0.03, 1.0)),
                     delta=float(rng.uniform(-4, 4)))
            b = basis.build_basis(p)
            omega12 = geometry.dipole_dipole_shift(p)
            block = np.array([[-p.delta, omega12], [omega12, p.delta]])
            rot = np.array([[b.beta, b.alpha], [b.alpha, -b.beta]])
            diag = rot.T @ block @ rot
            assert abs(diag[0, 1]) < 1e-10 and abs(diag[1, 0]) < 1e-10
            assert diag[0, 0] == pytest.approx(+b.w, abs=1e-10)
            assert diag[1, 1] == pytest.approx(-b.w, abs=1e-10)


class TestSuperpositionRates:
    def test_dicke_limit_antisymmetric_dark(self):
        p = pair(0.0, gamma2=3.0)
        coeffs = oracles.decay_weighted_coeffs(p)
        _, gaa, gas, gsa = oracles.superposition_rates(coeffs, p)
        assert abs(gaa) < 1e-14
        assert abs(gas) < 1e-14 and abs(gsa) < 1e-14

    def test_equal_rates_no_cross_damping(self):
        p = pair(0.4)
        coeffs = oracles.decay_weighted_coeffs(p)
        _, _, gas, gsa = oracles.superposition_rates(coeffs, p)
        assert abs(gas) < 1e-14 and abs(gsa) < 1e-14

    def test_unequal_rates_frozen_values(self):
        # gamma1=1, gamma2=4, Gamma12=1 under the decay-weighted choice;
        # hand evaluation of the damping matrix (the published closed form
        # quotes exactly half these values, see the decisions ledger)
        s = oracles.separation_for_damping(0.5)
        p = pair(s, gamma2=4.0)  # sqrt(g1 g2) F = 2 * 0.5 = 1
        assert geometry.collective_damping(p) == pytest.approx(1.0, abs=1e-10)
        coeffs = oracles.decay_weighted_coeffs(p)
        gss, gaa, gas, gsa = oracles.superposition_rates(coeffs, p)
        assert gss.real == pytest.approx(4.2, abs=1e-10)
        assert gaa.real == pytest.approx(0.8, abs=1e-10)
        assert gas.real == pytest.approx(-0.6, abs=1e-10)
        assert gsa.real == pytest.approx(-0.6, abs=1e-10)

    def test_identical_atoms_superradiant_pair(self):
        p = pair(0.08)
        g12 = geometry.collective_damping(p)
        gss, gaa, _, _ = oracles.superposition_rates(oracles.equal_coeffs(), p)
        assert gss.real == pytest.approx(1.0 + g12, abs=1e-12)
        assert gaa.real == pytest.approx(1.0 - g12, abs=1e-12)

    def test_sum_rule(self, rng):
        # Gss + Gaa = gamma1 + gamma2 whenever u v* is real
        for _ in range(50):
            p = pair(float(rng.uniform(0.05, 2.0)),
                     gamma2=float(rng.uniform(0.3, 3.0)))
            u = float(rng.uniform(0.05, 0.95))
            coeffs = oracles.SuperpositionCoeffs(u=math.sqrt(u),
                                                 v=math.sqrt(1 - u))
            gss, gaa, _, _ = oracles.superposition_rates(coeffs, p)
            assert (gss + gaa).real == pytest.approx(p.gamma1 + p.gamma2,
                                                     abs=1e-12)
            assert abs((gss + gaa).imag) < 1e-12


class TestCoherentCouplings:
    def test_balanced_real_coefficients(self):
        p = pair(0.2)
        omega12 = geometry.dipole_dipole_shift(p)
        drive = geometry.DriveField(rabi=1.0, detuning=0.7)
        shift, coupling = oracles.coherent_couplings(oracles.equal_coeffs(),
                                                     p, drive)
        assert shift == pytest.approx(omega12, abs=1e-12)
        assert abs(coupling) < 1e-14

    def test_running_wave_couplings(self):
        # running wave along the axis: the cross damping is -i gamma
        # sin(kL.r12) and the coherent coupling is detuning-driven with
        # the same magnitude (its overall sign fixes the atom-labeling
        # gauge; see the decisions ledger)
        s, det = 0.23, 1.4
        p = pair(s)
        drive = geometry.DriveField(rabi=1.0, detuning=det,
                                    propagation_angle=0.0)
        coeffs = oracles.drive_weighted_coeffs(drive, p)
        _, _, gas, gsa = oracles.superposition_rates(coeffs, p)
        kr = 2 * math.pi * s
        assert gas == pytest.approx(-1j * math.sin(kr), abs=1e-12)
        assert gsa == pytest.approx(+1j * math.sin(kr), abs=1e-12)
        _, coupling = oracles.coherent_couplings(coeffs, p, drive)
        assert coupling == pytest.approx(-1j * det * math.sin(kr), abs=1e-12)

    def test_standing_wave_coupling(self):
        # spatial offset pi*s reproduces the frame with one atom at a
        # field antinode; coupling follows sin^2/(1+cos^2)
        s = 0.19
        p = pair(s)
        omega12 = geometry.dipole_dipole_shift(p)
        drive = geometry.DriveField(rabi=1.0, propagation_angle=0.0,
                                    wave_type="standing", phase=math.pi * s)
        coeffs = oracles.drive_weighted_coeffs(drive, p)
        _, coupling = oracles.coherent_couplings(coeffs, p, drive)
        kr = 2 * math.pi * s
        expected = omega12 * math.sin(kr) ** 2 / (1 + math.cos(kr) ** 2)
        assert coupling.real == pytest.approx(expected, abs=1e-12)
        assert abs(coupling.imag) < 1e-12

    def test_no_coupling_for_equal_rates(self, rng):
        for _ in range(20):
            p = pair(float(rng.uniform(0.05, 1.0)))
            coeffs = oracles.decay_weighted_coeffs(p)
            drive = geometry.DriveField(rabi=1.0,
                                        detuning=float(rng.uniform(-3, 3)))
            _, coupling = oracles.coherent_couplings(coeffs, p, drive)
            assert abs(coupling) < 1e-14


class TestBasisTransform:
    def test_round_trip_identity(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng)
            rc = basis.basis_transform("to_collective", rho)
            back = basis.basis_transform("to_product", rc)
            assert np.abs(back - rho).max() < 1e-12

    def test_single_excited_atom_pattern(self):
        rho = ket_density(KET_EG)
        rc = basis.basis_transform("to_collective", rho)
        assert rc[1, 1] == pytest.approx(0.5)
        assert rc[2, 2] == pytest.approx(0.5)
        assert rc[1, 2] == pytest.approx(0.5)
        assert rc[2, 1] == pytest.approx(0.5)

    def test_symmetric_state_to_product(self):
        rc = np.zeros((4, 4), dtype=complex)
        rc[1, 1] = 1.0
        rho = basis.basis_transform("to_product", rc)
        assert np.abs(rho - np.outer(KET_S, KET_S.conj())).max() < 1e-14

    def test_preserves_trace_and_spectrum(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng)
            rc = basis.basis_transform("to_collective", rho)
            assert np.trace(rc).real == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(np.sort(np.linalg.eigvalsh(rc)),
                               np.sort(np.linalg.eigvalsh(rho)), atol=1e-12)

    def test_rejects_invalid_state(self):
        bad = np.eye(4, dtype=complex)  # trace 4
        with pytest.raises(ValidationError):
            basis.basis_transform("to_collective", bad)

    def test_nonidentical_basis_round_trip(self, rng):
        p = pair(0.1, delta=2.0)
        b = basis.build_basis(p)
        rho = random_density_matrix(rng)
        rc = basis.basis_transform("to_collective", rho, b)
        back = basis.basis_transform("to_product", rc, b)
        assert np.abs(back - rho).max() < 1e-12

    def test_dicke_basis_matches_default(self):
        assert np.abs(DICKE_BASIS.conj().T @ DICKE_BASIS - np.eye(4)).max() \
            < 1e-15
