import dataclasses
import math

import numpy as np
import pytest

import oracles
from conftest import random_density_matrix, random_pair
from oracles import ValidityWarning
from twoatom import basis, dynamics, geometry, observables
from twoatom.errors import DomainError, UndefinedValueError, ValidationError
from twoatom.operators import KET_A, KET_EE, KET_S, ket_density, S1M, S2M, S1Z, S2Z


def pair(separation, **kw):
    return geometry.AtomPairConfig(separation=separation, **kw)


def perp():
    return observables.DetectionGeometry(theta1=math.pi / 2)


def stacked_pair(pairs):
    """One AtomPairConfig whose fields stack those of ``pairs``."""
    return geometry.AtomPairConfig(**{
        f.name: np.array([getattr(p, f.name) for p in pairs])
        for f in dataclasses.fields(geometry.AtomPairConfig)})


class TestTotalIntensity:
    def test_ground_state_dark(self):
        assert observables.total_intensity(
            np.diag([1., 0, 0, 0]).astype(complex), pair(0.3)) == 0

    def test_dicke_strong_drive(self):
        gen = dynamics.build_vacuum_drive(pair(0.0),
                                          geometry.DriveField(rabi=1000.0))
        rho, _ = dynamics.steady_state(gen)
        assert observables.total_intensity(rho, pair(0.0)) == pytest.approx(
            4.0 / 3.0, rel=5e-3)

    def test_extended_strong_drive(self):
        p = pair(0.3)
        gen = dynamics.build_vacuum_drive(p, geometry.DriveField(rabi=1000.0))
        rho, _ = dynamics.steady_state(gen)
        assert observables.total_intensity(rho, p) == pytest.approx(
            1.0, rel=5e-3)


class TestAngularIntensity:
    def test_antisymmetric_dark_perpendicular(self):
        value = observables.angular_intensity(ket_density(KET_A), pair(0.4),
                                              perp())
        assert abs(value) < 1e-12

    def test_balanced_populations_isotropic(self):
        rho = np.diag([0.4, 0.25, 0.25, 0.1]).astype(complex)
        rho = basis.basis_transform("to_product", rho)
        p = pair(0.6)
        vals = [observables.angular_intensity(
            rho, p, observables.DetectionGeometry(theta1=th))
            for th in np.linspace(0, math.pi, 17)]
        assert np.ptp(vals) < 1e-12

    def test_matches_collective_state_form(self, rng):
        # identical atoms: the angular distribution decomposes into the
        # symmetric and antisymmetric channels plus their interference
        p = pair(0.37)
        u = 3.0 / (8.0 * math.pi)
        for _ in range(10):
            rho = random_density_matrix(rng)
            rc = basis.basis_transform("to_collective", rho)
            theta = float(rng.uniform(0, math.pi))
            phase = 2 * math.pi * p.separation * math.cos(theta)
            ree, rss, raa = rc[3, 3].real, rc[1, 1].real, rc[2, 2].real
            ref = u * ((ree + rss) * (1 + math.cos(phase))
                       + (ree + raa) * (1 - math.cos(phase))
                       + (1j * (rc[1, 2] - rc[2, 1])).real * math.sin(phase))
            geom = observables.DetectionGeometry(theta1=theta)
            assert observables.angular_intensity(rho, p, geom) == \
                pytest.approx(ref, abs=1e-12)

    def test_nonnegative_for_random_states(self, rng):
        for _ in range(40):
            p = random_pair(rng, identical=True)
            rho = random_density_matrix(rng)
            geom = observables.DetectionGeometry(
                theta1=float(rng.uniform(0, math.pi)),
                phi=float(rng.uniform(0, math.pi)))
            assert observables.angular_intensity(rho, p, geom) >= -1e-12

    def test_array_angles_match_scalar_calls(self, rng):
        p = pair(0.37)
        rho = random_density_matrix(rng)
        thetas = rng.uniform(0, math.pi, (3, 1))
        phis = rng.uniform(0, math.pi, 4)
        grid = observables.angular_intensity(
            rho, p, observables.DetectionGeometry(theta1=thetas, phi=phis))
        assert grid.shape == (3, 4)
        for (i, j), value in np.ndenumerate(grid):
            one = observables.angular_intensity(
                rho, p, observables.DetectionGeometry(
                    theta1=float(thetas[i, 0]), phi=float(phis[j])))
            assert isinstance(one, float)
            assert value == pytest.approx(one, abs=1e-15)
        with pytest.raises(ValidationError):
            observables.DetectionGeometry(theta1=np.array([0.5, 4.0]))

    def test_solid_angle_integral_is_total_intensity(self, rng):
        # quadrature over the sphere with the exact dipole pattern
        for _ in range(5):
            p = random_pair(rng, identical=True)
            rho = random_density_matrix(rng)
            nodes, weights = np.polynomial.legendre.leggauss(120)
            phis = np.linspace(0, 2 * math.pi, 241)[:-1]
            mu_hat = np.array([math.cos(p.dipole_angle), 0.0,
                               math.sin(p.dipole_angle)])
            c = nodes[:, None]
            sin_t = np.sqrt(1 - c * c)
            khats = np.stack(np.broadcast_arrays(
                c, sin_t * np.cos(phis), sin_t * np.sin(phis)), axis=-1)
            # theta1 is the angle to the interatomic (x) axis, phi the
            # angle between k and the dipole
            dipole = np.arccos(np.clip(khats @ mu_hat, -1.0, 1.0))
            vals = observables.angular_intensity(
                rho, p, observables.DetectionGeometry(
                    theta1=np.arccos(c), phi=dipole))
            total = (weights * vals.mean(axis=1)).sum() * 2 * math.pi
            assert total == pytest.approx(
                observables.total_intensity(rho, p), abs=1e-6)


class TestG2:
    def test_forbidden_detector_separation(self):
        # detectors half an interference order apart never fire together
        p = pair(0.5)
        gen = dynamics.build_vacuum_drive(p, geometry.DriveField(rabi=1.0))
        rho, _ = dynamics.steady_state(gen)
        geom = observables.DetectionGeometry(theta1=0.0, theta2=math.pi / 2)
        assert observables.g2_zero(rho, p, geom) < 1e-10

    def test_matches_closed_form_for_perpendicular_drive(self, rng):
        for _ in range(5):
            p = pair(float(rng.uniform(0.05, 0.5)))
            om = float(rng.uniform(0.2, 3.0))
            det = float(rng.uniform(-4, 4))
            gen = dynamics.build_vacuum_drive(
                p, geometry.DriveField(rabi=om, detuning=det))
            rho, _ = dynamics.steady_state(gen)
            th1, th2 = rng.uniform(0, math.pi, size=2)
            geom = observables.DetectionGeometry(theta1=th1, theta2=th2)
            got = observables.g2_zero(rho, p, geom)
            ref = oracles.driven_g2_zero(
                om, det, 1.0, geometry.collective_damping(p),
                geometry.dipole_dipole_shift(p), p.separation, th1, th2)
            assert got == pytest.approx(ref, abs=1e-10)

    def test_weak_drive_detuned_anticorrelation(self):
        # tuning the drive to the shifted one-photon line gives a deep
        # anticorrelation; the exact weak-field limit carries an extra
        # (1 + W)^2 -> 4 in the denominator relative to the quoted
        # approximation (see the decisions ledger)
        p = pair(0.08)
        omega12 = geometry.dipole_dipole_shift(p)
        gen = dynamics.build_vacuum_drive(
            p, geometry.DriveField(rabi=0.05, detuning=omega12))
        rho, _ = dynamics.steady_state(gen)
        got = observables.g2_zero(rho, p, perp())
        # the level shift is only a few linewidths here, so the closed form
        # flags its validity margin
        with pytest.warns(ValidityWarning):
            ref = oracles.anticorrelation_detuned(
                1.0, geometry.collective_damping(p), omega12)
        assert got < 0.01  # pronounced anticorrelation
        assert got == pytest.approx(ref / 4.0, rel=0.05)

    def test_dark_detector_raises(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        with pytest.raises(UndefinedValueError):
            observables.g2_zero(rho, pair(0.2), perp())

    def test_tau_zero_matches_g2_zero(self, rng):
        for _ in range(5):
            p = pair(float(rng.uniform(0.05, 0.4)))
            gen = dynamics.build_vacuum_drive(
                p, geometry.DriveField(rabi=float(rng.uniform(0.5, 3))))
            rho, _ = dynamics.steady_state(gen)
            series = observables.g2_tau(gen, rho, p, perp(),
                                        np.array([0.0, 0.1]))
            assert series.values[0] == pytest.approx(
                observables.g2_zero(rho, p, perp()), abs=1e-8)

    def test_long_delay_factorizes(self):
        # the slowest relaxation is the subradiant channel, so the delay
        # must be long on the 1/(gamma - Gamma12) scale
        p = pair(0.15)
        gen = dynamics.build_vacuum_drive(p, geometry.DriveField(rabi=2.0))
        rho, _ = dynamics.steady_state(gen)
        series = observables.g2_tau(gen, rho, p, perp(),
                                    np.array([0.0, 80.0]))
        assert series.values[-1] == pytest.approx(1.0, abs=1e-4)

    def test_transient_beats_identical_atoms(self):
        # both atoms excited, no drive: the unnormalized correlation knows
        # the dipole-dipole beat
        p = pair(0.13)
        g12 = geometry.collective_damping(p)
        omega12 = geometry.dipole_dipole_shift(p)
        gen = dynamics.build_vacuum_drive(p, geometry.DriveField(rabi=0.0))
        taus = np.linspace(0, 2, 81)
        geom = observables.DetectionGeometry(theta1=0.35, theta2=2.1)
        got = observables.g2_tau(gen, ket_density(KET_EE), p, geom, taus,
                                 normalize=False)
        ref = oracles.transient_g2_identical(0.0, taus, 1.0, g12, omega12,
                                             p.separation, 0.35, 2.1)
        # identical decay/beat structure; the quoted envelope constant is a
        # quarter of the operator normalization (decisions ledger)
        assert np.abs(got.values - 4.0 * ref).max() < 1e-7

    def test_transient_beats_independent_atoms(self):
        # uncoupled dynamics assembled directly; the detection phases keep
        # the finite separation.  The closed form's delay phase is written
        # in the exchanged atom labeling, so the sign of the splitting
        # flips, and its envelope constant is again a quarter of the
        # operator normalization.
        delta, s = 1.3, 0.4
        p = pair(s, delta=delta)
        gen = dynamics.Generator(h=delta * (S2Z - S1Z), rates=[1.0, 1.0],
                                 ops=[S1M, S2M], scenario="independent")
        taus = np.linspace(0, 3, 91)
        geom = observables.DetectionGeometry(theta1=0.2, theta2=1.9)
        got = observables.g2_tau(gen, ket_density(KET_EE), p, geom, taus,
                                 normalize=False)
        ref = oracles.transient_g2_independent(0.0, taus, 1.0, 1.0, -delta,
                                               s, 0.2, 1.9)
        # pointwise match pins the beat at twice the frequency splitting
        assert np.abs(got.values - 4.0 * ref).max() < 1e-7

    def test_series_csv_format(self):
        series = observables.CorrelationSeries(
            taus=np.array([0.0, 0.5]), values=np.array([0.75, 1.25]))
        text = series.to_csv()
        assert text.splitlines()[0] == "tau,value"
        assert text.endswith("\n")


class TestMandelQ:
    def test_poissonian(self):
        assert oracles.mandel_q(1.0, 0.4, 2.0) == 0

    def test_sub_poissonian(self):
        assert oracles.mandel_q(0.75, 1.0, 1.0) == pytest.approx(-0.25)

    def test_super_poissonian(self):
        assert oracles.mandel_q(2.0, 0.5, 1.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            oracles.mandel_q(-0.1, 0.5, 1.0)
        with pytest.raises(ValidationError):
            oracles.mandel_q(1.0, 0.0, 1.0)


class TestQuadratureVariance:
    def test_ground_state_no_fluorescence(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        assert observables.quadrature_variance(rho, pair(0.0), 0.0,
                                               perp()) == 0

    def test_requires_perpendicular_observation(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        with pytest.raises(DomainError):
            observables.quadrature_variance(rho, pair(0.0), 0.0,
                                            observables.DetectionGeometry(
                                                theta1=0.3))

    def test_transient_dip_reaches_vacuum_floor(self):
        gen = dynamics.build_vacuum_drive(pair(0.0),
                                          geometry.DriveField(rabi=100.0))
        grid = np.linspace(0, 0.05, 801)
        series = dynamics.evolve(gen, np.diag([1., 0, 0, 0]).astype(complex),
                                 grid)
        vals = [observables.quadrature_variance(series.states[k], pair(0.0),
                                                0.0, perp())
                for k in range(len(grid))]
        assert min(vals) == pytest.approx(-1 / 16, rel=0.02)

    def test_two_photon_resonance_profile(self):
        # omega12 >> rabi >> gamma near the two-photon resonance: the
        # dipole-dipole induced two-photon coherence yields a dispersive
        # alpha = 0 profile and an absorptive alpha = pi/4 one.  The exact
        # asymptote of the stationary state in this regime is
        # (rabi^2/4 omega12)(2 detuning cos2a + gamma sin2a)/(gamma^2 +
        # 4 detuning^2); the quoted leading-order profile shares its shape
        # with coefficient slips recorded in the decisions ledger.
        s = oracles.separation_for_shift(3000.0)
        p = pair(s)
        omega12 = geometry.dipole_dipole_shift(p)
        detunings = np.linspace(-2, 2, 9)
        vals0, vals4 = [], []
        for d in detunings:
            gen = dynamics.build_vacuum_drive(
                p, geometry.DriveField(rabi=10.0, detuning=d))
            rho, _ = dynamics.steady_state(gen)
            vals0.append(observables.quadrature_variance(rho, p, 0.0, perp()))
            vals4.append(observables.quadrature_variance(rho, p,
                                                         math.pi / 4, perp()))
        vals0, vals4 = np.array(vals0), np.array(vals4)

        def asymptote(alpha, det):
            lorentz = 1.0 + 4.0 * det ** 2
            return (100.0 / (4.0 * omega12)) \
                * (2.0 * det * math.cos(2 * alpha)
                   + math.sin(2 * alpha)) / lorentz

        ref0 = np.array([asymptote(0.0, d) for d in detunings])
        ref4 = np.array([asymptote(math.pi / 4, d) for d in detunings])
        scale = np.abs(ref4).max()
        assert np.abs(vals0 - ref0).max() < 0.05 * scale
        assert np.abs(vals4 - ref4).max() < 0.05 * scale
        # dispersion crosses zero at resonance, absorption peaks there
        assert abs(vals0[4]) < 0.1 * np.abs(vals0).max()
        assert vals4[4] == pytest.approx(max(vals4), abs=1e-12)
        # and the quoted profile agrees after the coefficient repair
        quoted0 = oracles.twophoton_variance_profile(0.0, detunings, 1.0,
                                                     10.0, omega12)
        assert np.abs(2.0 * ref0 - quoted0).max() < 1e-12

    def test_vacuum_floor_bound(self, rng):
        for _ in range(40):
            rho = random_density_matrix(rng)
            alpha = float(rng.uniform(0, 2 * math.pi))
            val = observables.quadrature_variance(rho, pair(0.0), alpha,
                                                  perp())
            assert val >= -0.25 - 1e-12


class TestVisibility:
    def test_balanced_mixture_vanishes(self):
        rho = np.eye(4, dtype=complex) / 4.0
        assert abs(observables.visibility(rho)) < 1e-14

    def test_antisymmetric_dark_fringe(self):
        assert observables.visibility(ket_density(KET_A)) == pytest.approx(-1)
        mixed = 0.6 * ket_density(KET_A) \
            + 0.4 * np.diag([1.0, 0, 0, 0]).astype(complex)
        assert observables.visibility(mixed) == pytest.approx(-1)

    def test_symmetric_bright_fringe(self):
        assert observables.visibility(ket_density(KET_S)) == pytest.approx(1)

    def test_driven_steady_state_matches_closed_form(self, rng):
        for _ in range(10):
            p = pair(float(rng.uniform(0.05, 1.0)))
            om = float(rng.uniform(0.1, 4.0))
            det = float(rng.uniform(-5, 5))
            gen = dynamics.build_vacuum_drive(
                p, geometry.DriveField(rabi=om, detuning=det))
            rho, _ = dynamics.steady_state(gen)
            assert observables.visibility(rho) == pytest.approx(
                oracles.driven_visibility(om, det, 1.0), abs=1e-10)

    def test_ground_state_undefined(self):
        with pytest.raises(UndefinedValueError):
            observables.visibility(np.diag([1., 0, 0, 0]).astype(complex))

    def test_bounded(self, rng):
        for _ in range(50):
            rho = random_density_matrix(rng)
            try:
                v = observables.visibility(rho)
            except UndefinedValueError:
                continue
            assert -1 - 1e-10 <= v <= 1 + 1e-10


class TestPurityAndSpin:
    def test_pure_state(self, rng):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        assert observables.purity(ket_density(psi)) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert observables.purity(np.eye(4, dtype=complex) / 4) == \
            pytest.approx(0.25)

    def test_total_spin_values(self):
        assert observables.total_spin_squared(
            np.diag([1., 0, 0, 0]).astype(complex)) == pytest.approx(2.0)
        assert observables.total_spin_squared(ket_density(KET_A)) == \
            pytest.approx(0.0)
        rho = basis.basis_transform(
            "to_product", np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex))
        assert observables.total_spin_squared(rho) == pytest.approx(1.5)


class TestStackedObservables:
    def test_stack_equals_per_state_calls(self, rng):
        # random states plus the dark ground state, whose visibility is
        # NaN in a stack and an error on its own
        dark = np.diag([1.0, 0, 0, 0]).astype(complex)
        states = np.array([random_density_matrix(rng) for _ in range(6)]
                          + [dark])
        pairs = [random_pair(rng) for _ in states]
        cb = basis.build_basis(pairs[0])
        stacked = {
            "populations": basis.collective_populations(states, cb),
            "transform": basis.basis_transform("to_product", states, cb),
            "intensity": observables.total_intensity(states, pairs[0]),
            "intensity_per_pair": observables.total_intensity(
                states, stacked_pair(pairs)),
            "visibility": observables.visibility(states[:-1]),
            "purity": observables.purity(states),
            "spin_squared": observables.total_spin_squared(states),
            "variance": observables.quadrature_variance(states, pairs[0],
                                                        0.7, perp()),
        }
        for k, rho in enumerate(states):
            single = {
                "populations": basis.collective_populations(rho, cb),
                "transform": basis.basis_transform("to_product", rho, cb),
                "intensity": observables.total_intensity(rho, pairs[0]),
                "intensity_per_pair": observables.total_intensity(rho,
                                                                  pairs[k]),
                "purity": observables.purity(rho),
                "spin_squared": observables.total_spin_squared(rho),
                "variance": observables.quadrature_variance(rho, pairs[0],
                                                            0.7, perp()),
            }
            if k < len(states) - 1:
                single["visibility"] = observables.visibility(rho)
            # the emission rate written out term by term
            gm = geometry.damping_matrix(pairs[k])
            ops = ((S1M, S1M), (S1M, S2M), (S2M, S1M), (S2M, S2M))
            rate = sum(gm[i // 2, i % 2]
                       * np.trace(rho @ a.conj().T @ b).real
                       for i, (a, b) in enumerate(ops))
            assert stacked["intensity_per_pair"][k] == pytest.approx(
                max(rate, 0.0), abs=1e-14)
            for name, value in single.items():
                assert np.abs(stacked[name][k] - value).max() <= 1e-15, name
        visibility = observables.visibility(states)
        assert np.isnan(visibility[-1])
        assert np.array_equal(visibility[:-1], stacked["visibility"])
        with pytest.raises(UndefinedValueError):
            observables.visibility(dark)
        # one state off unit trace rejects the whole stack
        states[1, 0, 0] += 0.1
        with pytest.raises(ValidationError, match="trace"):
            observables.purity(states)


class TestFieldVarianceMapping:
    def _steady(self, n_eff):
        res = geometry.SqueezedReservoir(
            n_photons=n_eff, m_magnitude=math.sqrt(n_eff * (n_eff + 1)))
        gen = dynamics.build_squeezed(pair(0.0), res)
        rho, _ = dynamics.steady_state(gen)
        return res, rho

    def test_weak_field_perfect_mapping(self):
        res, rho = self._steady(0.005)
        incident, emitted = oracles.field_variance_mapping(res, rho)
        assert emitted / incident == pytest.approx(1.0, abs=0.01)

    def test_half_photon_ratio(self):
        res, rho = self._steady(0.5)
        incident, emitted = oracles.field_variance_mapping(res, rho)
        assert emitted / incident == pytest.approx(0.5, abs=1e-10)
        assert emitted == pytest.approx(
            oracles.emitted_variance_dicke(0.5, math.sqrt(0.75)), abs=1e-10)

    def test_no_squeezing_no_negative_variance(self):
        res = geometry.SqueezedReservoir(n_photons=0.7, m_magnitude=0.0)
        gen = dynamics.build_squeezed(pair(0.0), res)
        rho, _ = dynamics.steady_state(gen)
        incident, emitted = oracles.field_variance_mapping(res, rho)
        assert incident >= 0 and emitted >= 0


class TestSqueezedVisibilityGrid:
    def test_matches_closed_form(self):
        for n in (0.05, 0.5, 5.0):
            for a in (0.3, 0.7, 0.99):
                m = math.sqrt(n * (n + 1))
                p = pair(oracles.separation_for_damping(a))
                res = geometry.SqueezedReservoir(n_photons=n, m_magnitude=m)
                gen = dynamics.build_squeezed(p, res)
                rho, _ = dynamics.steady_state(gen)
                assert observables.visibility(rho) == pytest.approx(
                    oracles.squeezed_visibility(n, m, a), abs=1e-8)
