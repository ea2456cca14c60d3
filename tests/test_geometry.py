import math

import mpmath
import numpy as np
import pytest

import oracles
from twoatom import geometry
from twoatom.errors import DomainError, ValidationError

# frozen 40-digit quadrature-free evaluations of the coupling profiles
DAMPING_QUARTER_WAVE_PERP = 0.5679112453529781444
SHIFT_ONE_WAVE_PERP = -0.1163426259658090497
SHIFT_QSTATIC_S001_PERP = 3017.630707746433996


def pair(separation, **kw):
    return geometry.AtomPairConfig(separation=separation, **kw)


class TestCollectiveDamping:
    def test_contact_limit_identical(self):
        assert geometry.collective_damping(pair(0.0)) == 1.0

    def test_contact_limit_nonidentical(self):
        p = pair(0.0, gamma2=4.0)
        assert geometry.collective_damping(p) == pytest.approx(2.0, abs=0)

    def test_vanishes_at_large_separation(self):
        assert abs(geometry.collective_damping(pair(10.0))) < 0.05

    def test_quarter_wavelength_value(self):
        got = geometry.collective_damping(pair(0.25))
        assert got == pytest.approx(DAMPING_QUARTER_WAVE_PERP, abs=1e-14)

    def test_bounded_by_geometric_mean(self):
        for s in np.linspace(0.01, 10.0, 400):
            for angle in (0.0, 0.3, math.pi / 2):
                p = pair(float(s), gamma2=2.5, dipole_angle=angle)
                g12 = geometry.collective_damping(p)
                assert g12 ** 2 <= p.gamma1 * p.gamma2 * (1 + 1e-12)

    def test_small_separation_limit(self):
        g12 = geometry.collective_damping(pair(1e-4))
        assert abs(g12 - 1.0) < 1e-4

    def test_continuity(self):
        grid = np.linspace(1e-3, 5.0, 2000)
        vals = [geometry.collective_damping(pair(float(s))) for s in grid]
        assert np.abs(np.diff(vals)).max() < 0.05


    def test_matches_high_precision_reference_near_contact(self):
        # separations log-uniform down to 1e-12, where the closed form
        # cos x/x^2 - sin x/x^3 loses about eps/x^2 to cancellation
        rng = np.random.default_rng(20261019)
        seps = 10.0 ** rng.uniform(-12.0, math.log10(3.0), 400)
        angles = rng.uniform(0.0, math.pi / 2, 400)
        gamma2 = rng.uniform(0.3, 3.0, 400)
        stacked = geometry.collective_damping(
            pair(seps, gamma2=gamma2, dipole_angle=angles))
        with mpmath.workdps(40):
            for k in range(seps.size):
                p = pair(float(seps[k]), gamma2=float(gamma2[k]),
                         dipole_angle=float(angles[k]))
                got = geometry.collective_damping(p)
                assert got == stacked[k]
                x = 2 * mpmath.pi * mpmath.mpf(p.separation)
                mu = mpmath.cos(mpmath.mpf(p.dipole_angle))
                profile = 1.5 * ((1 - mu ** 2) * mpmath.sin(x) / x
                                 + (1 - 3 * mu ** 2) * (mpmath.cos(x) / x ** 2
                                                        - mpmath.sin(x) / x ** 3))
                root = math.sqrt(p.gamma2)
                assert abs(got - float(root * profile)) <= 1e-12
                assert abs(got) <= root

    @pytest.mark.parametrize("separation, angle", [
        (1e-6, math.pi / 2), (1e-9, 0.0), (1e-10, math.pi / 2)])
    def test_near_contact_stays_at_its_bound(self, separation, angle):
        g12 = geometry.collective_damping(pair(separation, dipole_angle=angle))
        assert 1.0 - 1e-10 <= g12 <= 1.0

    def test_series_and_closed_form_agree_where_they_meet(self):
        seam = geometry._SERIES_X
        for mu in np.linspace(0.0, 1.0, 7):
            below = geometry.damping_profile(np.nextafter(seam, 0.0), mu)
            assert abs(below - geometry.damping_profile(seam, mu)) <= 1e-13


class TestDipoleDipoleShift:
    def test_zero_separation_rejected(self):
        with pytest.raises(DomainError):
            geometry.dipole_dipole_shift(pair(0.0))

    def test_quasistatic_agreement_close_in(self):
        p = pair(0.01)
        exact = geometry.dipole_dipole_shift(p)
        assert exact == pytest.approx(SHIFT_QSTATIC_S001_PERP, rel=1e-12)
        x = 2 * math.pi * 0.01
        assert exact == pytest.approx(3.0 / (4.0 * x ** 3), rel=0.01)

    def test_quasistatic_within_one_percent_below_002(self):
        for s in (0.005, 0.01, 0.02):
            p = pair(s)
            exact = geometry.dipole_dipole_shift(p)
            approx = oracles.quasistatic_shift(p)
            assert exact == pytest.approx(approx, rel=0.01)

    def test_one_wavelength_value(self):
        got = geometry.dipole_dipole_shift(pair(1.0))
        assert got == pytest.approx(SHIFT_ONE_WAVE_PERP, abs=1e-14)

    def test_oscillatory_sign_change(self):
        vals = [geometry.dipole_dipole_shift(pair(float(s)))
                for s in np.linspace(0.1, 1.0, 200)]
        assert np.min(vals) < 0 < np.max(vals)


class TestRabiAtAtoms:
    def test_perpendicular_running_wave_equal(self):
        drive = geometry.DriveField(rabi=1.7)
        om1, om2 = geometry.rabi_at_atoms(drive, pair(0.73))
        assert om1 == om2 == pytest.approx(1.7)

    def test_axial_half_wavelength_opposite_phase(self):
        drive = geometry.DriveField(rabi=2.0, propagation_angle=0.0)
        om1, om2 = geometry.rabi_at_atoms(drive, pair(0.5))
        assert om2 == pytest.approx(-om1, abs=1e-12)
        assert abs(om1) == pytest.approx(2.0)

    def test_antisymmetric_standing_configuration(self):
        s = 0.21
        drive = geometry.DriveField(rabi=1.0, propagation_angle=0.0,
                                    wave_type="standing", phase=math.pi / 2)
        om1, om2 = geometry.rabi_at_atoms(drive, pair(s))
        assert om1 == pytest.approx(-om2, abs=1e-12)
        assert abs(om1) == pytest.approx(math.sin(math.pi * s), abs=1e-12)

    def test_perpendicular_difference_exactly_zero(self, rng):
        for _ in range(25):
            drive = geometry.DriveField(rabi=float(rng.uniform(0, 3)))
            om1, om2 = geometry.rabi_at_atoms(
                drive, pair(float(rng.uniform(0, 2))))
            assert om1 - om2 == 0


class TestSqueezing:
    def test_full_cone_perfect_matching(self):
        res = geometry.SqueezedReservoir(n_photons=2.0, m_magnitude=0.0,
                                         solid_angle=math.pi)
        n_eff, _ = geometry.effective_squeezing(res)
        assert n_eff == pytest.approx(2.0, abs=1e-14)

    def test_half_cone(self):
        res = geometry.SqueezedReservoir(n_photons=2.0, m_magnitude=0.0,
                                         solid_angle=math.pi / 2)
        n_eff, _ = geometry.effective_squeezing(res)
        assert n_eff == pytest.approx(1.0, abs=1e-14)

    def test_vacuum(self):
        res = geometry.SqueezedReservoir(n_photons=0.0, m_magnitude=0.0)
        assert geometry.effective_squeezing(res) == (0.0, 0.0)

    def test_classification(self):
        assert oracles.classify_squeezing(0, 0) == "vacuum"
        assert oracles.classify_squeezing(1.0, math.sqrt(2.0)) == "quantum"
        assert oracles.classify_squeezing(1.0, 1.0) == "classical"
        assert oracles.classify_squeezing(0.5, 2.0) == "invalid"
        assert oracles.classify_squeezing(1.0, 0.0) == "classical"

    def test_invalid_reservoir_rejected(self):
        with pytest.raises(ValidationError):
            geometry.SqueezedReservoir(n_photons=0.5, m_magnitude=2.0)

    def test_effective_values_never_invalid(self, rng):
        for _ in range(200):
            n = float(rng.uniform(0, 5))
            m = float(rng.uniform(0, math.sqrt(n * (n + 1))))
            res = geometry.SqueezedReservoir(
                n_photons=n, m_magnitude=m,
                matching=float(rng.uniform(0, 1)),
                solid_angle=float(rng.uniform(0.1, math.pi)))
            n_eff, m_eff = geometry.effective_squeezing(res)
            assert oracles.classify_squeezing(n_eff, m_eff) != "invalid"

    def test_gaussian_matching_bounded(self):
        for w0 in (0.1, 1.0, 5.0):
            for th in (0.0, 0.4, math.pi / 2):
                assert 0 < oracles.gaussian_matching(w0, th) <= 1
        # the focal offset is a pure phase and leaves the modulus alone
        assert oracles.gaussian_matching(1.0, 0.4, focal_offset=3.0) == \
            oracles.gaussian_matching(1.0, 0.4)


class TestValidation:
    def test_negative_separation(self):
        with pytest.raises(ValidationError):
            pair(-1.0)

    def test_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            pair(0.5, gamma2=0.0)

    def test_dipole_angle_range(self):
        with pytest.raises(ValidationError):
            pair(0.5, dipole_angle=2.0)

    def test_negative_rabi(self):
        with pytest.raises(ValidationError):
            geometry.DriveField(rabi=-1.0)

    def test_bad_wave_type(self):
        with pytest.raises(ValidationError):
            geometry.DriveField(rabi=1.0, wave_type="plane")


class TestInverseLookups:
    def test_damping_ratio_roundtrip(self):
        for target in (0.0, 0.3, 0.5, 0.9, 0.99):
            s = oracles.separation_for_damping(target)
            if target == 1.0:
                assert s == 0.0
            else:
                assert geometry.collective_damping(pair(s)) == pytest.approx(
                    target, abs=1e-10)

    def test_shift_roundtrip(self):
        for target in (3.0, 10.0, 50.0):
            s = oracles.separation_for_shift(target)
            assert abs(geometry.dipole_dipole_shift(pair(s))) == \
                pytest.approx(target, abs=1e-8)
