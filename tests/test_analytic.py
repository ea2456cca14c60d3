import math
import warnings

import numpy as np
import pytest

import oracles
from oracles import ValidityWarning
from twoatom import analytic
from twoatom.operators import DICKE_BASIS, KET_GG


class TestBeatIntensities:
    def test_frequency_split_initial_value(self):
        gamma, g12, omega12, delta = 1.0, 0.95, 40.0, -2.0
        got = oracles.beat_intensity_frequency_split(0.0, gamma, g12,
                                                     omega12, delta)
        assert got == pytest.approx(gamma + delta * g12 / (2 * omega12),
                                    abs=1e-14)

    def test_frequency_split_warns_outside_regime(self):
        with pytest.warns(ValidityWarning):
            oracles.beat_intensity_frequency_split(0.0, 1.0, 0.95, 4.0, -2.0)

    def test_rate_split_no_beats_for_equal_rates(self):
        t = np.linspace(0, 3, 40)
        got = oracles.beat_intensity_rate_split(t, 1.0, 1.0, 0.97, 30.0)
        smooth = np.exp(-t) * (np.cosh(0.97 * t) - 0.97 * np.sinh(0.97 * t))
        assert np.abs(got - smooth).max() < 1e-14

    def test_pulse_population_reaches_unity(self):
        rabi = 2.0
        t_pi = math.pi / (math.sqrt(2) * rabi)
        assert oracles.pulse_symmetric_population(t_pi, rabi) == \
            pytest.approx(1.0, abs=1e-12)

    def test_population_decay_rates(self):
        pss, paa = oracles.population_decay(2.0, 1.0, 0.8)
        assert pss == pytest.approx(0.5 * math.exp(-3.6))
        assert paa == pytest.approx(0.5 * math.exp(-0.4))


class TestG2Forms:
    def test_dressed_zero_delay(self):
        assert oracles.dressed_g2(0.0, 1.0, 100.0) == pytest.approx(0.75,
                                                                    abs=1e-14)

    def test_dressed_long_delay(self):
        assert oracles.dressed_g2(50.0, 1.0, 100.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_detuned_anticorrelation_value(self):
        gamma, g12 = 1.0, 0.9
        detuning = 10 * (gamma + g12) / 2
        # 9.5 linewidths sits just under the ten-linewidth margin
        with pytest.warns(ValidityWarning):
            got = oracles.anticorrelation_detuned(gamma, g12, detuning)
        assert got == pytest.approx(0.01, abs=1e-14)

    def test_driven_g2_zero_consistency_with_visibility_denominator(self):
        # both closed forms share the same saturation denominator
        val = oracles.driven_g2_zero(0.5, 0.0, 1.0, 0.9, 3.0, 0.1,
                                     math.pi / 2, math.pi / 2)
        assert val > 0


class TestVarianceForms:
    def test_inphase_starts_at_zero(self):
        assert oracles.transient_variance_inphase(0.0, 1.0, 100.0) == \
            pytest.approx(0.0, abs=1e-14)

    def test_quadrature_never_negative(self):
        t = np.linspace(0, 10, 4001)
        vals = oracles.transient_variance_quadrature(t, 1.0, 100.0)
        assert vals.min() > -1e-12

    def test_inphase_minimum_near_vacuum_floor(self):
        t = np.linspace(0, 0.1, 20001)
        vals = oracles.transient_variance_inphase(t, 1.0, 1000.0)
        assert vals.min() == pytest.approx(-1 / 16, rel=0.01)

    def test_twophoton_profile_dispersive_zero(self):
        assert oracles.twophoton_variance_profile(0.0, 0.0, 1.0, 10.0,
                                                  1000.0) == 0.0


class TestVisibilityForms:
    def test_weak_drive_full_contrast(self):
        assert oracles.driven_visibility(0.0, 1.3, 1.0) == pytest.approx(1.0)

    def test_moderate_drive_one_third(self):
        assert oracles.driven_visibility(1.0, 0.0, 1.0) == pytest.approx(
            1.0 / 3.0, abs=1e-14)

    def test_squeezed_visibility_strong_field_limit(self):
        # ideal quantum squeezing at full collective damping simplifies to
        # -(2n+2)/(4n+3), which approaches -1/2 from below
        n = 1e3
        m = math.sqrt(n * (n + 1))
        got = oracles.squeezed_visibility(n, m, 1.0)
        assert got == pytest.approx(-(2 * n + 2) / (4 * n + 3), abs=1e-7)
        assert got == pytest.approx(-0.5, abs=1e-3)

    def test_squeezed_visibility_matches_state_ratio(self):
        for n in (0.05, 0.5, 5.0):
            for a in (0.2, 0.8):
                m = math.sqrt(n * (n + 1))
                ref = analytic.squeezed_steady_finite(n, m, a)
                vis = (ref["rss"] - ref["raa"]) / (
                    ref["rss"] + ref["raa"] + 2 * ref["ree"])
                assert oracles.squeezed_visibility(n, m, a) == \
                    pytest.approx(vis, abs=1e-12)


class TestSqueezedSteadyForms:
    def test_classical_maximal_correlations(self):
        n = 0.7
        ref = oracles.squeezed_steady_dicke(n, n)
        assert ref["rss"] == pytest.approx(n / (3 * n + 1), abs=1e-14)
        assert ref["ree"] == pytest.approx(
            2 * n ** 2 / ((2 * n + 1) * (3 * n + 1)), abs=1e-14)

    def test_ideal_quantum_correlations(self):
        n = 0.7
        m = math.sqrt(n * (n + 1))
        ref = oracles.squeezed_steady_dicke(n, m)
        assert ref["rss"] == pytest.approx(0.0, abs=1e-14)
        assert ref["ree"] == pytest.approx(n / (2 * n + 1), abs=1e-14)

    def test_finite_separation_populations_sum_to_one(self):
        for n in (0.05, 0.5, 5.0):
            for a in (0.0, 0.5, 0.99):
                for scale in (0.3, 1.0):
                    m = scale * math.sqrt(n * (n + 1))
                    ref = analytic.squeezed_steady_finite(n, m, a)
                    total = ref["rgg"] + ref["rss"] + ref["raa"] + ref["ree"]
                    assert total == pytest.approx(1.0, abs=1e-12)
                    assert all(ref[k] >= -1e-12
                               for k in ("rgg", "rss", "raa", "ree"))

    def test_secular_equal_intermediate_populations(self):
        for n in (0.05, 0.5, 5.0):
            for a in (0.0, 0.5, 0.99):
                ref = oracles.squeezed_steady_secular(
                    n, math.sqrt(n * (n + 1)), a)
                assert ref["rss"] == ref["raa"]

    def test_driven_correlators_strong_field_dicke(self):
        ref = oracles.driven_correlators_dicke(1e4, 1.0)
        assert ref["population"] == pytest.approx(0.5, abs=1e-6)
        assert ref["cross"] == pytest.approx(1.0 / 6.0, abs=1e-6)
        assert ref["intensity"] == pytest.approx(4.0 / 3.0, abs=1e-6)


class TestEntangledStates:
    def test_ideal_dicke_pure_state(self):
        n = 0.5
        rho = np.zeros((4, 4), dtype=complex)
        ref = oracles.squeezed_steady_dicke(n, math.sqrt(n * (n + 1)))
        rho[0, 0] = ref["rgg"]
        rho[3, 3] = ref["ree"]
        rho[3, 0] = rho[0, 3] = ref["ru"] / 2
        states = oracles.entangled_eigenstates(rho)
        labels = {label: pop for label, pop, _ in states}
        assert labels["tpe_plus"] == pytest.approx(1.0, abs=1e-12)
        assert labels["tpe_minus"] == pytest.approx(0.0, abs=1e-12)
        assert labels["symmetric"] == pytest.approx(0.0, abs=1e-12)
        vec = dict((l, v) for l, _, v in states)["tpe_plus"]
        prod = DICKE_BASIS @ vec
        assert np.abs(prod - oracles.tpe_state(n)).max() < 1e-10

    def test_vacuum_limit_is_ground_state(self):
        assert np.abs(oracles.tpe_state(0.0) - KET_GG).max() < 1e-14

    def test_finite_separation_two_state_mixture(self):
        n = 0.5
        m = math.sqrt(n * (n + 1))
        ref = analytic.squeezed_steady_finite(n, m, 0.99)
        rho = np.diag([ref["rgg"], ref["rss"], ref["raa"],
                       ref["ree"]]).astype(complex)
        rho[3, 0] = rho[0, 3] = ref["ru"] / 2
        states = oracles.entangled_eigenstates(rho)
        pops = {label: pop for label, pop, _ in states}
        assert pops["tpe_minus"] < 0.02
        assert pops["symmetric"] < 0.02
        assert pops["tpe_plus"] + pops["antisymmetric"] > 0.96

    def test_annihilation_residual(self):
        for n in (0.1, 0.5, 2.0, 10.0):
            for phi in (0.0, 1.2):
                psi = oracles.tpe_state(n, phi)
                residual = oracles.tpe_annihilation_residual(psi, n, phi)
                assert residual < 1e-12

    def test_annihilator_normalization(self):
        # mu^2 - nu^2 = 1 keeps the dressed lowering operator bosonic-like
        n = 0.8
        mu2 = n + 1
        nu2 = n
        assert mu2 - nu2 == pytest.approx(1.0)

    def test_structure_warning_for_general_state(self, rng):
        from conftest import random_density_matrix
        rho = random_density_matrix(rng)
        with pytest.warns(ValidityWarning):
            out = oracles.entangled_eigenstates(rho)
        assert len(out) == 4
        assert sum(p for _, p, _ in out) == pytest.approx(1.0, abs=1e-10)


class TestFluctuationMapping:
    def test_squeezed_input_is_negative(self):
        n = 0.5
        m = math.sqrt(n * (n + 1))
        assert oracles.incident_variance(n, m) < 0

    def test_mapping_ratio(self):
        n = 0.5
        m = math.sqrt(n * (n + 1))
        ratio = oracles.emitted_variance_dicke(n, m) / \
            oracles.incident_variance(n, m)
        assert ratio == pytest.approx(1 / (2 * n + 1), abs=1e-14)


class TestDispatchAndValidity:
    def test_all_oracles_finite_on_validity_domain(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ValidityWarning)
            t = np.linspace(0, 5, 11)
            assert np.isfinite(oracles.beat_intensity_frequency_split(
                t, 1.0, 0.95, 50.0, -2.0)).all()
            assert np.isfinite(oracles.beat_intensity_rate_split(
                t, 1.0, 2.0, 0.97, 40.0)).all()
            assert np.isfinite(oracles.dressed_g2(t, 1.0, 100.0)).all()
            assert np.isfinite(oracles.transient_variance_inphase(
                t, 1.0, 100.0)).all()
            for n in (0.05, 0.5, 5.0):
                m = math.sqrt(n * (n + 1))
                for a in (0.0, 0.5, 0.99):
                    for fn in (analytic.squeezed_steady_finite,
                               oracles.squeezed_steady_secular):
                        assert all(np.isfinite(v)
                                   for v in fn(n, m, a).values())
                    assert np.isfinite(
                        oracles.squeezed_visibility(n, m, a))
