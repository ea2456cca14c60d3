"""Property tests of the Lindblad models behind every generator.

Each builder states a Hamiltonian and decay channels; the generator, the
no-jump Hamiltonian and the reset map all follow from them.  Random
pairs, drives, reservoirs and cavity parameters check that the derived
objects are mutually consistent, that the generator equals the sum of
the reference superoperators, that the propagator exp(L t) is completely
positive and that the stationary state is a density matrix.  The jump
sampler's block root solver is checked against brentq on every model.
"""
import dataclasses
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

import oracles
from oracles import dissipator, hamiltonian_superop
from twoatom import dynamics, geometry, jumps
from twoatom.errors import ValidationError
from twoatom.operators import I4, unvec, vec

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

separations = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
angles = st.floats(0.0, math.pi / 2)
rates = st.floats(0.3, 3.0)
states = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)


@st.composite
def pairs(draw, identical=None):
    identical = draw(st.booleans()) if identical is None else identical
    if identical:
        return geometry.AtomPairConfig(separation=draw(separations),
                                       dipole_angle=draw(angles))
    return geometry.AtomPairConfig(
        separation=draw(separations), dipole_angle=draw(angles),
        gamma2=draw(rates),
        delta=draw(st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0))))


def small_sample(gamma1, gamma2, delta, omega12, rabi, detuning):
    """The selective-excitation presets' small sample: contact-value
    collective damping with the coherent coupling omega12 set by hand."""
    pair = geometry.AtomPairConfig(separation=0.0, gamma1=gamma1,
                                   gamma2=gamma2, delta=delta)
    drive = geometry.DriveField(rabi=rabi, detuning=detuning)
    return dynamics._vacuum(pair, drive, omega12)


drives = st.builds(geometry.DriveField,
                   rabi=st.floats(0.0, 5.0), detuning=st.floats(-5.0, 5.0),
                   propagation_angle=st.floats(0.0, math.pi),
                   wave_type=st.sampled_from(["running", "standing"]),
                   phase=st.floats(0.0, 2 * math.pi))


@st.composite
def squeezed_cases(draw):
    secular = draw(st.booleans())
    n = draw(st.floats(0.0, 3.0))
    fraction = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    res = geometry.SqueezedReservoir(
        n_photons=n, m_magnitude=math.sqrt(n * (n + 1.0)) * fraction,
        squeeze_phase=draw(st.floats(0.0, 2 * math.pi)),
        matching=draw(st.floats(0.0, 1.0)),
        solid_angle=draw(st.floats(0.05, math.pi)),
        carrier_offset=0.0 if secular else draw(st.floats(-2.0, 2.0)))
    return draw(pairs(identical=not secular)), res


def check_model(gen: dynamics.Generator, psi: list) -> None:
    lmat = gen.matrix
    scale = max(1.0, np.abs(lmat).max())
    # the assembled generator equals -i[h, .] + sum_k rate_k D[op_k] built
    # from the reference Kronecker-product superoperators
    reference = hamiltonian_superop(gen.h) + sum(
        dissipator(rate, op) for rate, op in zip(gen.rates, gen.ops))
    assert np.abs(lmat - reference).max() <= 1e-14 * scale
    # trace preservation: vec(I)^+ L = 0
    assert np.abs(vec(I4).conj() @ lmat).max() < 1e-12 * scale
    # Hermiticity preservation: L(X)^+ = L(X^+) on every matrix unit
    units = np.eye(16, dtype=complex)
    for k in range(16):
        out = unvec(lmat @ units[k])
        flipped = unvec(lmat @ vec(unvec(units[k]).conj().T))
        assert np.abs(out.conj().T - flipped).max() < 1e-12 * scale
    assert all(rate >= 0.0 for rate in gen.rates)
    # the no-jump Hamiltonian decays by exactly the channels' rates
    assert np.abs(gen.h - gen.h.conj().T).max() < 1e-12 * scale
    hc = gen.conditional_hamiltonian
    decay = 0.5j * (hc - hc.conj().T)
    half = 0.5 * sum(rate * op.conj().T @ op
                     for rate, op in zip(gen.rates, gen.ops))
    assert np.abs(decay - half).max() < 1e-12 * scale
    assert np.linalg.eigvalsh(decay).min() > -1e-12 * scale
    # complete positivity: the Choi matrix of the propagator exp(L t),
    # sum_ij |i><j| (x) exp(L t)(|i><j|), is positive semidefinite up to
    # the round-off of exponentiating L t
    for t in (0.05, 0.5, 3.0):
        prop = expm(lmat * t).reshape(4, 4, 4, 4)  # [b, a, j, i]
        choi = prop.transpose(3, 1, 2, 0).reshape(16, 16)
        assert np.abs(choi - choi.conj().T).max() < 1e-12 * scale * t
        assert np.linalg.eigvalsh(choi).min() > -1e-12 * scale * t
    # the stacked solver's stationary state is a density matrix
    rho, _ = dynamics.steady_states(gen)
    assert np.abs(rho - rho.conj().T).max() < 1e-14
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    # the no-jump flux at t = 0 is the trace of the reset map
    ket = np.array(psi[:4]) + 1j * np.array(psi[4:])
    assume(np.linalg.norm(ket) > 1e-2)
    ket = ket / np.linalg.norm(ket)
    try:
        flux = oracles.waiting_time_density(ket, 0.0, gen)
    except ValidationError:
        assume(False)  # defective no-jump Hamiltonian (exceptional point)
    _, rate = gen.reset(np.outer(ket, ket.conj()))
    assert abs(flux - rate) < 1e-8 * scale


class TestModelProperties:
    @PROPERTY
    @given(pairs(), drives, states)
    def test_vacuum_drive(self, pair, drive, psi):
        check_model(dynamics.build_vacuum_drive(pair, drive), psi)

    @PROPERTY
    @given(squeezed_cases(), states)
    def test_squeezed(self, case, psi):
        check_model(dynamics.build_squeezed(*case), psi)

    @PROPERTY
    @given(drives, states)
    def test_dicke_dressed(self, drive, psi):
        check_model(dynamics.build_dicke_dressed(drive), psi)

    @PROPERTY
    @given(pairs(), st.floats(0.0, 3.0), st.floats(0.1, 200.0),
           st.floats(0.0, 50.0), states)
    def test_bad_cavity(self, pair, g, gamma_c, omega_drive, psi):
        check_model(dynamics.build_bad_cavity(pair, g, gamma_c, omega_drive),
                    psi)

    @PROPERTY
    @given(rates, rates, st.floats(-3.0, 3.0), st.floats(-20.0, 20.0),
           st.floats(0.0, 20.0), st.floats(-25.0, 25.0), states)
    def test_small_sample(self, gamma1, gamma2, delta, omega12, rabi,
                          detuning, psi):
        check_model(small_sample(gamma1, gamma2, delta, omega12, rabi,
                                 detuning), psi)


def stacked(objects):
    """One parameter object whose numeric fields stack those of
    ``objects``; string fields are taken from the first."""
    return type(objects[0])(**{
        f.name: (getattr(objects[0], f.name) if f.type is str
                 else np.array([getattr(o, f.name) for o in objects]))
        for f in dataclasses.fields(objects[0])})


def check_stack(stack: dynamics.Generator, singles: list) -> None:
    # a stacked build equals the one-point builds, point by point
    assert stack.shape == (len(singles),)
    for name in ("matrix", "conditional_hamiltonian", "rates", "ops"):
        for k, gen in enumerate(singles):
            want = getattr(gen, name)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(getattr(stack, name)[k] - want).max() \
                <= 1e-14 * scale, name


def same_wave(drive_list):
    return [dataclasses.replace(d, wave_type=drive_list[0].wave_type)
            for d in drive_list]


def points(strategy):
    return st.lists(strategy, min_size=1, max_size=6)


class TestStackedBuilds:
    @PROPERTY
    @given(points(st.tuples(pairs(), drives)))
    def test_vacuum_drive(self, cases):
        plist, dlist = zip(*cases)
        dlist = same_wave(dlist)
        check_stack(dynamics.build_vacuum_drive(stacked(plist), stacked(dlist)),
                    [dynamics.build_vacuum_drive(p, d)
                     for p, d in zip(plist, dlist)])

    @PROPERTY
    @given(points(squeezed_cases()))
    def test_squeezed(self, cases):
        # secular (delta != 0) and complete points mix in one stack
        plist, rlist = zip(*cases)
        check_stack(dynamics.build_squeezed(stacked(plist), stacked(rlist)),
                    [dynamics.build_squeezed(*case) for case in cases])

    def test_squeezed_delta_through_zero(self):
        deltas = np.linspace(-1.0, 1.0, 9)
        res = geometry.SqueezedReservoir(n_photons=0.5, m_magnitude=0.6,
                                         squeeze_phase=0.3)
        stack = dynamics.build_squeezed(
            geometry.AtomPairConfig(separation=0.2, delta=deltas), res)
        assert stack.meta["secular"].tolist() == [d != 0 for d in deltas]
        check_stack(stack, [dynamics.build_squeezed(
            geometry.AtomPairConfig(separation=0.2, delta=float(d)), res)
            for d in deltas])

    @PROPERTY
    @given(points(drives))
    def test_dicke_dressed(self, dlist):
        dlist = same_wave(dlist)
        check_stack(dynamics.build_dicke_dressed(stacked(dlist)),
                    [dynamics.build_dicke_dressed(d) for d in dlist])

    @PROPERTY
    @given(points(st.tuples(pairs(), st.floats(0.0, 3.0),
                            st.floats(0.1, 200.0), st.floats(0.0, 50.0))))
    def test_bad_cavity(self, cases):
        plist, g, gamma_c, omega = zip(*cases)
        check_stack(dynamics.build_bad_cavity(stacked(plist), np.array(g),
                                              np.array(gamma_c),
                                              np.array(omega)),
                    [dynamics.build_bad_cavity(*case) for case in cases])

    @PROPERTY
    @given(points(st.tuples(rates, rates, st.floats(-3.0, 3.0),
                            st.floats(-20.0, 20.0), st.floats(0.0, 20.0),
                            st.floats(-25.0, 25.0))))
    def test_small_sample(self, cases):
        columns = [np.array(c) for c in zip(*cases)]
        check_stack(small_sample(*columns),
                    [small_sample(*case) for case in cases])


# every builder, plus undriven identical atoms at contact, whose
# antisymmetric state is dark: there P(t) plateaus at |<a|psi>|^2
models = st.one_of(
    st.builds(dynamics.build_vacuum_drive, pairs(), drives),
    st.builds(lambda case: dynamics.build_squeezed(*case), squeezed_cases()),
    st.builds(dynamics.build_dicke_dressed, drives),
    st.builds(dynamics.build_bad_cavity, pairs(), st.floats(0.0, 3.0),
              st.floats(0.1, 200.0), st.floats(0.0, 50.0)),
    st.builds(small_sample, rates, rates, st.floats(-3.0, 3.0),
              st.floats(-20.0, 20.0), st.floats(0.0, 20.0),
              st.floats(-25.0, 25.0)),
    st.just(dynamics.build_vacuum_drive(
        geometry.AtomPairConfig(separation=0.0),
        geometry.DriveField(rabi=0.0))))


class TestJumpTimeSolver:
    @PROPERTY
    @given(models, states, st.floats(0.05, 10.0), st.floats(0.01, 0.99))
    def test_block_roots_match_brentq(self, gen, psi, horizon, fraction):
        try:
            prop = jumps.NoJumpPropagator(gen)
        except ValidationError:
            assume(False)  # defective no-jump Hamiltonian (exceptional point)
        ket = np.array(psi[:4]) + 1j * np.array(psi[4:])
        assume(np.linalg.norm(ket) > 1e-2)
        ket = ket / np.linalg.norm(ket)
        p_end = prop.survival(ket, horizon)
        assume(p_end < 1.0 - 1e-9)
        # near 1, just above P(horizon), in between, and P(horizon) itself
        xi = np.array([1.0 - 1e-12, p_end + 1e-9,
                       p_end + fraction * (1.0 - p_end), p_end])
        roots = prop.sample_jump(np.tile(ket, (xi.size, 1)), xi,
                                 np.full(xi.size, horizon))
        assert np.isnan(roots[-1])
        for t, x in zip(roots[:-1], xi[:-1]):
            assert 0.0 <= t <= horizon
            assert abs(prop.survival(ket, t) - x) <= 1e-12
            ref = brentq(lambda s: prop.survival(ket, s) - x, 0.0, horizon,
                         xtol=1e-13, rtol=8.9e-16)
            # 1e-11, plus the span of t over which P, in double precision,
            # moves by less than two ulps (wide where P plateaus)
            blind = 2 * np.spacing(x) / prop.waiting_density(ket, ref)
            assert abs(t - ref) <= 1e-11 + blind


# separations down to 1e-4, where Omega12 ~ r^-3 reaches about 3e9
near_contact = st.floats(1e-4, 1e-2).map(
    lambda s: geometry.AtomPairConfig(separation=s))
stiff_models = st.one_of(
    st.builds(dynamics.build_vacuum_drive, near_contact, drives),
    st.builds(lambda pair, case: dynamics.build_squeezed(pair, case[1]),
              near_contact, squeezed_cases()))


def check_expm(gen: dynamics.Generator, targets: list) -> None:
    # steps h scaled so that ||L h||_1 takes the drawn values; all of them
    # are exponentiated as one stack, as evolve does
    lmat = gen.matrix
    norm = np.abs(lmat).sum(axis=0).max()
    assume(norm > 0)
    stack = lmat * (np.array(targets) / norm)[:, None, None]
    got = dynamics._expm(stack)
    for a, mine in zip(stack, got):
        scale = max(1.0, np.abs(a).sum(axis=0).max())
        assert np.abs(mine - expm(a)).max() <= 1e-13 * scale


class TestMatrixExponential:
    @PROPERTY
    @given(models, st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=14))
    def test_mild_steps_match_scipy(self, gen, targets):
        check_expm(gen, targets)

    @PROPERTY
    @given(st.one_of(models, stiff_models),
           st.lists(st.floats(0.0, 9.0).map(lambda e: 10.0 ** e),
                    min_size=1, max_size=14))
    def test_stiff_steps_match_scipy(self, gen, targets):
        check_expm(gen, targets)

    def test_zero_step_is_identity(self):
        gen = dynamics.build_vacuum_drive(geometry.AtomPairConfig(0.01),
                                          geometry.DriveField(rabi=2.0))
        stack = gen.matrix * np.array([0.0, 1.0])[:, None, None]
        assert np.array_equal(dynamics._expm(stack)[0], np.eye(16))
