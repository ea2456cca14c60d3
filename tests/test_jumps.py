import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import oracles
from conftest import random_density_matrix, random_pair
from data.pin_jump_records import PINNED, ensemble as pinned_ensemble
from twoatom import dynamics, geometry, jumps, observables
from twoatom.errors import TrajectoryBudgetError, ValidationError
from twoatom.operators import KET_A, KET_EE, KET_S, ket_density


def pair(separation, **kw):
    return geometry.AtomPairConfig(separation=separation, **kw)


def vacuum(p, drive=None):
    return dynamics.build_vacuum_drive(
        p, geometry.DriveField(rabi=0.0) if drive is None else drive)


class TestConditionalHamiltonian:
    def test_single_excitation_eigenrates(self):
        p = pair(0.11)
        g12 = geometry.collective_damping(p)
        gen = vacuum(p)
        evals = np.linalg.eigvals(gen.conditional_hamiltonian)
        rates = np.sort(-2 * evals.imag)
        # ground state 0, subradiant, superradiant, doubly excited 2 gamma
        expected = np.sort([0.0, 1 - g12, 1 + g12, 2.0])
        assert np.abs(rates - expected).max() < 1e-10

    def test_nearly_independent_structure(self):
        p = pair(80.0)
        gen = vacuum(p)
        diag = np.diag(gen.conditional_hamiltonian)
        assert np.abs(diag - np.array([0, -0.5j, -0.5j, -1j])).max() < 1e-12
        off = gen.conditional_hamiltonian - np.diag(diag)
        assert np.abs(off).max() < 5e-3

    def test_coupling_matches_geometry(self):
        p = pair(1 / 12)
        g12 = geometry.collective_damping(p)
        omega12 = geometry.dipole_dipole_shift(p)
        gen = vacuum(p)
        coupling = gen.conditional_hamiltonian[1, 2]
        assert coupling == pytest.approx((g12 + 2j * omega12) / 2j, abs=1e-10)

    def test_decay_part_positive_semidefinite(self, rng):
        for _ in range(20):
            p = random_pair(rng)
            drive = geometry.DriveField(rabi=float(rng.uniform(0, 4)),
                                        detuning=float(rng.uniform(-3, 3)))
            gen = vacuum(p, drive)
            cond = gen.conditional_hamiltonian
            decay = 1j * (cond - cond.conj().T) / 2.0
            assert np.abs(decay - decay.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(decay).min() > -1e-12


class TestResetState:
    def test_ground_state_is_dark(self):
        out, rate = vacuum(pair(0.3)).reset(
            np.diag([1., 0, 0, 0]).astype(complex))
        assert np.abs(out).max() == 0
        assert rate == 0

    def test_doubly_excited_rate(self):
        out, rate = vacuum(pair(0.3)).reset(ket_density(KET_EE))
        assert rate == pytest.approx(2.0, abs=1e-12)
        assert np.trace(out).real == pytest.approx(rate)

    def test_antisymmetric_dark_in_dicke_limit(self):
        _, rate = vacuum(pair(0.0)).reset(ket_density(KET_A))
        assert abs(rate) < 1e-12

    def test_rate_equals_total_intensity(self, rng):
        for _ in range(20):
            p = random_pair(rng, identical=True)
            rho = random_density_matrix(rng)
            _, rate = vacuum(p).reset(rho)
            assert rate == pytest.approx(
                observables.total_intensity(rho, p), abs=1e-10)


class TestNoJumpStatistics:
    def test_sub_and_superradiant_survival(self):
        p = pair(0.27)
        g12 = geometry.collective_damping(p)
        gen = vacuum(p)
        t = np.linspace(0, 4, 9)
        assert np.abs(oracles.no_jump_probability(KET_S, t, gen)
                      - np.exp(-(1 + g12) * t)).max() < 1e-10
        assert np.abs(oracles.no_jump_probability(KET_A, t, gen)
                      - np.exp(-(1 - g12) * t)).max() < 1e-10

    def test_single_excited_atom_nearly_independent(self):
        # at 80 wavelengths the couplings are ~1e-3, so the one-atom
        # exponential holds to their second order
        gen = vacuum(pair(80.0))
        t = np.linspace(0, 4, 9)
        from twoatom.operators import KET_EG
        prob = oracles.no_jump_probability(KET_EG, t, gen)
        assert np.abs(prob - np.exp(-t)).max() < 1e-4

    def test_monotone_nonincreasing(self, rng):
        for _ in range(10):
            p = random_pair(rng)
            drive = geometry.DriveField(rabi=float(rng.uniform(0, 3)))
            gen = vacuum(p, drive)
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            t = np.linspace(0, 6, 400)
            prob = oracles.no_jump_probability(psi, t, gen)
            assert np.all(np.diff(prob) <= 1e-12)

    def test_waiting_density_single_channel(self):
        p = pair(0.27)
        g12 = geometry.collective_damping(p)
        gen = vacuum(p)
        t = np.linspace(0, 3, 7)
        ref = (1 + g12) * np.exp(-(1 + g12) * t)
        assert np.abs(oracles.waiting_time_density(KET_S, t, gen)
                      - ref).max() < 1e-10

    def test_waiting_density_normalization_doubly_excited(self):
        gen = vacuum(pair(0.0))
        prop = jumps.NoJumpPropagator(gen)
        total, _ = quad(lambda s: prop.waiting_density(KET_EE, s), 0, 100,
                        limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_dark_state_never_emits(self):
        gen = vacuum(pair(0.0))
        t = np.linspace(0, 10, 50)
        assert np.abs(oracles.waiting_time_density(KET_A, t,
                                                   gen)).max() < 1e-12

    def test_density_nonnegative_and_subnormalized(self, rng):
        for _ in range(10):
            p = random_pair(rng, identical=True)
            gen = vacuum(p)
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            t = np.linspace(0, 8, 2001)
            dens = oracles.waiting_time_density(psi, t, gen)
            assert dens.min() > -1e-10
            # the density integrates to the emitted probability, below one
            prob = oracles.no_jump_probability(psi, t, gen)
            integral = np.trapezoid(dens, t)
            assert integral == pytest.approx(1.0 - prob[-1], abs=1e-4)
            assert integral <= 1.0 + 1e-10

    def test_waiting_density_nearly_independent_atom(self):
        gen = vacuum(pair(80.0))
        t = np.linspace(0, 4, 9)
        from twoatom.operators import KET_EG
        dens = oracles.waiting_time_density(KET_EG, t, gen)
        assert np.abs(dens - np.exp(-t)).max() < 1e-3

    def test_initial_flux_matches_reset_rate(self, rng):
        # -dP/dt at t=0 equals the emission rate of the reset operator
        for _ in range(15):
            p = random_pair(rng, identical=True)
            drive = geometry.DriveField(rabi=float(rng.uniform(0, 2)))
            gen = vacuum(p, drive)
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi = psi / np.linalg.norm(psi)
            flux = oracles.waiting_time_density(psi, 0.0, gen)
            _, rate = gen.reset(np.outer(psi, psi.conj()))
            assert flux == pytest.approx(rate, abs=1e-8)


class TestPropagator:
    def test_defective_hamiltonian_reports_condition_number(self):
        # a Jordan block has a single eigenvector, so no eigenbasis exists
        jordan = np.zeros((4, 4), dtype=complex)
        jordan[0, 1] = 1.0
        gen = dynamics.Generator(h=jordan, rates=np.zeros(0),
                                 ops=np.zeros((0, 4, 4)), scenario="test")
        with pytest.raises(ValidationError,
                           match=r"condition number .* exceeds 1e\+06"):
            jumps.NoJumpPropagator(gen)

    def test_exceptional_point_is_rejected_and_its_neighbour_sampled(self):
        # identical atoms at contact with delta = Gamma12 / 2: the no-jump
        # Hamiltonian is defective; its eigenvector condition number, set by
        # round-off, reads ~8e7, far above the limit
        def undriven(delta):
            return vacuum(pair(0.0, delta=delta))
        with pytest.raises(ValidationError,
                           match=r"condition number .* exceeds 1e\+06"):
            jumps.NoJumpPropagator(undriven(0.5))
        ensemble = jumps.run_trajectories(
            undriven(0.49999), ket_density(KET_EE), 40, 3,
            np.linspace(0.0, 4.0, 9))
        assert sum(r.jump_times.size for r in ensemble.records) > 0
        assert np.isfinite(ensemble.mean_states).all()


class TestChannels:
    def test_rates_nonnegative_and_complete(self, rng):
        for _ in range(20):
            p = random_pair(rng)
            gen = vacuum(p)
            channels = list(zip(gen.rates, gen.ops))
            total = sum(rate * (op.conj().T @ op) for rate, op in channels)
            g12 = geometry.collective_damping(p)
            from twoatom.operators import S1M, S2M
            ref = (p.gamma1 * S1M.conj().T @ S1M
                   + p.gamma2 * S2M.conj().T @ S2M
                   + g12 * (S1M.conj().T @ S2M + S2M.conj().T @ S1M))
            assert np.abs(total - ref).max() < 1e-12
            assert all(rate >= 0 for rate, _ in channels)

    def test_identical_atoms_symmetric_antisymmetric(self):
        p = pair(0.14)
        g12 = geometry.collective_damping(p)
        rates = sorted(vacuum(p).rates)
        assert rates[0] == pytest.approx(1 - g12, abs=1e-12)
        assert rates[1] == pytest.approx(1 + g12, abs=1e-12)


class TestTrajectories:
    def test_deterministic_under_seed_and_workers(self):
        p = pair(0.2)
        drive = geometry.DriveField(rabi=2.0)
        rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        grid = np.linspace(0, 4, 9)
        a = jumps.run_trajectories(vacuum(p, drive), rho0, 40, seed=11,
                                   grid=grid)
        b = jumps.run_trajectories(vacuum(p, drive), rho0, 40, seed=11,
                                   grid=grid)
        assert np.array_equal(a.mean_states, b.mean_states)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.jump_times, rb.jump_times)
            assert np.array_equal(ra.channels, rb.channels)

    def test_seed_changes_change_records(self):
        p = pair(0.2)
        drive = geometry.DriveField(rabi=2.0)
        rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        grid = np.linspace(0, 4, 5)
        a = jumps.run_trajectories(vacuum(p, drive), rho0, 10, seed=1,
                                   grid=grid)
        b = jumps.run_trajectories(vacuum(p, drive), rho0, 10, seed=2,
                                   grid=grid)
        assert any(not np.array_equal(ra.jump_times, rb.jump_times)
                   for ra, rb in zip(a.records, b.records))

    def test_ensemble_converges_to_master_equation(self):
        p = pair(0.2)
        drive = geometry.DriveField(rabi=2.0)
        rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        grid = np.linspace(0, 5, 11)
        ens = jumps.run_trajectories(vacuum(p, drive), rho0, 1200, seed=3,
                                     grid=grid)
        gen = dynamics.build_vacuum_drive(p, drive)
        ref = dynamics.evolve(gen, rho0, grid)
        for k in range(len(grid)):
            mc = np.real(np.diag(ens.mean_states[k]))
            me = np.real(np.diag(ref.states[k]))
            se = np.maximum(ens.population_stderr[k], 1e-9)
            assert np.all(np.abs(mc - me) < 5 * se + 1e-3)
        for rec in ens.records:
            if rec.jump_times.size:
                assert np.all(np.diff(rec.jump_times) > 0)
                assert rec.jump_times[-1] <= grid[-1]

    def test_dark_initial_state_never_jumps(self):
        ens = jumps.run_trajectories(vacuum(pair(0.0)), ket_density(KET_A),
                                     25, seed=5,
                                     grid=np.linspace(0, 10, 5))
        assert all(rec.jump_times.size == 0 for rec in ens.records)

    def test_budget_error_carries_partial(self):
        p = pair(0.2)
        drive = geometry.DriveField(rabi=6.0)
        rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        with pytest.raises(TrajectoryBudgetError):
            jumps.run_trajectories(vacuum(p, drive), rho0, 2, seed=1,
                                   grid=np.linspace(0, 400, 5),
                                   max_jumps=3)
        # streams 1 and 2 both take their third jump in the third round,
        # stream 0 never jumps: the error names stream 1, the lowest
        grid = np.linspace(0, 2, 5)
        full = jumps.run_trajectories(vacuum(p, drive), rho0, 4, seed=4,
                                      grid=grid)
        assert [r.jump_times.size for r in full.records] == [0, 3, 3, 2]
        with pytest.raises(TrajectoryBudgetError) as err:
            jumps.run_trajectories(vacuum(p, drive), rho0, 4, seed=4,
                                   grid=grid, max_jumps=2)
        index, times = err.value.partial
        assert index == 1
        assert np.array_equal(times, full.records[1].jump_times)

    @pytest.mark.parametrize("case", ["driven", "undriven_ee", "mixed"])
    def test_record_depends_only_on_its_stream(self, case):
        # trajectories run in lockstep blocks; a stream's record must not
        # depend on how many other streams share its block
        grid = np.linspace(0, 5, 11)
        if case == "driven":
            gen = vacuum(pair(0.2), geometry.DriveField(rabi=2.0))
            rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        elif case == "undriven_ee":
            gen, rho0 = vacuum(pair(0.3)), ket_density(KET_EE)
            grid = np.linspace(0, 8, 9)
        else:
            gen = vacuum(pair(0.15), geometry.DriveField(rabi=1.0))
            rho0 = random_density_matrix(np.random.default_rng(7))
        head = jumps.run_trajectories(gen, rho0, 64, seed=21, grid=grid)
        assert sum(r.jump_times.size for r in head.records) > 0
        for n in (300, 1000):
            ens = jumps.run_trajectories(gen, rho0, n, seed=21, grid=grid)
            for ra, rb in zip(head.records, ens.records[:64]):
                assert ra.index == rb.index
                assert np.array_equal(ra.jump_times, rb.jump_times)
                assert np.array_equal(ra.channels, rb.channels)
                assert np.array_equal(ra.post_jump_states,
                                      rb.post_jump_states)
                assert np.array_equal(ra.final_state, rb.final_state)

    def test_records_match_pinned(self):
        # the first 64 streams of the criterion-8 ensemble, pinned by
        # tests/data/pin_jump_records.py before sampling was vectorised
        pinned = json.loads(PINNED.read_text())["records"]
        records = pinned_ensemble().records
        assert len(records) == len(pinned)
        for rec, ref in zip(records, pinned):
            assert rec.index == ref["index"]
            assert rec.channels.tolist() == ref["channels"]
            assert np.abs(rec.jump_times - ref["jump_times"]).max(
                initial=0.0) <= 1e-11

    def test_emission_rate_tracks_reset_flux(self):
        # undriven doubly excited small sample: the binned jump rate should
        # follow the reset-operator rate of the ensemble state
        p = pair(0.0)
        rho0 = ket_density(KET_EE)
        grid = np.linspace(0, 2.0, 9)
        ens = jumps.run_trajectories(vacuum(p), rho0, 1500, seed=9,
                                     grid=grid)
        mids = 0.5 * (grid[1:] + grid[:-1])
        ref_states = dynamics.evolve(
            dynamics.build_vacuum_drive(p, geometry.DriveField(rabi=0.0)),
            rho0, mids)
        for k in range(len(mids)):
            _, rate = vacuum(p).reset(ref_states.states[k])
            tol = 4 * ens.emission_rate_stderr[k] + 0.05 * rate
            assert abs(ens.emission_rate[k] - rate) < tol


    @pytest.mark.parametrize("scale", [1e-12, 1e9, 1e12, 1e13])
    def test_ensemble_is_covariant_under_a_change_of_rate_unit(self, scale):
        # scaling every rate and frequency by s and every time by 1/s maps
        # the ensemble onto itself: same jumps at times t / s
        def ensemble(s):
            gen = vacuum(pair(0.2, gamma1=s, gamma2=s),
                         geometry.DriveField(rabi=0.8 * s))
            return jumps.run_trajectories(gen, ket_density(KET_EE), 200,
                                          seed=3,
                                          grid=np.linspace(0, 5 / s, 41))

        base, scaled = ensemble(1.0), ensemble(scale)
        assert np.array_equal(scaled.jump_counts, base.jump_counts)
        assert np.array_equal(scaled.channels, base.channels)
        assert np.abs(scaled.jump_times * scale
                      - base.jump_times).max() <= 5e-12
        assert np.abs(scaled.mean_states - base.mean_states).max() <= 1e-12

    def test_memory_does_not_grow_with_the_number_of_blocks(self):
        # an ensemble runs in blocks of SAMPLES // grid.size trajectories;
        # a block's working arrays must be released once it is done
        gen = vacuum(pair(0.2), geometry.DriveField(rabi=1.0))
        grid = np.linspace(0, 5, 1001)
        block = jumps.SAMPLES // grid.size

        def peak(n_traj):
            tracemalloc.start()
            try:
                jumps.run_trajectories(gen, ket_density(KET_EE), n_traj,
                                       seed=1, grid=grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * block) <= 2 * peak(block)


class TestPhiloxDraws:
    """The ensemble's array draws are numpy's per-stream Philox draws."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 63 - 1),
           st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=6),
           st.integers(1, 40))
    @example(0, [0], 1)
    @example(2 ** 63 - 1, [2 ** 40, 0, 7], 40)
    def test_draws_match_numpy_philox(self, seed, streams, count):
        # count crosses 4-word blocks and the 16-draw initial table,
        # whose extensions start at its width
        want = np.array([np.random.Generator(np.random.Philox(
            key=[seed, i])).random(count) for i in streams])
        streams = np.array(streams)
        width = -(-count // 4) * 4
        got = jumps._philox_random(seed, streams, 0, width)[:, :count]
        assert np.array_equal(got, want)
        if count > 16:
            tail = jumps._philox_random(seed, streams, 16, width - 16)
            assert np.array_equal(tail[:, :count - 16], want[:, 16:])

    def test_mixed_initial_state_drawn_like_generator_choice(self):
        # with no dynamics, each trajectory ends in the eigenstate of rho0
        # it drew, which must be Generator.choice(p=weights)'s pick
        frozen = dynamics.Generator(h=np.zeros((4, 4)), rates=[0.0],
                                    ops=np.zeros((1, 4, 4)),
                                    scenario="frozen")
        rho0 = random_density_matrix(np.random.default_rng(5))
        evals, evecs = np.linalg.eigh(rho0)
        ens = jumps.run_trajectories(frozen, rho0, 200, seed=17,
                                     grid=np.linspace(0, 1, 3))
        picks = [np.random.Generator(np.random.Philox(key=[17, i])).choice(
            4, p=evals / evals.sum()) for i in range(200)]
        assert len(set(picks)) == 4
        assert np.abs(ens.final_states - evecs.T[picks]).max() < 1e-15
        assert ens.jump_times.size == 0


class TestExport:
    def test_record_format(self):
        p = pair(0.2)
        drive = geometry.DriveField(rabi=2.0)
        rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        ens = jumps.run_trajectories(vacuum(p, drive), rho0, 6, seed=4,
                                     grid=np.linspace(0, 4, 5))
        text = ens.render_records()["records.txt"]
        lines = text.strip().splitlines()
        assert len(lines) == 6
        for line, rec in zip(lines, ens.records):
            ident, count, times = line.split(" ")
            assert ident == f"{rec.seed}:{rec.index}"
            assert int(count) == rec.jump_times.size
            if rec.jump_times.size:
                parsed = [float(x) for x in times.split(",")]
                assert len(parsed) == rec.jump_times.size
                # fixed nine-decimal rendering
                assert all(len(x.split(".")[1]) == 9
                           for x in times.split(","))
            else:
                assert times == "-"
