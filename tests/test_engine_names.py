"""Engine names and return forms that the benchmark in ``bench/`` uses.

``bench/checks.py`` rebuilds each op's physics from the engine's public
objects, ``bench/spans.py`` wraps functions and methods by name and reads
the results of ``steady_state``, ``evolve`` and ``run_trajectories``, and
``bench/workload.py`` imports ``default_worker_count``.  A refactor that
renames or reshapes one of them breaks the benchmark; it fails here.
"""
import numpy as np

from twoatom import analytic, dynamics, geometry, jumps, observables


def test_check_objects_and_scalar_couplings():
    pair = geometry.AtomPairConfig(separation=0.3, gamma1=1.0, gamma2=1.0,
                                   delta=0.0, dipole_angle=np.pi / 2)
    drive = geometry.DriveField(rabi=1.0, detuning=0.5,
                                propagation_angle=np.pi / 2,
                                wave_type="running", phase=0.0)
    res = geometry.SqueezedReservoir(n_photons=0.5, m_magnitude=0.6,
                                     squeeze_phase=0.2, matching=1.0,
                                     solid_angle=np.pi, carrier_offset=0.0)
    assert dynamics.build_vacuum_drive(pair, drive).matrix.shape == (16, 16)
    assert dynamics.build_squeezed(pair, res).matrix.shape == (16, 16)
    g12 = geometry.collective_damping(pair)
    omega12 = geometry.dipole_dipole_shift(pair)
    n_eff, m_eff = geometry.effective_squeezing(res)
    assert all(type(x) is float for x in (g12, omega12, n_eff, m_eff))
    ref = analytic.squeezed_steady_finite(n_eff, m_eff, g12 / pair.gamma1)
    assert {"rgg", "rss", "raa", "ree"} <= set(ref)
    rho = analytic.driven_steady_state(drive.rabi, drive.detuning,
                                       pair.gamma1, g12, omega12)
    assert np.shape(rho) == (4, 4)


def test_span_targets_and_counted_results():
    pair = geometry.AtomPairConfig(separation=0.2)
    gen = dynamics.build_vacuum_drive(pair, geometry.DriveField(rabi=2.0))
    rho, degenerate = dynamics.steady_state(gen)
    assert rho.shape == (4, 4) and isinstance(degenerate, bool)
    grid = np.linspace(0.0, 2.0, 5)
    rho0 = np.diag([1.0, 0, 0, 0]).astype(complex)
    assert dynamics.evolve(gen, rho0, grid).times.size == grid.size
    assert callable(observables.g2_tau)
    for method in ("survival", "sample_jump"):
        assert callable(getattr(jumps.NoJumpPropagator, method))
    ens = jumps.run_trajectories(gen, rho0, 5, seed=3, grid=grid)
    assert ens.n_trajectories == 5
    assert sum(int(r.jump_times.size) for r in ens.records) == \
        ens.jump_times.size > 0
    workers = jumps.default_worker_count()
    assert isinstance(workers, int) and workers >= 1
