"""Collective dynamics of two two-level atoms coupled through vacuum,
squeezed-vacuum and bad-cavity reservoirs."""

from .geometry import (AtomPairConfig, DriveField, SqueezedReservoir,
                       collective_damping, dipole_dipole_shift,
                       effective_squeezing, rabi_at_atoms)
from .basis import (CollectiveBasis, basis_transform, build_basis,
                    collective_populations)
from .dynamics import (EvolutionSeries, Generator, build_bad_cavity,
                       build_dicke_dressed, build_squeezed, build_vacuum_drive,
                       evolve, steady_state, steady_states)
from .jumps import JumpEnsemble, TrajectoryRecord, run_trajectories
from .observables import (CorrelationSeries, DetectionGeometry,
                          angular_intensity, g2_tau, g2_zero, purity,
                          quadrature_variance, total_intensity,
                          total_spin_squared, visibility)
from .validation import validate_density_matrix

__version__ = "0.1.0"
