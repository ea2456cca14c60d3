"""Collective (entangled) state bases of the two-atom system.

For identical atoms the one-excitation eigenstates are the maximally
entangled symmetric and antisymmetric combinations; a frequency splitting
mixes them with real coefficients alpha, beta.
"""
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ValidationError
from .geometry import _value
from .operators import DICKE_BASIS, KET_EE, KET_EG, KET_GE, KET_GG
from .validation import validate_density_matrix


@dataclass(frozen=True)
class CollectiveBasis:
    """Mixing coefficients and level structure of the one-excitation pair.

    Energies are quoted in the frame rotating at the mean atomic frequency,
    so the ground and doubly excited levels sit at zero and the
    intermediate levels at +/- w.
    """
    alpha: float
    beta: float
    w: float
    energies: tuple[float, float, float, float]

    def matrix(self) -> np.ndarray:
        """Columns are |g>, |s'>, |a'>, |e> in the product basis."""
        mid_s = self.beta * KET_EG + self.alpha * KET_GE
        mid_a = self.alpha * KET_EG - self.beta * KET_GE
        return np.column_stack([KET_GG, mid_s, mid_a, KET_EE])


def build_basis(pair: geometry.AtomPairConfig) -> CollectiveBasis:
    """Diagonalize the one-excitation block for the given pair; a stacked
    pair gives arrays alpha, beta and w (``matrix`` takes one point).

    Identical atoms give alpha = beta = 1/sqrt(2); a large splitting pushes
    the eigenstates back to the bare product states.
    """
    omega12 = geometry.dipole_dipole_shift(pair)
    w = _value(np.hypot(omega12, pair.delta))
    d = pair.delta + w
    norm = np.hypot(d, omega12)
    bare = norm == 0.0  # uncoupled, delta <= 0: the product states
    norm = np.where(bare, 1.0, norm)
    return CollectiveBasis(alpha=_value(np.where(bare, 1.0, d / norm)),
                           beta=_value(omega12 / norm), w=w,
                           energies=(0.0, +w, -w, 0.0))


def basis_transform(direction: str, rho: np.ndarray,
                    basis: CollectiveBasis | None = None) -> np.ndarray:
    """Unitary change of basis for a density matrix, or for each one in a
    (..., 4, 4) stack.

    direction is 'to_collective' or 'to_product'; without an explicit
    basis the maximally entangled (identical-atom) one is used.
    """
    rho = validate_density_matrix(rho)
    c = DICKE_BASIS if basis is None else basis.matrix()
    if direction == "to_collective":
        return c.conj().T @ rho @ c
    if direction == "to_product":
        return c @ rho @ c.conj().T
    raise ValidationError("direction must be 'to_collective' or 'to_product'")


def collective_populations(rho: np.ndarray,
                           basis: CollectiveBasis | None = None) -> np.ndarray:
    """Populations (g, s, a, e) of a product-basis density matrix, along
    the last axis for a stack."""
    rc = basis_transform("to_collective", rho, basis)
    return np.real(rc.diagonal(0, -2, -1))
