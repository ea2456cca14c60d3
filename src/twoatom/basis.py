"""Collective (entangled) state bases of the two-atom system.

For identical atoms the one-excitation eigenstates are the maximally
entangled symmetric and antisymmetric combinations; a frequency splitting
mixes them with real coefficients alpha, beta.  A second, independent
decomposition uses complex superposition operators built from arbitrary
normalized coefficients (u, v), which is the natural language for drives
with position-dependent phases and for unequal decay rates.
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


@dataclass(frozen=True)
class SuperpositionCoeffs:
    """Normalized complex coefficients of the superposition operators."""
    u: complex
    v: complex

    def __post_init__(self):
        if abs(abs(self.u) ** 2 + abs(self.v) ** 2 - 1.0) > 1e-12:
            raise ValidationError("|u|^2 + |v|^2 must equal 1")


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


def equal_coeffs() -> SuperpositionCoeffs:
    """The balanced real choice u = v = 1/sqrt(2)."""
    r = 1 / np.sqrt(2)
    return SuperpositionCoeffs(u=r, v=r)


def decay_weighted_coeffs(pair: geometry.AtomPairConfig) -> SuperpositionCoeffs:
    """Coefficients weighted by the square roots of the decay rates.

    This is the choice under which the antisymmetric superposition
    decouples from the bath whenever Gamma12 = sqrt(gamma1*gamma2).
    """
    total = pair.gamma1 + pair.gamma2
    return SuperpositionCoeffs(u=np.sqrt(pair.gamma1 / total),
                               v=np.sqrt(pair.gamma2 / total))


def drive_weighted_coeffs(drive: geometry.DriveField,
                          pair: geometry.AtomPairConfig) -> SuperpositionCoeffs:
    """Coefficients proportional to the local Rabi frequencies.

    For a running wave this reduces to pure position phases; for a
    standing wave to the real cosine amplitudes.
    """
    om1, om2 = geometry.rabi_at_atoms(drive, pair)
    norm = np.sqrt(abs(om1) ** 2 + abs(om2) ** 2)
    if norm == 0:
        raise ValidationError("drive-weighted coefficients need a nonzero drive")
    return SuperpositionCoeffs(u=om1 / norm, v=om2 / norm)


def superposition_rates(coeffs: SuperpositionCoeffs,
                        pair: geometry.AtomPairConfig
                        ) -> tuple[complex, complex, complex, complex]:
    """Damping matrix (Gss, Gaa, Gas, Gsa) of the superposition operators.

    Rates are quoted in the Lindblad normalization in which the balanced
    identical-atom choice gives the familiar superradiant/subradiant pair
    gamma +/- Gamma12.
    """
    u, v = complex(coeffs.u), complex(coeffs.v)
    g1, g2 = pair.gamma1, pair.gamma2
    g12 = geometry.collective_damping(pair)
    uv = u * np.conj(v)
    gss = abs(u) ** 2 * g1 + abs(v) ** 2 * g2 + (uv + np.conj(uv)) * g12
    gaa = abs(v) ** 2 * g1 + abs(u) ** 2 * g2 - (uv + np.conj(uv)) * g12
    gas = uv * g1 - np.conj(uv) * g2 - (abs(u) ** 2 - abs(v) ** 2) * g12
    gsa = np.conj(uv) * g1 - uv * g2 - (abs(u) ** 2 - abs(v) ** 2) * g12
    return complex(gss), complex(gaa), complex(gas), complex(gsa)


def coherent_couplings(coeffs: SuperpositionCoeffs,
                       pair: geometry.AtomPairConfig,
                       drive: geometry.DriveField) -> tuple[complex, complex]:
    """Level shift and coherent cross-coupling (shift, coupling) of the
    symmetric/antisymmetric superpositions."""
    u, v = complex(coeffs.u), complex(coeffs.v)
    omega12 = geometry.dipole_dipole_shift(pair)
    vu = v * np.conj(u)
    shift = (vu + np.conj(vu)) * omega12
    coupling = (abs(u) ** 2 - abs(v) ** 2) * omega12 \
        + (np.conj(v) * u - v * np.conj(u)) * drive.detuning
    return complex(shift), complex(coupling)


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
