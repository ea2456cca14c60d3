"""Geometry-dependent couplings of a pair of two-level emitters.

Units: all rates and frequencies in units of the first atom's decay rate
(gamma1 = 1 by convention), distances in units of the resonant wavelength,
so k0*r12 = 2*pi*separation.  Atom positions are fixed on the x axis at
-r12/2 and +r12/2.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class AtomPairConfig:
    """Static parameters of the two emitters.

    separation is the interatomic distance over the resonant wavelength;
    delta is half the frequency splitting (omega2 - omega1)/2; dipole_angle
    is the angle between the (common) dipole orientation and the
    interatomic axis.
    """
    separation: float
    gamma1: float = 1.0
    gamma2: float = 1.0
    delta: float = 0.0
    dipole_angle: float = math.pi / 2

    def __post_init__(self):
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ValidationError("decay rates must be positive")
        if self.separation < 0:
            raise ValidationError("separation must satisfy separation >= 0")
        if not 0 <= self.dipole_angle <= math.pi / 2 + 1e-12:
            raise ValidationError("dipole_angle must lie in [0, pi/2]")

    @property
    def mu_dot_r(self) -> float:
        return math.cos(self.dipole_angle)

    @property
    def identical(self) -> bool:
        return self.delta == 0.0 and self.gamma1 == self.gamma2


@dataclass(frozen=True)
class DriveField:
    """Classical laser drive: maximum Rabi magnitude, detuning from the
    mean atomic frequency, propagation angle to the interatomic axis,
    running- or standing-wave type and phase.

    For a standing wave the phase is the spatial offset of the cosine at
    the midpoint between the atoms; phase = pi/2 puts a field node there
    so the atoms sit on opposite slopes.
    """
    rabi: float
    detuning: float = 0.0
    propagation_angle: float = math.pi / 2
    wave_type: str = "running"
    phase: float = 0.0

    def __post_init__(self):
        if self.rabi < 0:
            raise ValidationError("rabi must satisfy rabi >= 0")
        if self.wave_type not in ("running", "standing"):
            raise ValidationError("wave_type must be 'running' or 'standing'")


@dataclass(frozen=True)
class SqueezedReservoir:
    """Broadband squeezed-bath parameters before propagation corrections."""
    n_photons: float
    m_magnitude: float
    squeeze_phase: float = 0.0
    matching: float = 1.0
    solid_angle: float = math.pi
    carrier_offset: float = 0.0

    def __post_init__(self):
        if self.n_photons < 0 or self.m_magnitude < 0:
            raise ValidationError("n_photons and m_magnitude must be >= 0")
        bound = self.n_photons * (self.n_photons + 1.0)
        if self.m_magnitude ** 2 > bound * (1.0 + 1e-12) + 1e-15:
            raise ValidationError(
                "two-photon correlation bound violated: m^2 <= n(n+1)")
        if not 0 <= self.matching <= 1:
            raise ValidationError("matching must lie in [0, 1]")
        if not 0 < self.solid_angle <= math.pi:
            raise ValidationError("solid_angle must lie in (0, pi]")


def _angular_factors(mu_dot_r: float) -> tuple[float, float]:
    a = 1.0 - mu_dot_r ** 2
    b = 1.0 - 3.0 * mu_dot_r ** 2
    return a, b


def damping_profile(x: float, mu_dot_r: float) -> float:
    """Oscillatory profile of the collective damping versus k0*r."""
    a, b = _angular_factors(mu_dot_r)
    return 1.5 * (a * math.sin(x) / x
                  + b * (math.cos(x) / x ** 2 - math.sin(x) / x ** 3))


def shift_profile(x: float, mu_dot_r: float) -> float:
    """Oscillatory profile of the dipole-dipole shift versus k0*r."""
    a, b = _angular_factors(mu_dot_r)
    return 0.75 * (-a * math.cos(x) / x
                   + b * (math.sin(x) / x ** 2 + math.cos(x) / x ** 3))


def collective_damping(pair: AtomPairConfig) -> float:
    """Cross-damping rate Gamma12 of the pair.

    Continuous at zero separation, where it attains the maximal value
    sqrt(gamma1*gamma2).
    """
    root = math.sqrt(pair.gamma1 * pair.gamma2)
    if pair.separation == 0:
        return root
    x = 2 * math.pi * pair.separation
    return root * damping_profile(x, pair.mu_dot_r)


def damping_matrix(pair: AtomPairConfig) -> np.ndarray:
    """Damping matrix [[gamma1, Gamma12], [Gamma12, gamma2]] of the pair."""
    g12 = collective_damping(pair)
    return np.array([[pair.gamma1, g12], [g12, pair.gamma2]])


def dipole_dipole_shift(pair: AtomPairConfig) -> float:
    """Coherent dipole-dipole coupling Omega12 of the pair.

    Diverges like r^-3 at contact, so zero separation is rejected.
    """
    if pair.separation == 0:
        raise DomainError("dipole-dipole shift diverges at zero separation")
    x = 2 * math.pi * pair.separation
    return math.sqrt(pair.gamma1 * pair.gamma2) * shift_profile(x, pair.mu_dot_r)


def rabi_at_atoms(drive: DriveField, pair: AtomPairConfig) -> tuple[complex, complex]:
    """Position-resolved complex Rabi frequencies (Omega1, Omega2).

    The atoms sit at -r12/2 and +r12/2 on the interatomic axis, so a
    running wave gives a pure phase difference exp(i kL.r12) while a
    standing wave modulates the amplitudes.
    """
    cos_beta = math.cos(drive.propagation_angle)
    if abs(cos_beta) < 4e-16:
        cos_beta = 0.0  # cos(pi/2) is not exactly zero in floating point
    kr_half = math.pi * pair.separation * cos_beta
    if drive.wave_type == "running":
        om1 = drive.rabi * np.exp(1j * (-kr_half + drive.phase))
        om2 = drive.rabi * np.exp(1j * (+kr_half + drive.phase))
    else:
        om1 = drive.rabi * math.cos(-kr_half + drive.phase) + 0j
        om2 = drive.rabi * math.cos(+kr_half + drive.phase) + 0j
    return complex(om1), complex(om2)


def propagation_factor(solid_angle: float) -> float:
    """Fraction of vacuum modes covered by a squeezed cone of half-angle theta_s."""
    c = math.cos(solid_angle)
    return 0.5 * (1.0 - 0.25 * (3.0 + c ** 2) * c)


def effective_squeezing(res: SqueezedReservoir) -> tuple[float, float]:
    """(N_eff, |M_eff|) seen by the atoms after matching and propagation."""
    scale = res.matching * propagation_factor(res.solid_angle)
    return res.n_photons * scale, res.m_magnitude * scale


def classify_squeezing(n: float, m_magnitude: float) -> str:
    """Classify two-photon correlations: vacuum, classical, quantum, invalid.

    A thermal field (m = 0, n > 0) counts as classical.
    """
    if n < 0 or m_magnitude < 0:
        raise ValidationError("n and m must be nonnegative")
    if n == 0 and m_magnitude == 0:
        return "vacuum"
    if m_magnitude ** 2 > n * (n + 1) * (1 + 1e-12) + 1e-300:
        return "invalid"
    if m_magnitude <= n:
        return "classical"
    return "quantum"
