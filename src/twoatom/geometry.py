"""Geometry-dependent couplings of a pair of two-level emitters.

Units: all rates and frequencies in units of the first atom's decay rate
(gamma1 = 1 by convention), distances in units of the resonant wavelength,
so k0*r12 = 2*pi*separation.  Atom positions are fixed on the x axis at
-r12/2 and +r12/2.
Numeric fields may be arrays, one object then describing a whole scan:
checks apply to every point, and the couplings broadcast over the fields.
"""
import math
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import DomainError, ValidationError


def _require(ok, message: str) -> None:
    """Raise ValidationError unless ``ok`` holds at every point (NaN fails)."""
    if not (ok is True or np.asarray(ok).all()):
        raise ValidationError(message)


def _value(x):
    """A Python number for one point, the array itself for a stack."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


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
        _require((self.gamma1 > 0) & (self.gamma2 > 0),
                 "decay rates must be positive")
        _require(self.separation >= 0,
                 "separation must satisfy separation >= 0")
        _require((self.dipole_angle >= 0)
                 & (self.dipole_angle <= math.pi / 2 + 1e-12),
                 "dipole_angle must lie in [0, pi/2]")

    @property
    def mu_dot_r(self):
        return np.cos(self.dipole_angle)


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
        _require(self.rabi >= 0, "rabi must satisfy rabi >= 0")
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
        _require((self.n_photons >= 0) & (self.m_magnitude >= 0),
                 "n_photons and m_magnitude must be >= 0")
        bound = self.n_photons * (self.n_photons + 1.0)
        _require(self.m_magnitude ** 2 <= bound * (1.0 + 1e-12) + 1e-15,
                 "two-photon correlation bound violated: m^2 <= n(n+1)")
        _require((self.matching >= 0) & (self.matching <= 1),
                 "matching must lie in [0, 1]")
        _require((self.solid_angle > 0) & (self.solid_angle <= math.pi),
                 "solid_angle must lie in (0, pi]")


# Coefficients in x^2, x^2 divided out, of p = 1 - sin(x)/x and q = 1/3
# + (x cos x - sin x)/x^3 = 1/3 + sum_n>=1 (-1)^n 2n x^(2n-2)/(2n+1)!.
# Below _SERIES_X the closed forms cancel, the series do not.
_SERIES_X = 1.0
_P = tuple((-1) ** (n + 1) / factorial(2 * n + 1) for n in range(1, 12))
_Q = tuple((-1) ** n * 2 * n / factorial(2 * n + 1) for n in range(2, 13))


def _series(coeffs: tuple, x):
    x2, total = x * x, 0.0
    for c in reversed(coeffs):
        total = total * x2 + c
    return total * x2


def damping_profile(x, mu_dot_r):
    """Oscillatory profile of the collective damping versus k0*r.

    It equals 1 - (3/2)(a p(x) - b q(x)) with p and q as above, so it is
    exactly 1 at contact and stays below 1 near it, where a p >= b q.
    """
    a, b = 1.0 - mu_dot_r ** 2, 1.0 - 3.0 * mu_dot_r ** 2

    def series(x):
        return a * _series(_P, x) - b * _series(_Q, x)

    def closed(x):
        sinc = np.sin(x) / x
        return a * (1.0 - sinc) - b * (1.0 / 3.0 + (np.cos(x) - sinc) / x ** 2)

    if isinstance(x, float):  # one point: numpy's where costs more than this
        excess = series(x) if x < _SERIES_X else closed(x)
    else:
        small = x < _SERIES_X
        excess = np.where(small, series(np.where(small, x, 0.0)),
                          closed(np.where(small, _SERIES_X, x)))
    return 1.0 - 1.5 * excess


def shift_profile(x, mu_dot_r):
    """Oscillatory profile of the dipole-dipole shift versus k0*r; it
    overflows to a non-finite value below x ~ 1e-102."""
    a, b = 1.0 - mu_dot_r ** 2, 1.0 - 3.0 * mu_dot_r ** 2
    cos = np.cos(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return 0.75 * (-a * cos / x + b * (np.sin(x) / x ** 2 + cos / x ** 3))


def collective_damping(pair: AtomPairConfig):
    """Cross-damping rate Gamma12 of the pair.

    Continuous at zero separation, where it attains the maximal value
    sqrt(gamma1*gamma2).
    """
    return _value(np.sqrt(pair.gamma1 * pair.gamma2) * damping_profile(
        2 * math.pi * pair.separation, pair.mu_dot_r))


def damping_matrix(pair: AtomPairConfig) -> np.ndarray:
    """Damping matrices [[gamma1, Gamma12], [Gamma12, gamma2]], (..., 2, 2)."""
    g1, g12, g2 = np.broadcast_arrays(pair.gamma1, collective_damping(pair),
                                      pair.gamma2)
    return np.stack([g1, g12, g12, g2], -1).reshape(g1.shape + (2, 2))


def dipole_dipole_shift(pair: AtomPairConfig):
    """Coherent dipole-dipole coupling Omega12 of the pair.

    Diverges like r^-3 at contact, so zero separation is rejected.
    """
    if np.asarray(pair.separation == 0).any():
        raise DomainError("dipole-dipole shift diverges at zero separation")
    return _value(np.sqrt(pair.gamma1 * pair.gamma2) * shift_profile(
        2 * math.pi * pair.separation, pair.mu_dot_r))


def rabi_at_atoms(drive: DriveField, pair: AtomPairConfig):
    """Position-resolved complex Rabi frequencies (Omega1, Omega2).

    The atoms sit at -r12/2 and +r12/2 on the interatomic axis, so a
    running wave gives a pure phase difference exp(i kL.r12) while a
    standing wave modulates the amplitudes.
    """
    cos_beta = np.cos(drive.propagation_angle)
    # cos(pi/2) is not exactly zero in floating point
    cos_beta = np.where(np.abs(cos_beta) < 4e-16, 0.0, cos_beta)
    kr_half = math.pi * pair.separation * cos_beta
    if drive.wave_type == "running":
        om1 = drive.rabi * np.exp(1j * (-kr_half + drive.phase))
        om2 = drive.rabi * np.exp(1j * (+kr_half + drive.phase))
    else:
        om1 = drive.rabi * np.cos(-kr_half + drive.phase) + 0j
        om2 = drive.rabi * np.cos(+kr_half + drive.phase) + 0j
    return _value(om1), _value(om2)


def effective_squeezing(res: SqueezedReservoir):
    """(N_eff, |M_eff|) seen by the atoms after matching and propagation
    (the fraction of vacuum modes a cone of half-angle theta_s covers)."""
    c = np.cos(res.solid_angle)
    scale = res.matching * _value(0.5 * (1.0 - 0.25 * (3.0 + c ** 2) * c))
    return res.n_photons * scale, res.m_magnitude * scale


def beyond_two_photon_bound(n, m_magnitude):
    """Where |m|^2 exceeds n(n+1) by more than rounding, elementwise."""
    return m_magnitude ** 2 > n * (n + 1) * (1 + 1e-12) + 1e-300
