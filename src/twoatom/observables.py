"""Physical observables of the two-atom system.

Detected intensities are quoted in photons per unit gamma1 time with the
geometric prefactor normalized so the solid-angle integral of the angular
distribution returns the total emission rate.  Two-time correlations use
the quantum regression theorem: collapse, propagate with the generator,
collapse again.  The one-time observables of a state also take a
(..., 4, 4) stack of states, validate it once and return an array.
"""
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .dynamics import Generator, evolve
from .errors import DomainError, UndefinedValueError, ValidationError
from .geometry import _value
from .operators import (KET_A, S1M, S1P, S2M, S2P, SM, SP, expect)
from .validation import validate_density_matrix

# S_i^+ S_j^- over the atom pair (i, j)
_RAISE_LOWER = np.array([[S1P @ S1M, S1P @ S2M], [S2P @ S1M, S2P @ S2M]])


@dataclass(frozen=True)
class DetectionGeometry:
    """Angles of the detection directions to the interatomic axis, plus
    the dipole-observation angle entering the sin^2 radiation pattern."""
    theta1: float
    theta2: float | None = None
    phi: float = math.pi / 2

    def __post_init__(self):
        for angle in (self.theta1, self.theta2, self.phi):
            if angle is not None and not np.all((angle >= 0)
                                                & (angle <= math.pi)):
                raise ValidationError("detection angles must lie in [0, pi]")

    @property
    def second(self) -> float:
        return self.theta1 if self.theta2 is None else self.theta2


@dataclass(frozen=True)
class CorrelationSeries:
    """Delay grid and correlation (or variance) values on it."""
    taus: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.taus) <= 0):
            raise ValidationError("tau grid must be strictly increasing")

    def to_csv(self) -> str:
        lines = ["tau,value"]
        for t, v in zip(self.taus, self.values):
            lines.append(f"{t:.12g},{v:.12g}")
        return "\n".join(lines) + "\n"


def detection_operator(pair: geometry.AtomPairConfig, theta: float) -> np.ndarray:
    """Far-field collapse operator for a detector at angle theta.

    Atoms sit at -r12/2 and +r12/2, so each lowering operator carries the
    optical path phase of its emitter toward the detector.
    """
    phase = math.pi * pair.separation * math.cos(theta)
    return (math.sqrt(pair.gamma1) * np.exp(-1j * phase) * S1M
            + math.sqrt(pair.gamma2) * np.exp(+1j * phase) * S2M)


def total_intensity(rho: np.ndarray, pair) -> float | np.ndarray:
    """Total photon emission rate sum_ij G_ij <S_i^+ S_j^-> of the state.

    A stack of states broadcasts against a scalar or a stacked pair.
    """
    rho = validate_density_matrix(rho)
    gm = geometry.damping_matrix(pair)
    corr = np.einsum("...ab,ijba->...ij", rho, _RAISE_LOWER).real
    return _value(np.maximum((gm * corr).sum(axis=(-2, -1)), 0.0))


def angular_intensity(rho: np.ndarray, pair: geometry.AtomPairConfig,
                      geom: DetectionGeometry) -> float | np.ndarray:
    """Intensity per solid angle at detection angle theta1.

    Uses the sin^2 dipole pattern through geom.phi and the interference
    phase k0 r12 cos(theta1) between the two emission paths.  theta1 and
    phi may be arrays, which broadcast against each other; the state is
    validated once.
    """
    rho = validate_density_matrix(rho)
    pattern = np.sin(geom.phi) ** 2
    phase = 2 * math.pi * pair.separation * np.cos(geom.theta1)
    gm = geometry.damping_matrix(pair)
    amp = expect(S1P @ S1M, rho).real * gm[0, 0] \
        + expect(S2P @ S2M, rho).real * gm[1, 1] \
        + 2 * (math.sqrt(pair.gamma1 * pair.gamma2)
               * (expect(S1P @ S2M, rho) * np.exp(1j * phase)).real)
    value = 3.0 / (8.0 * math.pi) * pattern * amp
    return _value(np.where(abs(value) < 1e-14, np.maximum(value, 0.0), value))


def g2_zero(rho: np.ndarray, pair: geometry.AtomPairConfig,
            geom: DetectionGeometry) -> float | np.ndarray:
    """Equal-time normalized second-order correlation of the detectors."""
    rho = validate_density_matrix(rho)
    d1 = detection_operator(pair, geom.theta1)
    d2 = detection_operator(pair, geom.second)
    i1 = expect(d1.conj().T @ d1, rho).real
    i2 = expect(d2.conj().T @ d2, rho).real
    if np.any(i1 <= 0) or np.any(i2 <= 0):
        raise UndefinedValueError("dark detector placement: zero intensity")
    pair_op = d2 @ d1
    num = expect(pair_op.conj().T @ pair_op, rho).real
    return _value(num / (i1 * i2))


def g2_tau(gen: Generator, rho_start: np.ndarray,
           pair: geometry.AtomPairConfig, geom: DetectionGeometry,
           taus: np.ndarray, normalize: bool = True) -> CorrelationSeries:
    """Two-time intensity correlation by quantum regression.

    The state collapsed by the first detector is propagated exactly by
    evolve, which validates every state it reaches.  With a stationary
    rho_start this is g2(tau); with a transient state it is the
    correlation measured from that instant.  normalize=False returns the
    unnormalized two-time correlation (geometric constant set to one).
    """
    rho_start = validate_density_matrix(rho_start)
    taus = np.asarray(taus, dtype=float)
    d1 = detection_operator(pair, geom.theta1)
    d2 = detection_operator(pair, geom.second)
    collapsed = d1 @ rho_start @ d1.conj().T
    weight = float(np.trace(collapsed).real)
    if weight <= 0:
        raise UndefinedValueError("zero intensity at the first detector")
    series = evolve(gen, collapsed / weight, taus)
    meter = d2.conj().T @ d2
    raw = np.einsum("kij,ji->k", series.states, meter).real
    if not normalize:
        return CorrelationSeries(taus=taus, values=weight * raw)
    i2 = expect(meter, rho_start).real
    if i2 <= 0:
        raise UndefinedValueError("zero intensity at the second detector")
    return CorrelationSeries(taus=taus, values=raw / i2)


def quadrature_variance(rho: np.ndarray, pair: geometry.AtomPairConfig,
                        alpha: float,
                        geom: DetectionGeometry) -> float | np.ndarray:
    """Normally ordered quadrature variance of the fluorescence field,
    per atom, for observation perpendicular to the interatomic axis.

    The quadrature phase is referred to the detected field, which carries
    a 90-degree phase relative to the atomic lowering operator; alpha = 0
    is the component that exhibits the transient squeezing dip.
    """
    rho = validate_density_matrix(rho)
    if abs(geom.theta1 - math.pi / 2) > 1e-9:
        raise DomainError(
            "quadrature variances require observation perpendicular to the "
            "interatomic axis")
    phase = np.exp(1j * (alpha + math.pi / 2))
    sm_mean = expect(SM, rho)
    smsm = expect(SM @ SM, rho)
    spsm = expect(SP @ SM, rho)
    linear = 2.0 * (sm_mean * phase).real
    bracket = spsm.real + (smsm * phase ** 2).real - 0.5 * linear ** 2
    return _value(0.25 * bracket)


def visibility(rho: np.ndarray) -> float | np.ndarray:
    """First-order fringe contrast; negative for a dark-centered pattern.

    A dark state has no fringes: a single one raises UndefinedValueError,
    in a stack its entry is NaN.
    """
    rho = validate_density_matrix(rho)
    corr = np.einsum("...ab,ijba->...ij", rho, _RAISE_LOWER).real
    num = 2.0 * corr[..., 0, 1]
    den = corr[..., 0, 0] + corr[..., 1, 1]
    dark = den <= 1e-14
    if rho.ndim == 2 and dark:
        raise UndefinedValueError("visibility undefined for a dark state")
    return _value(np.where(dark, np.nan, num / np.where(dark, 1.0, den)))


def purity(rho: np.ndarray) -> float | np.ndarray:
    """Tr(rho^2)."""
    rho = validate_density_matrix(rho)
    return _value(np.einsum("...ij,...ji->...", rho, rho).real)


def total_spin_squared(rho: np.ndarray) -> float | np.ndarray:
    """S^2 expectation, 2 - 2 * (antisymmetric-state population)."""
    rho = validate_density_matrix(rho)
    p_anti = np.einsum("i,...ij,j->...", KET_A.conj(), rho, KET_A).real
    return _value(2.0 - 2.0 * p_anti)
