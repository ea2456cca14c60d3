"""Closed-form stationary states, intensities, correlations and variances
of the two-atom system, used as the golden reference for the numerical
engine.

Every expression is a direct transcription of a leading-order analytic
result; each carries a machine-checkable validity predicate and emits a
ValidityWarning when evaluated outside it.  Coherence phases follow the
engine's rotating-frame convention (drive coupling -(1/2)(Omega S+ +
h.c.)); see the module tests for the fixed gauge.
"""
import math
import warnings

import numpy as np

from .errors import ValidityWarning
from .operators import KET_EE, KET_GG, SM, SP

MARGIN = 10.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        warnings.warn(message, ValidityWarning, stacklevel=3)


# ----------------------------------------------------------------------
# driven steady states (ordinary vacuum)
# ----------------------------------------------------------------------

def driven_steady_state(rabi: float, detuning: float, gamma: float,
                        gamma12: float, omega12: float) -> np.ndarray:
    """Stationary collective-basis density matrix of two identical atoms
    driven in phase (propagation perpendicular to the axis).

    Returns the 4x4 matrix in (g, s, a, e) ordering.  The antisymmetric
    state carries the same population as the doubly excited one and no
    coherences.
    """
    ot2 = rabi ** 2 / 2.0
    ot = math.sqrt(ot2)
    g4 = gamma ** 2 + 4.0 * detuning ** 2
    pole = 0.5 * (gamma + gamma12) + 1j * (detuning - omega12)
    z = 4.0 * ot2 ** 2 + g4 * (2.0 * ot2 + abs(pole) ** 2)
    ree = ot2 ** 2 / z
    rss = (ot2 * g4 + ot2 ** 2) / z
    res = 1j * ot ** 3 * (gamma + 2j * detuning) / z
    rsg = 1j * ot * (ot2 * (gamma + 2j * detuning) + g4 * pole) / z
    reg = -ot2 * (gamma + 2j * detuning) * pole / z
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = 1.0 - rss - 2.0 * ree
    out[1, 1] = rss
    out[2, 2] = ree
    out[3, 3] = ree
    out[3, 1] = res
    out[1, 3] = np.conj(res)
    out[1, 0] = rsg
    out[0, 1] = np.conj(rsg)
    out[3, 0] = reg
    out[0, 3] = np.conj(reg)
    return out


def driven_correlators_extended(rabi: float, gamma: float, gamma12: float,
                                omega12: float) -> dict:
    """Resonantly driven stationary dipole correlations at Gamma12 != gamma."""
    d = rabi ** 4 + (rabi ** 2 + omega12 ** 2) * gamma ** 2 \
        + 0.25 * gamma ** 2 * (gamma + gamma12) ** 2
    same = (2.0 * rabi ** 4 + gamma ** 2 * rabi ** 2) / (4.0 * d)
    cross = gamma ** 2 * rabi ** 2 / (4.0 * d)
    return {"population": same, "cross": cross,
            "intensity": 2.0 * gamma * same + 2.0 * gamma12 * cross}


def driven_correlators_dicke(rabi: float, gamma: float) -> dict:
    """Resonantly driven stationary dipole correlations of the small
    sample (Gamma12 = gamma, no quasistatic shift)."""
    d = 3.0 * rabi ** 4 + 4.0 * gamma ** 2 * rabi ** 2 + 4.0 * gamma ** 4
    same = (3.0 * rabi ** 4 + 2.0 * rabi ** 2 * gamma ** 2) / (2.0 * d)
    cross = (rabi ** 4 + 2.0 * rabi ** 2 * gamma ** 2) / (2.0 * d)
    return {"population": same, "cross": cross,
            "intensity": 2.0 * gamma * (same + cross)}


# ----------------------------------------------------------------------
# spontaneous-decay intensities and populations
# ----------------------------------------------------------------------

def beat_intensity_frequency_split(t, gamma: float, gamma12: float,
                                   omega12: float, delta: float):
    """Leading-order decay intensity of two equal-width atoms with a small
    frequency splitting, one atom initially excited.  Transcribed verbatim;
    requires |omega12| >> |delta|."""
    _require(abs(omega12) >= MARGIN * abs(delta),
             "frequency-splitting beat formula needs |omega12| >> |delta|")
    t = np.asarray(t, dtype=float)
    w = math.hypot(omega12, delta)
    return np.exp(-gamma * t) * (
        (delta / (2.0 * omega12)) * gamma12 * np.cos(2.0 * w * t)
        + gamma * np.cosh(gamma12 * t) - gamma12 * np.sinh(gamma12 * t))


def beat_intensity_rate_split(t, gamma1: float, gamma2: float,
                              gamma12: float, omega12: float):
    """Decay intensity for equal frequencies but unequal widths; beats at
    twice the coherent coupling.  Requires |omega12| >> gamma1, gamma2."""
    _require(abs(omega12) >= MARGIN * max(gamma1, gamma2),
             "rate-splitting beat formula needs |omega12| >> gamma")
    t = np.asarray(t, dtype=float)
    gt = 0.5 * (gamma1 + gamma2)
    return np.exp(-gt * t) * (
        0.5 * (gamma1 - gamma2) * np.cos(2.0 * omega12 * t)
        + gt * np.cosh(gamma12 * t) - gamma12 * np.sinh(gamma12 * t))


def population_decay(t, gamma: float, gamma12: float,
                     pss0: float = 0.5, paa0: float = 0.5) -> tuple:
    """Free decay of the symmetric/antisymmetric populations."""
    t = np.asarray(t, dtype=float)
    return (pss0 * np.exp(-(gamma + gamma12) * t),
            paa0 * np.exp(-(gamma - gamma12) * t))


def pulse_symmetric_population(t, rabi: float):
    """Population driven into the symmetric state by a resonant pulse in
    the two-state (g, s) truncation."""
    t = np.asarray(t, dtype=float)
    return np.sin(rabi * t / math.sqrt(2.0)) ** 2


# ----------------------------------------------------------------------
# second-order correlations
# ----------------------------------------------------------------------

def dressed_g2(tau, gamma: float, rabi: float):
    """Strong-drive stationary g2 of the small sample; 0.75 at zero delay."""
    _require(rabi >= MARGIN * gamma, "dressed g2 needs rabi >> gamma")
    tau = np.asarray(tau, dtype=float)
    return (1.0 + (1.0 / 32.0) * np.exp(-1.5 * gamma * tau)
            + (3.0 / 32.0) * np.exp(-2.5 * gamma * tau) * np.cos(2.0 * rabi * tau)
            - (3.0 / 8.0) * np.exp(-0.75 * gamma * tau) * np.cos(rabi * tau))


def driven_g2_zero(rabi: float, detuning: float, gamma: float,
                   gamma12: float, omega12: float, separation: float,
                   theta1: float, theta2: float) -> float:
    """Equal-time g2 of the driven stationary pair for two detectors."""
    g4 = gamma ** 2 + 4.0 * detuning ** 2
    u = (rabi ** 4 + g4 * rabi ** 2
         + g4 * (0.25 * (gamma + gamma12) ** 2 + (detuning - omega12) ** 2)) \
        / (g4 + 2.0 * rabi ** 2) ** 2
    w = g4 / (g4 + 2.0 * rabi ** 2)
    c1 = 2 * math.pi * separation * math.cos(theta1)
    c2 = 2 * math.pi * separation * math.cos(theta2)
    num = 2.0 * u * (1.0 + math.cos(c1 - c2))
    den = (1.0 + w * math.cos(c1)) * (1.0 + w * math.cos(c2))
    return num / den


def anticorrelation_detuned(gamma: float, gamma12: float,
                            detuning: float) -> float:
    """Weak-field single-detector g2 at large-detuning one-photon
    resonance, detuning matched to the level shift."""
    _require(abs(detuning) >= MARGIN * gamma,
             "detuned anticorrelation needs |detuning| >> gamma")
    return (gamma + gamma12) ** 2 / (4.0 * detuning ** 2)


def transient_g2_identical(t: float, tau, gamma: float, gamma12: float,
                           omega12: float, separation: float,
                           theta1: float, theta2: float):
    """Unnormalized two-time correlation of two initially excited
    identical atoms (geometric constant set to one)."""
    tau = np.asarray(tau, dtype=float)
    p1 = 2 * math.pi * separation * math.cos(theta1)
    p2 = 2 * math.pi * separation * math.cos(theta2)
    envelope = 0.5 * gamma ** 2 * np.exp(-gamma * (2.0 * t + tau))
    return envelope * (
        (1.0 + math.cos(p1) * math.cos(p2)) * np.cosh(gamma12 * tau)
        - (math.cos(p1) + math.cos(p2)) * np.sinh(gamma12 * tau)
        + math.sin(p1) * math.sin(p2) * np.cos(2.0 * omega12 * tau))


def transient_g2_independent(t: float, tau, gamma1: float, gamma2: float,
                             delta: float, separation: float,
                             theta1: float, theta2: float):
    """Unnormalized two-time correlation of two initially excited
    independent atoms; nonidentical atoms beat at the full splitting."""
    tau = np.asarray(tau, dtype=float)
    p1 = 2 * math.pi * separation * math.cos(theta1)
    p2 = 2 * math.pi * separation * math.cos(theta2)
    gbar = 0.5 * (gamma1 + gamma2)
    envelope = 0.5 * gamma1 * gamma2 * np.exp(-gbar * (2.0 * t + tau))
    return envelope * (np.cosh(0.5 * (gamma2 - gamma1) * tau)
                       + np.cos((p1 - p2) - 2.0 * delta * tau))


# ----------------------------------------------------------------------
# quadrature variances
# ----------------------------------------------------------------------

def transient_variance_inphase(t, gamma: float, rabi: float):
    """Transient in-phase quadrature variance of the strongly driven
    small sample from the ground state; dips to -1/16."""
    _require(rabi >= MARGIN * gamma, "transient variance needs rabi >> gamma")
    t = np.asarray(t, dtype=float)
    return (1.0 / 3.0
            - 0.125 * np.exp(-2.5 * gamma * t) * np.cos(2.0 * rabi * t)
            + (1.0 / 24.0) * np.exp(-1.5 * gamma * t)
            - 0.5 * np.exp(-1.5 * gamma * t) * np.sin(rabi * t) ** 2
            - 0.25 * np.exp(-0.75 * gamma * t) * np.cos(rabi * t))


def transient_variance_quadrature(t, gamma: float, rabi: float):
    """Out-of-phase companion of :func:`transient_variance_inphase`;
    positive at all times."""
    _require(rabi >= MARGIN * gamma, "transient variance needs rabi >> gamma")
    t = np.asarray(t, dtype=float)
    return (1.0 / 3.0 - (1.0 / 12.0) * np.exp(-1.5 * gamma * t)
            - 0.25 * np.exp(-0.75 * gamma * t) * np.cos(rabi * t))


def twophoton_variance_profile(alpha: float, detuning, gamma: float,
                               rabi: float, omega12: float):
    """Two-photon resonance structure of the stationary variance for
    omega12 >> rabi >> gamma: dispersive at alpha = 0, absorptive at
    alpha = pi/4."""
    _require(abs(omega12) >= MARGIN * rabi and rabi >= MARGIN * gamma,
             "two-photon variance profile needs omega12 >> rabi >> gamma")
    detuning = np.asarray(detuning, dtype=float)
    lorentz = gamma ** 2 + 4.0 * detuning ** 2
    return (rabi ** 2 / omega12) * (detuning * math.cos(2.0 * alpha)
                                    + gamma * math.sin(2.0 * alpha)) / lorentz


# ----------------------------------------------------------------------
# visibility
# ----------------------------------------------------------------------

def driven_visibility(rabi: float, detuning: float, gamma: float) -> float:
    """Fringe visibility of the driven stationary pair, drive
    perpendicular to the axis; independent of the interatomic coupling."""
    g4 = gamma ** 2 + 4.0 * detuning ** 2
    return g4 / (g4 + 2.0 * rabi ** 2)


def squeezed_visibility(n_eff: float, m_eff: float, a: float) -> float:
    """Fringe visibility of the stationary pair in a squeezed vacuum at
    damping ratio a = Gamma12/gamma; negative (dark center)."""
    nn = 2.0 * n_eff + 1.0
    den = n_eff * nn ** 3 + 2.0 * m_eff ** 2 * (a ** 2 + nn - nn ** 2)
    return -2.0 * a * m_eff ** 2 / den


# ----------------------------------------------------------------------
# squeezed-vacuum stationary states
# ----------------------------------------------------------------------

def squeezed_steady_dicke(n_eff: float, m_eff: float) -> dict:
    """Stationary populations and two-photon coherence of the small
    sample in a squeezed vacuum (triplet sector, reached from the
    ground state)."""
    nn = 2.0 * n_eff + 1.0
    q = 3.0 * n_eff ** 2 + 3.0 * n_eff + 1.0 - 3.0 * m_eff ** 2
    ree = (n_eff ** 2 * nn - (2.0 * n_eff - 1.0) * m_eff ** 2) / (nn * q)
    rss = (n_eff * (n_eff + 1.0) - m_eff ** 2) / q
    ru = 2.0 * m_eff / (nn * q)
    return {"ree": ree, "rss": rss, "raa": 0.0, "ru": ru,
            "rgg": 1.0 - ree - rss}


def squeezed_steady_finite(n_eff: float, m_eff: float, a: float) -> dict:
    """Stationary state of the pair at finite separation in a squeezed
    vacuum, a = Gamma12/gamma < 1."""
    nn = 2.0 * n_eff + 1.0
    g = nn ** 2 * (nn ** 4 + 4.0 * m_eff ** 2 * (a ** 2 - nn ** 2))
    ree = n_eff ** 2 / nn ** 2 + a ** 2 * m_eff ** 2 * (4.0 * n_eff + 1.0) / g
    rss = n_eff * (n_eff + 1.0) / nn ** 2 \
        - a * m_eff ** 2 * (2.0 * nn ** 2 - a) / g
    raa = n_eff * (n_eff + 1.0) / nn ** 2 \
        + a * m_eff ** 2 * (2.0 * nn ** 2 + a) / g
    ru = 2.0 * a * nn ** 3 * m_eff / g
    return {"ree": ree, "rss": rss, "raa": raa, "ru": ru,
            "rgg": 1.0 - ree - rss - raa}


def squeezed_steady_secular(n_eff: float, m_eff: float, a: float) -> dict:
    """Stationary state of two far-detuned atoms (|delta| >> gamma) with
    the squeezing carrier midway between the transition frequencies; the
    symmetric and antisymmetric states stay equally populated."""
    nn = 2.0 * n_eff + 1.0
    d = nn ** 2 - 4.0 * a ** 2 * m_eff ** 2
    ree = 0.25 * ((2.0 * n_eff - 1.0) / nn + 1.0 / d)
    rss = 0.25 * (1.0 - 1.0 / d)
    ru = 2.0 * a * m_eff / (nn * d)
    return {"ree": ree, "rss": rss, "raa": rss, "ru": ru,
            "rgg": 1.0 - ree - 2.0 * rss}


# ----------------------------------------------------------------------
# two-photon entangled states
# ----------------------------------------------------------------------

def tpe_state(n_eff: float, phi_s: float = 0.0) -> np.ndarray:
    """Pure two-photon entangled stationary state of the ideally squeezed
    small sample, as a product-basis 4-vector."""
    nn = 2.0 * n_eff + 1.0
    return (math.sqrt(n_eff + 1.0) * KET_GG
            + np.exp(1j * phi_s) * math.sqrt(n_eff) * KET_EE) / math.sqrt(nn)


def tpe_annihilation_residual(state: np.ndarray, n_eff: float,
                              phi_s: float = 0.0) -> float:
    """Norm of (mu S- + nu S+)|state> with mu^2 = n_eff + 1, nu^2 = n_eff.

    The root of nu is taken with phase -exp(i phi_s), which is the branch
    annihilating the two-photon entangled state.
    """
    mu = math.sqrt(n_eff + 1.0)
    nu = -np.exp(1j * phi_s) * math.sqrt(n_eff)
    op = mu * SM + nu * SP
    return float(np.linalg.norm(op @ np.asarray(state, dtype=complex)))


def entangled_eigenstates(rho_collective: np.ndarray,
                          block_tol: float = 1e-8) -> list:
    """Diagonalize a collective-basis stationary state into its entangled
    eigenstates.

    Expects the block structure produced by squeezed-vacuum driving
    (populations plus a g-e two-photon coherence); anything else falls
    back to a full diagonalization with a structure warning.  Returns a
    list of (label, population, collective-basis eigenvector).
    """
    rho = np.asarray(rho_collective, dtype=complex)
    off = rho.copy()
    for k in range(4):
        off[k, k] = 0.0
    off[0, 3] = off[3, 0] = 0.0
    if np.abs(off).max() > block_tol:
        warnings.warn("state is not two-photon block structured; "
                      "falling back to a full diagonalization",
                      ValidityWarning, stacklevel=2)
        evals, evecs = np.linalg.eigh(rho)
        order = np.argsort(evals)[::-1]
        return [(f"eig{k}", float(evals[order[k]].real), evecs[:, order[k]])
                for k in range(4)]
    rgg, rss, raa, ree = (rho[k, k].real for k in range(4))
    reg = rho[3, 0]
    split = math.sqrt((rgg - ree) ** 2 + 4.0 * abs(reg) ** 2)
    p1 = 0.5 * (rgg + ree) + 0.5 * split
    p2 = 0.5 * (rgg + ree) - 0.5 * split
    out = []
    for label, pop, amp_g, amp_e in (
            ("tpe_plus", p1, p1 - ree, reg),
            ("tpe_minus", p2, np.conj(reg), p2 - rgg)):
        vec4 = np.zeros(4, dtype=complex)
        norm = math.sqrt(abs(amp_g) ** 2 + abs(amp_e) ** 2)
        if norm < 1e-15:
            vec4[0 if label == "tpe_plus" else 3] = 1.0
        else:
            vec4[0] = amp_g / norm
            vec4[3] = amp_e / norm
        out.append((label, float(pop), vec4))
    sym = np.zeros(4, dtype=complex)
    sym[1] = 1.0
    anti = np.zeros(4, dtype=complex)
    anti[2] = 1.0
    out.append(("symmetric", float(rss), sym))
    out.append(("antisymmetric", float(raa), anti))
    return out


# ----------------------------------------------------------------------
# fluctuation mapping
# ----------------------------------------------------------------------

def incident_variance(n_eff: float, m_eff: float) -> float:
    """Normally ordered quadrature variance of the incident squeezed field."""
    return 2.0 * (n_eff - m_eff)


def emitted_variance_dicke(n_eff: float, m_eff: float) -> float:
    """Same quadrature of the fluorescence from the stationary small
    sample; the incident fluctuations scaled by 1/(2 n_eff + 1)."""
    return 2.0 * (n_eff - m_eff) / (2.0 * n_eff + 1.0)
