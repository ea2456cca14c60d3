"""Reference implementations that only the tests read.

They check the engine independently of its own code paths: Kronecker-
product superoperators against the kron-free assembly, root-finding
inverses of the coupling profiles, near-field and Gaussian-matching
limits, the exact one-excitation decay intensity of an undriven pair,
and the leading-order closed forms of the two-atom observables.  Each
closed form carries a machine-checkable validity predicate and emits a
ValidityWarning when evaluated outside it; coherence phases follow the
engine's rotating-frame convention (drive coupling -(1/2)(Omega S+ +
h.c.)).  The last sections hold helpers that no engine path calls:
superposition-operator coefficients and rates, the squeezing class,
Mandel Q, the squeezed-fluctuation mapping and the no-jump statistics of
one state vector.
"""
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from twoatom import geometry
from twoatom.basis import basis_transform
from twoatom.dynamics import Generator
from twoatom.errors import DomainError, ValidationError
from twoatom.geometry import beyond_two_photon_bound
from twoatom.jumps import NoJumpPropagator
from twoatom.operators import I4, KET_EE, KET_GG, SM, SP
from twoatom.validation import validate_density_matrix


def spre_spost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> a rho b under column stacking."""
    return np.kron(b.T, a)


def dissipator(rate: float, op: np.ndarray) -> np.ndarray:
    """Lindblad dissipator rate*(L rho L^+ - (L^+ L rho + rho L^+ L)/2)."""
    op = np.asarray(op, dtype=complex)
    ldl = op.conj().T @ op
    return rate * (spre_spost(op, op.conj().T)
                   - 0.5 * spre_spost(ldl, I4)
                   - 0.5 * spre_spost(I4, ldl))


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Superoperator for the coherent part -i[H, rho]."""
    h = np.asarray(h, dtype=complex)
    return -1j * (spre_spost(h, I4) - spre_spost(I4, h))


def quasistatic_shift(pair: geometry.AtomPairConfig) -> float:
    """Near-field r^-3 limit of the dipole-dipole coupling."""
    if pair.separation == 0:
        raise DomainError("quasistatic shift diverges at zero separation")
    x = 2 * math.pi * pair.separation
    b = 1.0 - 3.0 * pair.mu_dot_r ** 2
    return 0.75 * math.sqrt(pair.gamma1 * pair.gamma2) * b / x ** 3


def gaussian_matching(spot_size: float, focal_angle: float,
                      focal_offset: float = 0.0) -> float:
    """|D|^2 for a Gaussian squeezed input of waist parameter spot_size
    focused at focal_offset and propagated at focal_angle.

    The focal offset only contributes a phase, so the modulus returned
    here does not depend on it.
    """
    del focal_offset
    return math.exp(-2.0 * spot_size * math.sin(focal_angle) ** 2)


def separation_for_damping(target_ratio: float,
                           pair_like: geometry.AtomPairConfig | None = None,
                           bracket: tuple[float, float] = (1e-4, 0.4399)) -> float:
    """Separation at which Gamma12/sqrt(gamma1*gamma2) equals target_ratio.

    Searches the first monotonically decreasing branch of the damping
    profile by default; target_ratio = 1 maps to zero separation.
    """
    mu_dot_r = pair_like.mu_dot_r if pair_like is not None else 0.0
    if target_ratio >= 1.0:
        return 0.0
    f = lambda s: geometry.damping_profile(2 * math.pi * s, mu_dot_r) - target_ratio
    lo, hi = bracket
    if f(lo) < 0:
        raise DomainError("target damping ratio not reachable in bracket")
    while f(hi) > 0:
        hi *= 1.5
        if hi > 50:
            raise DomainError("target damping ratio not reachable")
    return brentq(f, lo, hi, xtol=1e-14)


def separation_for_shift(target_shift: float,
                         pair_like: geometry.AtomPairConfig | None = None,
                         bracket: tuple[float, float] = (1e-4, 0.25)) -> float:
    """Separation at which |Omega12| equals |target_shift| on the near branch."""
    mu_dot_r = pair_like.mu_dot_r if pair_like is not None else 0.0
    scale = 1.0
    if pair_like is not None:
        scale = math.sqrt(pair_like.gamma1 * pair_like.gamma2)
    goal = abs(target_shift) / scale
    f = lambda s: abs(geometry.shift_profile(2 * math.pi * s, mu_dot_r)) - goal
    lo, hi = bracket
    if f(lo) < 0:
        raise DomainError("target shift too large for bracket")
    while f(hi) > 0:
        hi *= 1.25
        if hi > 10:
            raise DomainError("target shift not reachable")
    return brentq(f, lo, hi, xtol=1e-14)


def one_excitation_intensity(pair: geometry.AtomPairConfig, times,
                             c0=(1.0, 0.0)) -> np.ndarray:
    """Exact decay intensity c(t)^+ G c(t) of an undriven pair started in
    the one-excitation state c0 = (amplitude of |e1 g2>, of |g1 e2>).

    Below two excitations no jump returns population to the manifold, so
    c(t) = exp(-i H_eff t) c0 with the 2x2 no-jump block
    H_eff = [[-delta, Omega12], [Omega12, delta]] - (i/2) G, G the damping
    matrix.  The exponential is the Cayley-Hamilton closed form
    exp(-i H t) = exp(-i tau t) (cos(w t) - i sin(w t)/w (H - tau)),
    tau = tr(H)/2, w^2 = -det(H - tau), so no matrix exponential routine
    is involved.  Requires a non-degenerate block (w != 0).
    """
    g = geometry.damping_matrix(pair)
    omega12 = geometry.dipole_dipole_shift(pair)
    h = (np.array([[-pair.delta, omega12], [omega12, pair.delta]])
         - 0.5j * g)
    tau = 0.5 * np.trace(h)
    k = h - tau * np.eye(2)
    w = np.sqrt(-np.linalg.det(k) + 0j)
    t = np.asarray(times, dtype=float)[:, None]
    c0 = np.asarray(c0, dtype=complex)
    c = np.exp(-1j * tau * t) * (np.cos(w * t) * c0
                                 - 1j * np.sin(w * t) / w * (k @ c0))
    return np.einsum("ti,ij,tj->t", c.conj(), g, c).real


class ValidityWarning(UserWarning):
    """A closed-form expression is evaluated outside its validity regime."""


MARGIN = 10.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        warnings.warn(message, ValidityWarning, stacklevel=3)


# ----------------------------------------------------------------------
# driven dipole correlations (ordinary vacuum)
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# superposition operators
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SuperpositionCoeffs:
    """Normalized complex coefficients of the superposition operators."""
    u: complex
    v: complex

    def __post_init__(self):
        if abs(abs(self.u) ** 2 + abs(self.v) ** 2 - 1.0) > 1e-12:
            raise ValidationError("|u|^2 + |v|^2 must equal 1")


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


# ----------------------------------------------------------------------
# squeezing class, photon statistics, fluctuation mapping
# ----------------------------------------------------------------------

def classify_squeezing(n: float, m_magnitude: float) -> str:
    """Classify two-photon correlations: vacuum, classical, quantum, invalid.

    A thermal field (m = 0, n > 0) counts as classical.
    """
    if n < 0 or m_magnitude < 0:
        raise ValidationError("n and m must be nonnegative")
    if n == 0 and m_magnitude == 0:
        return "vacuum"
    if beyond_two_photon_bound(n, m_magnitude):
        return "invalid"
    if m_magnitude <= n:
        return "classical"
    return "quantum"


def mandel_q(g2_value: float, efficiency: float, window: float) -> float:
    """Photon-statistics parameter q*T*(g2 - 1) of a counting experiment."""
    if g2_value < 0:
        raise ValidationError("g2 must be nonnegative")
    if not 0 < efficiency <= 1:
        raise ValidationError("efficiency must lie in (0, 1]")
    if window <= 0:
        raise ValidationError("counting window must be positive")
    return efficiency * window * (g2_value - 1.0)


def field_variance_mapping(res: geometry.SqueezedReservoir,
                           rho_ss: np.ndarray) -> tuple[float, float]:
    """(incident, emitted) squeezed quadrature variances, in units of the
    field constant, both evaluated at the squeezed quadrature phase.

    The emitted variance is read off the stationary collective-state
    populations and the two-photon coherence.
    """
    rho_ss = validate_density_matrix(rho_ss)
    n_eff, m_eff = geometry.effective_squeezing(res)
    incident = 2.0 * (n_eff - m_eff)
    rc = basis_transform("to_collective", rho_ss)
    rho_u = (rc[3, 0] * np.exp(-1j * res.squeeze_phase)
             + rc[0, 3] * np.exp(1j * res.squeeze_phase)).real
    emitted = 2.0 * rc[1, 1].real + 2.0 * rc[3, 3].real - abs(rho_u)
    return incident, emitted


# ----------------------------------------------------------------------
# no-jump statistics of one state vector
# ----------------------------------------------------------------------

def no_jump_probability(psi0: np.ndarray, t, gen: Generator):
    """Probability of detecting no jump up to time t from state psi0."""
    return NoJumpPropagator(gen).survival(_normalized_vector(psi0), t)


def waiting_time_density(psi0: np.ndarray, t, gen: Generator):
    """Density of the first-jump delay from state psi0."""
    return NoJumpPropagator(gen).waiting_density(_normalized_vector(psi0), t)


def _normalized_vector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise ValidationError("state vector must have length 4")
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValidationError("state vector must be nonzero")
    return psi / norm
