"""Reference implementations that only the tests read.

They check the engine independently of its own code paths: Kronecker-
product superoperators against the kron-free assembly, root-finding
inverses of the coupling profiles, near-field and Gaussian-matching
limits, and the exact one-excitation decay intensity of an undriven pair.
"""
import math

import numpy as np
from scipy.optimize import brentq

from twoatom import geometry
from twoatom.errors import DomainError
from twoatom.operators import I4


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
