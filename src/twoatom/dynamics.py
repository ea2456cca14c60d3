"""Lindblad models of the two-atom reservoirs and their solvers.

Each reservoir is described once, by a Hamiltonian and a set of decay
channels (rate, operator).  The 16x16 generator acting on column-stacked
density matrices in the product basis, the no-jump Hamiltonian and the
reset map of the quantum-jump unraveling all follow from that model.
Every model lives in a rotating frame that makes it time independent
(laser frame for driven scenarios, squeezing carrier frame for squeezed
ones, each atom's own frame for the secular nonidentical squeezed case).
"""
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import geometry
from .errors import DomainError, SteadyStateError, ValidationError
from .operators import S1M, S1P, S1Z, S2M, S2P, S2Z, SM, SP, SZ, vec
from .validation import validate_density_matrix

NULLSPACE_RTOL = 1e-8
# generators solved per batched SVD: bounds the memory a long scan holds
STACK_CHUNK = 128

_EXCHANGE = S1P @ S2M + S2P @ S1M
_LOWERING = np.array([S1M, S2M])
_LADDER = np.array([S1M, S2M, S1P, S2P])
_EYE = np.eye(4)

# Pade degrees m with the largest 1-norm theta_m at which the [m/m]
# approximant of exp is accurate to double precision, and the
# approximant's coefficients b_0..b_m (Higham, SIAM J. Matrix Anal. Appl.
# 26, 1179 (2005), Table 2.3 and eq. (2.6))
_PADE = (
    (1.495585217958292e-2, (120., 60., 12., 1.)),
    (2.539398330063230e-1, (30240., 15120., 3360., 420., 30., 1.)),
    (9.504178996162932e-1, (17297280., 8648640., 1995840., 277200., 25200.,
                            1512., 56., 1.)),
    (2.097847961257068e0, (17643225600., 8821612800., 2075673600.,
                           302702400., 30270240., 2162160., 110880., 3960.,
                           90., 1.)),
    (5.371920351148152e0, (64764752532480000., 32382376266240000.,
                           7771770303897600., 1187353796428800.,
                           129060195264000., 10559470521600., 670442572800.,
                           33522128640., 1323241920., 40840800., 960960.,
                           16380., 182., 1.)),
)


@dataclass(frozen=True)
class Generator:
    """Lindblad model rho_dot = -i[h, rho] + sum_k rate_k D[op_k] rho.

    ``channels`` is a tuple of (rate, op) pairs with nonnegative rates.
    The no-jump Hamiltonian ``conditional_hamiltonian``, h - (i/2) sum_k
    rate_k op_k^+ op_k, and the 16x16 generator ``matrix`` are derived
    once on construction.
    """
    h: np.ndarray
    channels: tuple
    scenario: str
    meta: dict = field(default_factory=dict)
    conditional_hamiltonian: np.ndarray = field(init=False, repr=False)
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rates = np.array([rate for rate, _ in self.channels], dtype=float)
        ops = np.array([op for _, op in self.channels],
                       dtype=complex).reshape(-1, 4, 4)
        hc = self.h - 0.5j * np.einsum("c,cji,cjk->ik", rates, ops.conj(), ops)
        # L = -i (I (x) Hc) + i (Hc* (x) I) + sum_k rate_k (op_k* (x) op_k),
        # each Kronecker product broadcast as [4i + k, 4j + l] <- [i, k, j, l]
        l = np.einsum("c,cij,ckl->ikjl", rates, ops.conj(), ops)
        l += 1j * (hc.conj()[:, None, :, None] * _EYE[None, :, None, :]
                   - _EYE[:, None, :, None] * hc[None, :, None, :])
        object.__setattr__(self, "conditional_hamiltonian", hc)
        object.__setattr__(self, "matrix", l.reshape(16, 16))

    def reset(self, rho: np.ndarray) -> tuple[np.ndarray, float]:
        """Unnormalized post-jump state sum_k rate_k op_k rho op_k^+ and
        its trace, the jump (for vacuum reservoirs: emission) rate."""
        rho = validate_density_matrix(rho)
        out = sum((rate * op @ rho @ op.conj().T for rate, op in self.channels),
                  np.zeros((4, 4), dtype=complex))
        return out, float(np.trace(out).real)


@dataclass(frozen=True)
class EvolutionSeries:
    """Time grid (units of 1/gamma1) and the states reached on it."""
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("time grid must be strictly increasing")


def _channels(kossakowski: np.ndarray, ops) -> tuple:
    """Diagonal channels of sum_ab K_ab (A_b rho A_a^+ - {A_a^+ A_b, rho}/2).

    With K = U diag(rates) U^+ the channels are (rate_k, sum_b conj(U_bk)
    A_b), in eigh order; rates are clipped at zero and none is dropped.
    """
    rates, vecs = np.linalg.eigh(kossakowski)
    combos = np.einsum("bk,bij->kij", vecs.conj(), ops)
    return tuple((max(float(rate), 0.0), op) for rate, op in zip(rates, combos))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of every matrix in a (k, n, n) stack, by scaling and squaring.

    The Pade degree is the lowest whose theta covers the stack's largest
    1-norm; beyond theta_13 each matrix is scaled by its own power of two
    and squared back as often.  Non-finite input gives a NaN stack.
    """
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    if not np.isfinite(norms).all():
        return np.full(a.shape, np.nan, dtype=complex)
    theta, b = next(((t, b) for t, b in _PADE if norms.max() <= t), _PADE[-1])
    b = [c / b[0] for c in b]  # b_0 = 1, so that exp(0) is exactly I
    squarings = np.ceil(np.log2(np.maximum(norms / theta, 1.0))).astype(int)
    a = a * 0.5 ** squarings[:, None, None]
    # p(A) = V + U and p(-A) = V - U, V even and U odd in A
    a2 = a @ a
    powers = [np.eye(a.shape[-1]), a2]
    while len(powers) < len(b) // 2:
        powers.append(powers[-1] @ a2)
    u = a @ sum(c * p for c, p in zip(b[1::2], powers))
    v = sum(c * p for c, p in zip(b[::2], powers))
    r = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN is checked later
        for k in range(squarings.max(initial=0)):
            more = squarings > k
            r[more] = r[more] @ r[more]
    return r


def _pair_shift(pair: geometry.AtomPairConfig) -> float:
    # the Dicke idealization drops the quasistatic shift along with the
    # spatial phases; at finite separation the full expression is used
    if pair.separation == 0:
        return 0.0
    return geometry.dipole_dipole_shift(pair)


def _vacuum(pair: geometry.AtomPairConfig, drive: geometry.DriveField,
            omega12: float) -> Generator:
    om1, om2 = geometry.rabi_at_atoms(drive, pair)
    h = (-drive.detuning * SZ
         + pair.delta * (S2Z - S1Z)
         + omega12 * _EXCHANGE
         - 0.5 * (om1 * S1P + np.conj(om1) * S1M
                  + om2 * S2P + np.conj(om2) * S2M))
    gm = geometry.damping_matrix(pair)
    return Generator(h=h, channels=_channels(gm, _LOWERING),
                     scenario="vacuum_drive",
                     meta={"pair": pair, "drive": drive,
                           "gamma12": gm[0, 1], "omega12": omega12})


def build_vacuum_drive(pair: geometry.AtomPairConfig,
                       drive: geometry.DriveField) -> Generator:
    """Laser-driven pair coupled to the ordinary vacuum, in the frame
    rotating at the laser frequency.

    The two channels diagonalize the damping matrix; for identical atoms
    they are the symmetric and antisymmetric ones at gamma +/- Gamma12.
    """
    return _vacuum(pair, drive, _pair_shift(pair))


def build_squeezed(pair: geometry.AtomPairConfig,
                   res: geometry.SqueezedReservoir) -> Generator:
    """Pair coupled to a broadband squeezed vacuum.

    The channels diagonalize the Kossakowski matrix over (S1-, S2-, S1+,
    S2+), [[(N+1) G, -M G], [-M* G, N G]] with G the damping matrix,
    which is positive semidefinite exactly when |M|^2 <= N(N+1).
    Identical atoms keep the complete generator in the frame rotating at
    the squeezing carrier.  Nonidentical atoms (delta != 0) are treated in
    the secular regime |delta| >> gamma with the carrier tuned midway
    between the transition frequencies: single-atom two-photon terms and
    cross damping average out (the same-type blocks keep the diagonal of
    G, the two-photon blocks its off-diagonal) and only the collective
    two-photon channel survives.  The secular condition is recorded in
    the metadata, not enforced.
    """
    n_eff, m_eff_mag = geometry.effective_squeezing(res)
    if geometry.classify_squeezing(n_eff, m_eff_mag) == "invalid":
        raise ValidationError("reservoir violates the two-photon bound")
    m_eff = m_eff_mag * np.exp(1j * res.squeeze_phase)
    secular = pair.delta != 0.0
    if secular and res.carrier_offset != 0.0:
        raise ValidationError(
            "the secular nonidentical case requires the squeezing carrier "
            "midway between the transition frequencies (carrier_offset = 0)")
    gm = geometry.damping_matrix(pair)
    same = np.diag(np.diag(gm)) if secular else gm
    twin = gm - same if secular else gm
    kossakowski = np.block([[(n_eff + 1.0) * same, -m_eff * twin],
                            [-np.conj(m_eff) * twin, n_eff * same]])
    if secular:
        h = np.zeros((4, 4), dtype=complex)
    else:
        h = -res.carrier_offset * SZ + _pair_shift(pair) * _EXCHANGE
    return Generator(h=h, channels=_channels(kossakowski, _LADDER),
                     scenario="squeezed",
                     meta={"pair": pair, "reservoir": res,
                           "n_eff": n_eff, "m_eff": m_eff,
                           "secular": secular,
                           "secular_condition": "|delta| >> gamma" if secular else None})


def _dressed_rotation() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rz = 0.5 * (SP + SM)
    rp = 1j * (SZ - 0.5 * (SP - SM))
    rm = -1j * (SZ + 0.5 * (SP - SM))
    return rz, rp, rm


def build_dicke_dressed(drive: geometry.DriveField) -> Generator:
    """Secular strong-drive generator of the resonantly driven Dicke pair.

    Valid for rabi >> gamma; the condition is recorded as metadata only.
    The antisymmetric state is annihilated by every term, so it rides
    along as a dark, conserved sector of the embedding 4-level space.
    """
    rz, rp, rm = _dressed_rotation()
    return Generator(h=-drive.rabi * rz,
                     channels=((1.0, rz), (0.25, rm), (0.25, rp)),
                     scenario="dicke_dressed",
                     meta={"drive": drive,
                           "validity": "rabi >> gamma (not enforced)"})


def build_bad_cavity(pair: geometry.AtomPairConfig, g: float,
                     gamma_c: float, omega_drive: float) -> Generator:
    """Distant atoms coupled through an overdamped cavity mode.

    After adiabatic elimination the cavity leaves an effective resonant
    drive g*omega_drive/gamma_c and a collective decay channel at
    g^2/gamma_c on top of ordinary single-atom emission.
    """
    if gamma_c <= 0:
        raise DomainError("cavity decay rate must be positive")
    eta = omega_drive / gamma_c
    return Generator(h=-0.5 * g * eta * (SP + SM),
                     channels=((pair.gamma1, S1M), (pair.gamma2, S2M),
                               (g ** 2 / gamma_c, SM)),
                     scenario="bad_cavity",
                     meta={"pair": pair, "g": g, "gamma_c": gamma_c,
                           "omega_drive": omega_drive,
                           "effective_rabi": g * eta,
                           "collective_rate": g ** 2 / gamma_c,
                           "validity": "gamma_c >> g >> gamma (not enforced)"})


def evolve(gen: Generator, rho0: np.ndarray,
           grid: np.ndarray) -> EvolutionSeries:
    """Propagate rho(t) = exp(L t) rho0 exactly on the given strictly
    increasing grid of nonnegative times.

    One matrix exponential is taken per distinct step of the grid (the
    first step runs from t = 0) and the states follow as a running
    product, so the cost does not depend on the stiffness of L.  The
    states are Hermitian-symmetrized and validated as one stack.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be one-dimensional and increasing")
    if grid[0] < 0:
        raise ValidationError("grid times must be nonnegative")
    steps, which = np.unique(np.diff(grid, prepend=0.0), return_inverse=True)
    propagators = _expm(gen.matrix * steps[:, None, None])
    y = vec(validate_density_matrix(rho0))
    vecs = np.empty((grid.size, 16), dtype=complex)
    for k, j in enumerate(which):
        y = propagators[j] @ y
        vecs[k] = y
    states = vecs.reshape(-1, 4, 4).transpose(0, 2, 1)  # unvec of each row
    states = 0.5 * (states + states.conj().transpose(0, 2, 1))
    validate_density_matrix(states, hermiticity_tol=1e-8,
                            trace_tol=1e-7, positivity_tol=1e-6)
    return EvolutionSeries(times=grid, states=states)


def steady_states(gens, reference: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Stationary states of a sequence of generators, as an (N, 4, 4)
    stack plus the (N,) mask of degenerate kernels.

    The generators are consumed STACK_CHUNK at a time, and each chunk is
    factored by one batched SVD.  Each point's singular values are ranked
    against its own total channel rate, the dissipative scale, not
    against the largest one, which the coherent exchange Omega12 ~ r^-3
    dominates at small separations.  A one-dimensional null space gives
    the unique stationary state.  When the kernel is degenerate (the Dicke
    pair conserves the total spin) the state is the infinite-time limit
    reached from the ground state, or from the supplied reference state,
    computed by spectral projection onto the kernel.
    """
    start = vec(np.diag([1.0, 0, 0, 0]) if reference is None else reference)
    gens = iter(gens)
    states, flags = [np.empty((0, 4, 4), dtype=complex)], [np.empty(0, bool)]
    for chunk in iter(lambda: list(islice(gens, STACK_CHUNK)), []):
        lmats = np.stack([gen.matrix for gen in chunk])
        scales = np.array([sum(rate for rate, _ in gen.channels) or 1.0
                           for gen in chunk])
        u, svals, vh = np.linalg.svd(lmats)
        null = svals / scales[:, None] < NULLSPACE_RTOL
        dims = null.sum(axis=1)
        if not dims.all():
            k = int(np.argmin(dims))
            raise SteadyStateError(
                f"no null vector found; smallest singular value is "
                f"{svals[k, -1] / scales[k]:.2e} times the total channel rate")
        vecs = vh[:, -1].conj()
        degenerate = dims > 1
        for k in np.flatnonzero(degenerate):
            # project along the left null vectors (columns of u) of L
            left, right = u[k][:, null[k]].conj().T, vh[k][null[k]].conj().T
            vecs[k] = right @ np.linalg.solve(left @ right, left @ start)
        rho = vecs.reshape(-1, 4, 4).transpose(0, 2, 1)  # unvec of each row
        tr = rho.trace(axis1=1, axis2=2)
        if np.abs(tr).min() < 1e-12:
            raise SteadyStateError("steady state is traceless")
        rho = rho / tr[:, None, None]
        rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
        projected = rho[degenerate].transpose(0, 2, 1).reshape(-1, 16)
        residual = np.abs(np.einsum("kab,kb->ka", lmats[degenerate],
                                    projected)).max(initial=0.0)
        if residual > 1e-8:
            raise SteadyStateError(f"projected state is not stationary "
                                   f"(residual {residual:.2e})")
        states.append(rho)
        flags.append(degenerate)
    return np.concatenate(states), np.concatenate(flags)


def steady_state(gen: Generator, reference: np.ndarray | None = None
                 ) -> tuple[np.ndarray, bool]:
    """Solve L rho = 0 with unit trace: the one-point call of
    :func:`steady_states`, returning the state and its degeneracy flag."""
    states, degenerate = steady_states([gen], reference)
    return states[0], bool(degenerate[0])
