"""Lindblad models of the two-atom reservoirs and their solvers.

Each reservoir is described once, by a Hamiltonian and a set of decay
channels (rates and operators).  The 16x16 generator acting on
column-stacked density matrices in the product basis, the no-jump
Hamiltonian and the reset map of the quantum-jump unraveling all follow
from that model, which carries a scan of stacked parameters as leading
axes of its arrays.  Every model lives in a rotating frame that makes it
time independent (laser frame for driven scenarios, squeezing carrier
frame for squeezed ones, each atom's own frame for the secular
nonidentical squeezed case).
"""
from dataclasses import dataclass, field, replace
from functools import cached_property

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
    """Lindblad model rho_dot = -i[h, rho] + sum_k rates_k D[ops_k] rho.

    ``h`` is (..., 4, 4), ``rates`` (..., c) and nonnegative, ``ops``
    (..., c, 4, 4), any leading axes a scan, broadcast on construction.
    The no-jump Hamiltonian ``conditional_hamiltonian``, h - (i/2) sum_k
    rates_k ops_k^+ ops_k, is derived then, the 16x16 ``matrix`` on use.
    """
    h: np.ndarray
    rates: np.ndarray
    ops: np.ndarray
    scenario: str
    meta: dict = field(default_factory=dict)
    conditional_hamiltonian: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h, rates, ops = (np.asarray(self.h, dtype=complex),
                         np.asarray(self.rates, dtype=float),
                         np.asarray(self.ops, dtype=complex))
        shape = np.broadcast_shapes(h.shape[:-2], rates.shape[:-1],
                                    ops.shape[:-3])
        for name, value, core in (("h", h, 2), ("rates", rates, 1),
                                  ("ops", ops, 3)):
            object.__setattr__(self, name, np.broadcast_to(
                value, shape + value.shape[value.ndim - core:]))
        object.__setattr__(self, "conditional_hamiltonian", self.h - 0.5j
                           * np.einsum("...c,...cji,...cjk->...ik",
                                       self.rates, self.ops.conj(), self.ops))

    @property
    def shape(self) -> tuple:
        """The scan axes; () for a single model."""
        return self.h.shape[:-2]

    @cached_property
    def matrix(self) -> np.ndarray:
        return _liouvillian(self.conditional_hamiltonian, self.rates, self.ops)

    def reset(self, rho: np.ndarray) -> tuple[np.ndarray, float]:
        """Unnormalized post-jump state sum_k rate_k op_k rho op_k^+ and
        its trace, the jump (for vacuum reservoirs: emission) rate."""
        rho = validate_density_matrix(rho)
        out = np.einsum("c,cij,jk,clk->il", self.rates, self.ops, rho,
                        self.ops.conj())
        return out, float(np.trace(out).real)


def _liouvillian(hc, rates, ops) -> np.ndarray:
    """(..., 16, 16) generators L = -i (I (x) Hc) + i (Hc* (x) I) + sum_k
    rate_k (op_k* (x) op_k), each Kronecker product broadcast as
    [4i + k, 4j + l] <- [i, k, j, l]."""
    l = np.einsum("...cij,...ckl->...ikjl", rates[..., None, None] * ops.conj(),
                  ops)
    l += 1j * (hc.conj()[..., :, None, :, None] * _EYE[:, None, :]
               - _EYE[:, None, :, None] * hc[..., None, :, None, :])
    return l.reshape(hc.shape[:-2] + (16, 16))


@dataclass(frozen=True)
class EvolutionSeries:
    """Time grid (units of 1/gamma1) and the states reached on it."""
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValidationError("time grid must be strictly increasing")


def _channels(kossakowski: np.ndarray, ops: np.ndarray):
    """Diagonal channels of sum_ab K_ab (A_b rho A_a^+ - {A_a^+ A_b, rho}/2)
    for a (..., m, m) stack of K, by one batched eigh.

    With K = U diag(rates) U^+ the channels are rates_k and ops_k = sum_b
    conj(U_bk) A_b, in eigh order; rates are clipped at zero and none is
    dropped.
    """
    rates, vecs = np.linalg.eigh(kossakowski)
    return np.maximum(rates, 0.0), np.einsum("...bk,bij->...kij",
                                             vecs.conj(), ops)


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


def _scaled(x, op: np.ndarray) -> np.ndarray:
    """x * op for every point of a scalar or stacked parameter x."""
    return np.asarray(x)[..., None, None] * op


def _pair_shift(pair: geometry.AtomPairConfig, needed=True):
    # the Dicke idealization drops the quasistatic shift along with the
    # spatial phases; at finite separation the full expression is used,
    # except at points whose Hamiltonian drops it (``needed`` False)
    skip = np.equal(pair.separation, 0) | np.logical_not(needed)
    shift = np.where(skip, 0.0, geometry.dipole_dipole_shift(replace(
        pair, separation=np.where(skip, 1.0, pair.separation))))
    if not np.isfinite(shift).all():  # Omega12 ~ r^-3 overflows first
        smallest = np.min(np.where(skip, np.inf, pair.separation))
        raise DomainError(f"dipole-dipole shift overflows at separation "
                          f"{smallest:g}")
    return shift


def _vacuum(pair: geometry.AtomPairConfig, drive: geometry.DriveField,
            omega12) -> Generator:
    om1, om2 = geometry.rabi_at_atoms(drive, pair)
    h = (_scaled(-drive.detuning, SZ) + _scaled(pair.delta, S2Z - S1Z)
         + _scaled(omega12, _EXCHANGE)
         - 0.5 * (_scaled(om1, S1P) + _scaled(np.conj(om1), S1M)
                  + _scaled(om2, S2P) + _scaled(np.conj(om2), S2M)))
    gm = geometry.damping_matrix(pair)
    rates, ops = _channels(gm, _LOWERING)
    return Generator(h=h, rates=rates, ops=ops, scenario="vacuum_drive",
                     meta={"pair": pair, "drive": drive,
                           "gamma12": gm[..., 0, 1], "omega12": omega12})


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
    the metadata, not enforced.  Each point of a stack is secular or not
    by its own delta.
    """
    n_eff, m_eff_mag = geometry.effective_squeezing(res)
    if np.any(geometry.beyond_two_photon_bound(n_eff, m_eff_mag)):
        raise ValidationError("reservoir violates the two-photon bound")
    m_eff = m_eff_mag * np.exp(1j * np.asarray(res.squeeze_phase))
    secular = np.asarray(pair.delta) != 0.0
    if np.any(secular & (np.asarray(res.carrier_offset) != 0.0)):
        raise ValidationError(
            "the secular nonidentical case requires the squeezing carrier "
            "midway between the transition frequencies (carrier_offset = 0)")
    gm = geometry.damping_matrix(pair)
    same = np.where(secular[..., None, None], gm * np.eye(2), gm)
    twin = np.where(secular[..., None, None], gm - same, gm)
    blocks = np.broadcast_arrays(_scaled(n_eff + 1.0, same),
                                 _scaled(-m_eff, twin),
                                 _scaled(-np.conj(m_eff), twin),
                                 _scaled(n_eff, same))
    kossakowski = np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]])
    h = np.where(secular[..., None, None], 0.0,
                 _scaled(-res.carrier_offset, SZ)
                 + _scaled(_pair_shift(pair, ~secular), _EXCHANGE))
    rates, ops = _channels(kossakowski, _LADDER)
    return Generator(h=h, rates=rates, ops=ops, scenario="squeezed",
                     meta={"pair": pair, "reservoir": res,
                           "n_eff": n_eff, "m_eff": m_eff,
                           "secular": secular,
                           "secular_condition": "|delta| >> gamma"})


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
    return Generator(h=_scaled(-drive.rabi, rz), rates=[1.0, 0.25, 0.25],
                     ops=[rz, rm, rp], scenario="dicke_dressed",
                     meta={"drive": drive,
                           "validity": "rabi >> gamma (not enforced)"})


def build_bad_cavity(pair: geometry.AtomPairConfig, g, gamma_c,
                     omega_drive) -> Generator:
    """Distant atoms coupled through an overdamped cavity mode.

    After adiabatic elimination the cavity leaves an effective resonant
    drive g*omega_drive/gamma_c and a collective decay channel at
    g^2/gamma_c on top of ordinary single-atom emission.
    """
    if np.any(np.asarray(gamma_c) <= 0):
        raise DomainError("cavity decay rate must be positive")
    eta = omega_drive / gamma_c
    collective = g ** 2 / gamma_c
    return Generator(h=_scaled(-0.5 * g * eta, SP + SM),
                     rates=np.stack(np.broadcast_arrays(
                         pair.gamma1, pair.gamma2, collective), axis=-1),
                     ops=[S1M, S2M, SM], scenario="bad_cavity",
                     meta={"pair": pair, "g": g, "gamma_c": gamma_c,
                           "omega_drive": omega_drive,
                           "effective_rabi": g * eta,
                           "collective_rate": collective,
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


def steady_states(gen: Generator, reference: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Stationary states of every point of a (stacked) generator, as a
    gen.shape + (4, 4) stack plus the gen.shape mask of degenerate kernels.

    The 16x16 generators are assembled STACK_CHUNK points at a time, and
    each chunk is factored by one batched SVD.  Each point's singular
    values are ranked against its own total channel rate, the dissipative
    scale, not against the largest one, which the coherent exchange
    Omega12 ~ r^-3 dominates at small separations.  A one-dimensional null
    space gives the unique stationary state.  When the kernel is
    degenerate (the Dicke pair conserves the total spin) the state is the
    infinite-time limit reached from the ground state, or from the
    supplied reference state, computed by spectral projection onto the
    kernel; its residual ||L rho|| is ranked against the same scale.
    """
    start = vec(np.diag([1.0, 0, 0, 0]) if reference is None else reference)
    hc = gen.conditional_hamiltonian.reshape(-1, 4, 4)
    rates = gen.rates.reshape(hc.shape[0], -1)
    ops = gen.ops.reshape(rates.shape + (4, 4))
    scales = np.where(rates.any(axis=1), rates.sum(axis=1), 1.0)
    states = np.empty(hc.shape, dtype=complex)
    flags = np.empty(hc.shape[0], dtype=bool)
    for first in range(0, hc.shape[0], STACK_CHUNK):
        chunk = slice(first, first + STACK_CHUNK)
        lmats = _liouvillian(hc[chunk], rates[chunk], ops[chunk])
        u, svals, vh = np.linalg.svd(lmats)
        null = svals / scales[chunk, None] < NULLSPACE_RTOL
        dims = null.sum(axis=1)
        if not dims.all():
            k = int(np.argmin(dims))
            raise SteadyStateError(
                f"no null vector found; smallest singular value is "
                f"{svals[k, -1] / scales[chunk][k]:.2e} times the total "
                f"channel rate")
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
        residual = (np.abs(np.einsum("kab,kb->ka", lmats[degenerate],
                                     projected)).max(axis=1, initial=0.0)
                    / scales[chunk][degenerate]).max(initial=0.0)
        if residual > 1e-8:
            raise SteadyStateError(f"projected state is not stationary "
                                   f"(residual {residual:.2e} times the "
                                   f"total channel rate)")
        states[chunk], flags[chunk] = rho, degenerate
    return states.reshape(gen.shape + (4, 4)), flags.reshape(gen.shape)


def steady_state(gen: Generator, reference: np.ndarray | None = None
                 ) -> tuple[np.ndarray, bool]:
    """Solve L rho = 0 with unit trace: the one-point call of
    :func:`steady_states`, returning the state and its degeneracy flag."""
    state, degenerate = steady_states(gen, reference)
    return state, bool(degenerate)
