"""Quantum-jump (Monte Carlo wave-function) unraveling of any generator.

Between jumps the conditional state evolves under the generator's
no-jump Hamiltonian h - (i/2) sum_k rate_k op_k^+ op_k; jump times are
sampled exactly by inverting the no-jump probability built from its
eigendecomposition, and each jump applies one of the generator's
channels.  Trajectories are reproducible: stream index i of base seed s
always uses the counter-based generator keyed by (s, i), so ensembles
are bit-identical no matter how many workers run them.
"""
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .dynamics import Generator
from .errors import TrajectoryBudgetError, ValidationError
from .validation import validate_density_matrix

MAX_JUMPS_DEFAULT = 1_000_000
MAX_EIGVEC_COND = 1e6


@dataclass(frozen=True)
class TrajectoryRecord:
    """One stochastic realization: stream identity, jump history, endpoint."""
    seed: int
    index: int
    jump_times: np.ndarray
    channels: np.ndarray
    post_jump_states: np.ndarray
    final_state: np.ndarray


@dataclass(frozen=True)
class JumpEnsemble:
    """Ensemble summary plus the individual trajectory records."""
    times: np.ndarray
    mean_states: np.ndarray
    population_stderr: np.ndarray
    emission_rate: np.ndarray
    emission_rate_stderr: np.ndarray
    records: list = field(default_factory=list)
    n_trajectories: int = 0


class NoJumpPropagator:
    """Eigendecomposed evolution under a generator's no-jump Hamiltonian.

    Provides the conditional state, the no-jump probability and the
    waiting-time density as closed sums of complex exponentials, which is
    what makes exact jump-time sampling cheap.
    """

    def __init__(self, gen: Generator):
        evals, vmat = np.linalg.eig(gen.conditional_hamiltonian)
        cond = np.linalg.cond(vmat)
        if cond > MAX_EIGVEC_COND:
            raise ValidationError(
                f"conditional Hamiltonian is numerically defective: its "
                f"eigenvector condition number {cond:.2e} exceeds "
                f"{MAX_EIGVEC_COND:.0e}")
        self.evals = evals
        self.vmat = vmat
        self.vinv = np.linalg.inv(vmat)
        self.gram = vmat.conj().T @ vmat
        # decay exponents i(conj(l_k) - l_m) for the 16 cross terms
        self.exponents = (1j * (evals.conj()[:, None] - evals[None, :])).ravel()

    def _weights(self, psi0: np.ndarray) -> np.ndarray:
        c = self.vinv @ psi0
        return ((c.conj()[:, None] * self.gram) * c[None, :]).ravel()

    def state(self, psi0: np.ndarray, t: float) -> np.ndarray:
        c = self.vinv @ psi0
        return self.vmat @ (np.exp(-1j * self.evals * t) * c)

    def survival(self, psi0: np.ndarray, t) -> np.ndarray | float:
        """No-jump probability P(t) = |exp(-i Hc t) psi0|^2."""
        w = self._weights(psi0)
        t = np.asarray(t, dtype=float)
        p = np.real(np.exp(np.multiply.outer(t, self.exponents)) @ w)
        return float(p) if p.ndim == 0 else p

    def waiting_density(self, psi0: np.ndarray, t) -> np.ndarray | float:
        """w1(t) = -dP/dt, evaluated analytically from the exponents."""
        w = self._weights(psi0) * self.exponents
        t = np.asarray(t, dtype=float)
        d = -np.real(np.exp(np.multiply.outer(t, self.exponents)) @ w)
        return float(d) if d.ndim == 0 else d

    def sample_jump(self, psi0: np.ndarray, xi: float,
                    horizon: float) -> float | None:
        """Solve P(t) = xi on [0, horizon]; None when no jump occurs."""
        if self.survival(psi0, horizon) >= xi:
            return None
        f = lambda t: self.survival(psi0, t) - xi
        return brentq(f, 0.0, horizon, xtol=1e-13, rtol=8.9e-16)


def no_jump_probability(psi0: np.ndarray, t, gen: Generator):
    """Probability of detecting no jump up to time t from state psi0."""
    psi0 = _normalized_vector(psi0)
    return NoJumpPropagator(gen).survival(psi0, t)


def waiting_time_density(psi0: np.ndarray, t, gen: Generator):
    """Density of the first-jump delay from state psi0."""
    psi0 = _normalized_vector(psi0)
    return NoJumpPropagator(gen).waiting_density(psi0, t)


def _normalized_vector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise ValidationError("state vector must have length 4")
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValidationError("state vector must be nonzero")
    return psi / norm


def _initial_sampler(rho0: np.ndarray):
    """Pure states propagate as-is; mixed states are sampled by weight."""
    evals, evecs = np.linalg.eigh(rho0)
    keep = evals > 1e-12
    weights = evals[keep] / evals[keep].sum()
    states = evecs[:, keep].T.copy()
    if len(weights) == 1:
        return lambda rng: states[0]
    return lambda rng: states[rng.choice(len(weights), p=weights)]


def _simulate_one(index: int, seed: int, prop: NoJumpPropagator,
                  channels, sampler, grid: np.ndarray,
                  max_jumps: int):
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    psi = _normalized_vector(sampler(rng))
    horizon = grid[-1]
    t_now = 0.0
    cursor = 0
    n_grid = len(grid)
    sampled = np.empty((n_grid, 4), dtype=complex)
    jump_times, picks, post_states = [], [], []
    while True:
        xi = rng.random()
        t_jump = prop.sample_jump(psi, xi, horizon - t_now)
        t_stop = horizon if t_jump is None else t_now + t_jump
        while cursor < n_grid and grid[cursor] <= t_stop + 1e-15:
            phi = prop.state(psi, grid[cursor] - t_now)
            sampled[cursor] = phi / np.linalg.norm(phi)
            cursor += 1
        if t_jump is None:
            phi = prop.state(psi, horizon - t_now)
            psi = phi / np.linalg.norm(phi)
            break
        phi = prop.state(psi, t_jump)
        weights = np.array([rate * np.linalg.norm(op @ phi) ** 2
                            for rate, op in channels])
        total = weights.sum()
        if total <= 0:
            # dark state reached, no further emissions possible
            psi = phi / np.linalg.norm(phi)
            t_now = t_stop
            continue
        pick = rng.choice(len(channels), p=weights / total)
        phi = channels[pick][1] @ phi
        psi = phi / np.linalg.norm(phi)
        t_now = t_stop
        jump_times.append(t_now)
        picks.append(pick)
        post_states.append(psi.copy())
        if len(jump_times) > max_jumps:
            raise TrajectoryBudgetError(
                f"trajectory {index} exceeded {max_jumps} jumps",
                partial=(index, np.array(jump_times)))
    while cursor < n_grid:
        phi = prop.state(psi, grid[cursor] - t_now)
        sampled[cursor] = phi / np.linalg.norm(phi)
        cursor += 1
    record = TrajectoryRecord(
        seed=seed, index=index,
        jump_times=np.array(jump_times, dtype=float),
        channels=np.array(picks, dtype=int),
        post_jump_states=np.array(post_states, dtype=complex).reshape(-1, 4),
        final_state=psi)
    return sampled, record


def _run_block(args):
    (indices, seed, gen, rho0, grid, max_jumps) = args
    prop = NoJumpPropagator(gen)
    channels = gen.channels
    sampler = _initial_sampler(rho0)
    n_grid = len(grid)
    state_sum = np.zeros((n_grid, 4, 4), dtype=complex)
    pop_sum = np.zeros((n_grid, 4))
    pop_sumsq = np.zeros((n_grid, 4))
    bin_counts = np.zeros(max(n_grid - 1, 1))
    records = []
    for index in indices:
        sampled, record = _simulate_one(index, seed, prop, channels,
                                        sampler, grid, max_jumps)
        for k in range(n_grid):
            state_sum[k] += np.outer(sampled[k], sampled[k].conj())
        pops = np.abs(sampled) ** 2
        pop_sum += pops
        pop_sumsq += pops ** 2
        if n_grid > 1 and record.jump_times.size:
            bins = np.searchsorted(grid[1:], record.jump_times, side="left")
            for b in bins[bins < n_grid - 1]:
                bin_counts[b] += 1
        records.append(record)
    return state_sum, pop_sum, pop_sumsq, bin_counts, records


def default_worker_count() -> int:
    """Worker count, capped by the TWOATOM_MAX_WORKERS environment variable."""
    n = min(4, os.cpu_count() or 1)
    cap = os.environ.get("TWOATOM_MAX_WORKERS")
    if cap:
        n = max(1, min(n, int(cap)))
    return n


def run_trajectories(gen: Generator, rho0: np.ndarray, n_traj: int,
                     seed: int, grid: np.ndarray, workers: int | None = None,
                     max_jumps: int = MAX_JUMPS_DEFAULT) -> JumpEnsemble:
    """Unravel the generator into an ensemble of jump trajectories and
    average it on the grid.

    The ensemble mean converges to the master-equation state of ``gen``
    at the usual Monte Carlo rate; population standard errors quantify
    that spread.  Jump rates are estimated from the jump counts in each
    grid bin.
    """
    if n_traj < 1:
        raise ValidationError("n_traj must be at least 1")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be one-dimensional and increasing")
    rho0 = validate_density_matrix(rho0)
    workers = default_worker_count() if workers is None else max(1, workers)
    indices = np.arange(n_traj)
    # fixed-size blocks keep the partial-sum grouping, and therefore the
    # ensemble averages, bit-identical for every worker count
    blocks = [indices[i:i + 32] for i in range(0, n_traj, 32)]
    payloads = [(blk, seed, gen, rho0, grid, max_jumps)
                for blk in blocks if blk.size]
    if workers == 1 or len(payloads) == 1:
        results = [_run_block(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block, payloads))
    n_grid = len(grid)
    state_sum = np.zeros((n_grid, 4, 4), dtype=complex)
    pop_sum = np.zeros((n_grid, 4))
    pop_sumsq = np.zeros((n_grid, 4))
    bin_counts = np.zeros(max(n_grid - 1, 1))
    records = []
    for ssum, psum, psq, bc, recs in results:
        state_sum += ssum
        pop_sum += psum
        pop_sumsq += psq
        bin_counts += bc
        records.extend(recs)
    records.sort(key=lambda r: r.index)
    mean_states = state_sum / n_traj
    mean_pop = pop_sum / n_traj
    var = np.maximum(pop_sumsq / n_traj - mean_pop ** 2, 0.0)
    stderr = np.sqrt(var / n_traj)
    if n_grid > 1:
        widths = np.diff(grid)
        rate = bin_counts / (n_traj * widths)
        rate_err = np.sqrt(np.maximum(bin_counts, 1.0)) / (n_traj * widths)
    else:
        rate = np.zeros(1)
        rate_err = np.zeros(1)
    return JumpEnsemble(times=grid, mean_states=mean_states,
                        population_stderr=stderr, emission_rate=rate,
                        emission_rate_stderr=rate_err, records=records,
                        n_trajectories=n_traj)


def export_records(records) -> str:
    """Line-oriented text export of trajectory records.

    One record per line with three space-separated fields: the stream
    identity ``seed:index``, the jump count, and the comma-separated jump
    times at fixed nine-decimal precision ('-' when there were none).
    """
    lines = []
    for rec in records:
        times = ",".join(f"{t:.9f}" for t in rec.jump_times)
        lines.append(f"{rec.seed}:{rec.index} {rec.jump_times.size} "
                     f"{times if times else '-'}")
    return "\n".join(lines) + "\n"
