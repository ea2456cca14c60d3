"""Quantum-jump (Monte Carlo wave-function) unraveling of any generator.

Between jumps the conditional state evolves under the generator's
no-jump Hamiltonian h - (i/2) sum_k rate_k op_k^+ op_k; jump times are
sampled exactly by inverting the no-jump probability built from its
eigendecomposition, and each jump applies one of the generator's
channels.  An ensemble runs in one process, its trajectories in lockstep
(one vectorised solve of P(t) = xi per round).  Stream i of seed s draws
from the counter-based generator keyed by (s, i) and all array operations
are row-local, so a record depends only on (s, i), whatever the ensemble.
"""
import os
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Generator
from .errors import TrajectoryBudgetError, ValidationError
from .validation import validate_density_matrix

MAX_JUMPS_DEFAULT = 1_000_000
MAX_EIGVEC_COND = 1e6
XTOL, RTOL = 1e-13, 4 * np.finfo(float).eps
# a block of trajectories advanced together holds at most LANES of them
# and at most SAMPLES grid states, which bounds its working arrays
LANES, SAMPLES = 2048, 1 << 15


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
    """Ensemble summary and records; run_trajectories explains the errors."""
    times: np.ndarray
    mean_states: np.ndarray
    population_stderr: np.ndarray
    emission_rate: np.ndarray
    emission_rate_stderr: np.ndarray
    records: list = field(default_factory=list)
    n_trajectories: int = 0


def _unit(vecs: np.ndarray) -> np.ndarray:
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


class NoJumpPropagator:
    """Eigendecomposed evolution under a generator's no-jump Hamiltonian.

    Provides the conditional state, the no-jump probability and the
    waiting-time density as closed sums of complex exponentials, which is
    what makes exact jump-time sampling cheap.  Each method takes a state
    (4,) or a block (B, 4), row by row; times broadcast against the block.
    Products use einsum: a BLAS product's blocking could make a row's bits
    depend on the block it is in.
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
        c = np.einsum("ij,...j->...i", self.vinv, psi0)
        w = c.conj()[..., :, None] * self.gram * c[..., None, :]
        return w.reshape(w.shape[:-2] + (16,))

    def _series(self, w: np.ndarray, t) -> np.ndarray:
        e = np.exp(np.asarray(t, dtype=float)[..., None] * self.exponents)
        return np.real((w * e).sum(axis=-1))

    def state(self, psi0: np.ndarray, t) -> np.ndarray:
        """Unnormalized conditional state exp(-i Hc t) psi0."""
        c = np.einsum("ij,...j->...i", self.vinv, psi0)
        c = c * np.exp(-1j * np.asarray(t, dtype=float)[..., None] * self.evals)
        return np.einsum("ij,...j->...i", self.vmat, c)

    def survival(self, psi0: np.ndarray, t) -> np.ndarray | float:
        """No-jump probability P(t) = |exp(-i Hc t) psi0|^2."""
        p = self._series(self._weights(psi0), t)
        return float(p) if p.ndim == 0 else p

    def waiting_density(self, psi0: np.ndarray, t) -> np.ndarray | float:
        """w1(t) = -dP/dt, evaluated analytically from the exponents."""
        d = -self._series(self._weights(psi0) * self.exponents, t)
        return float(d) if d.ndim == 0 else d

    def sample_jump(self, psi0: np.ndarray, xi: np.ndarray,
                    horizon: np.ndarray) -> np.ndarray:
        """Solve P(t) = xi on [0, horizon] for states (B, 4), draws (B,)
        and horizons (B,); NaN where P(horizon) >= xi (no jump).  Newton
        steps on log P - log xi use the analytic waiting density; a step
        leaving the bracket or not halving the one before last bisects it.
        A row stops once its step is below XTOL + RTOL * t."""
        delay = np.full(np.shape(xi), np.nan)
        rows = np.flatnonzero(self.survival(psi0, horizon) < xi)
        w = self._weights(psi0[rows])
        dw = w * self.exponents
        target = np.log(xi[rows])
        lo, hi = np.zeros(rows.size), horizon[rows]
        t, last, before = 0.5 * hi, hi, hi
        with np.errstate(divide="ignore", invalid="ignore"):
            while rows.size:
                e = np.exp(t[:, None] * self.exponents)
                p = np.real((w * e).sum(axis=1))
                g = np.log(p) - target
                lo, hi = np.where(g > 0, t, lo), np.where(g > 0, hi, t)
                step = g * p / np.real((dw * e).sum(axis=1))
                newton = ((t - step >= lo) & (t - step <= hi)
                          & (np.abs(step) <= 0.5 * np.abs(before)))
                step = np.where(newton, step, t - 0.5 * (lo + hi))
                t = t - step
                done = np.abs(step) <= XTOL + RTOL * t
                delay[rows[done]] = t[done]
                keep = ~done
                rows, w, dw, target = rows[keep], w[keep], dw[keep], target[keep]
                lo, hi, t = lo[keep], hi[keep], t[keep]
                last, before = step[keep], last[keep]
        return delay


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


def _initial_sampler(rho0: np.ndarray):
    """Pure states propagate as-is; mixed states are sampled by weight."""
    evals, evecs = np.linalg.eigh(rho0)
    keep = evals > 1e-12
    weights = evals[keep] / evals[keep].sum()
    states = evecs[:, keep].T.copy()
    if len(weights) == 1:
        return lambda rng: states[0]
    return lambda rng: states[rng.choice(len(weights), p=weights)]


def _lockstep(prop: NoJumpPropagator, gen: Generator, sampler, seed: int,
              indices: range, grid: np.ndarray, max_jumps: int, sums):
    """Run streams ``indices`` together to grid[-1], summing grid states
    into ``sums``.  A stream draws its initial state (mixed rho0 only),
    then per round one xi, and a channel variate when it emits."""
    state_sum, pop_sumsq = sums
    rngs = [np.random.Generator(np.random.Philox(key=[seed, i]))
            for i in indices]
    psi = _unit(np.array([sampler(rng) for rng in rngs], dtype=complex))
    horizon, live = grid[-1], np.arange(len(rngs))
    t_now, cursor = np.zeros(live.size), np.zeros(live.size, dtype=int)
    final = np.empty((live.size, 4), dtype=complex)
    history = [[] for _ in rngs]  # (time, channel, post-jump state)
    while live.size:
        xi = np.array([rngs[b].random() for b in live])
        delay = prop.sample_jump(psi[live], xi, horizon - t_now[live])
        jumped = ~np.isnan(delay)
        t_stop = np.where(jumped, t_now[live] + delay, horizon)
        # every grid point up to this stop, for every live lane at once
        stop = np.searchsorted(grid, t_stop + 1e-15, side="right")
        counts = stop - cursor[live]
        lane = np.repeat(live, counts)
        k = np.repeat(cursor[live] - np.cumsum(counts) + counts,
                      counts) + np.arange(lane.size)
        phi = _unit(prop.state(psi[lane], grid[k] - t_now[lane]))
        np.add.at(state_sum, k, phi[:, :, None] * phi.conj()[:, None, :])
        np.add.at(pop_sumsq, k, np.real(phi.conj() * phi) ** 2)
        cursor[live] = stop
        ended = live[~jumped]
        final[ended] = _unit(prop.state(psi[ended], horizon - t_now[ended]))
        live = live[jumped]
        t_now[live] = t_stop[jumped]
        phi = prop.state(psi[live], delay[jumped])
        emptied = np.einsum("kij,bj->bki", gen.ops, phi)
        weights = gen.rates * np.real(emptied.conj() * emptied).sum(axis=2)
        total = weights.sum(axis=1)
        # a dark state emits on no channel: no variate, no jump
        psi[live[total <= 0]] = _unit(phi[total <= 0])
        emit = total > 0
        lanes = live[emit]
        u = np.array([rngs[b].random() for b in lanes])
        # the draw of Generator.choice(p=weights / total)
        cdf = np.cumsum(weights[emit] / total[emit, None], axis=1)
        cdf /= cdf[:, -1:]
        pick = (cdf <= u[:, None]).sum(axis=1)
        post = _unit(emptied[emit][np.arange(lanes.size), pick])
        psi[lanes] = post
        for b, t, c, state in zip(lanes, t_now[lanes], pick, post):
            history[b].append((t, c, state))
            if len(history[b]) > max_jumps:
                raise TrajectoryBudgetError(
                    f"trajectory {indices[b]} exceeded {max_jumps} jumps",
                    partial=(indices[b], np.array([h[0] for h in history[b]])))
    return [TrajectoryRecord(
        seed=seed, index=indices[b],
        jump_times=np.array([h[0] for h in hist], dtype=float),
        channels=np.array([h[1] for h in hist], dtype=int),
        post_jump_states=np.array([h[2] for h in hist],
                                  dtype=complex).reshape(-1, 4),
        final_state=final[b]) for b, hist in enumerate(history)]


def default_worker_count() -> int:
    """min(4, CPUs) capped by TWOATOM_MAX_WORKERS; ensembles use one."""
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

    The mean converges to the master-equation state of ``gen`` at the
    Monte Carlo rate.  ``population_stderr`` is the sample standard error:
    when jumps are rare most trajectories are identical and it collapses
    toward 0, so a "within k standard errors" gate needs a floor.  Jump
    rates come from the jump counts per grid bin; ``workers`` is unread.
    Of the trajectories exceeding ``max_jumps`` in one round, the lowest
    index raises ``TrajectoryBudgetError``, partial = (index, jump times).
    """
    if n_traj < 1:
        raise ValidationError("n_traj must be at least 1")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be one-dimensional and increasing")
    rho0 = validate_density_matrix(rho0)
    prop, sampler = NoJumpPropagator(gen), _initial_sampler(rho0)
    sums = np.zeros((grid.size, 4, 4), complex), np.zeros((grid.size, 4))
    records, block = [], min(LANES, max(1, SAMPLES // grid.size))
    for start in range(0, n_traj, block):
        records += _lockstep(prop, gen, sampler, seed,
                             range(start, min(start + block, n_traj)),
                             grid, max_jumps, sums)
    mean_states = sums[0] / n_traj
    mean_pop = np.real(np.einsum("kii->ki", mean_states))
    stderr = np.sqrt(np.maximum(sums[1] / n_traj - mean_pop ** 2, 0.0) / n_traj)
    widths = np.diff(grid)
    bins = np.searchsorted(grid[1:], np.concatenate(
        [r.jump_times for r in records]), side="left")
    counts = np.bincount(bins[bins < widths.size], minlength=widths.size)
    rate, rate_err = (counts / (n_traj * widths),
                      np.sqrt(np.maximum(counts, 1.0)) / (n_traj * widths))
    if grid.size == 1:
        rate, rate_err = np.zeros(1), np.zeros(1)
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
