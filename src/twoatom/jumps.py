"""Quantum-jump (Monte Carlo wave-function) unraveling of any generator.

Between jumps the conditional state evolves under the generator's
no-jump Hamiltonian h - (i/2) sum_k rate_k op_k^+ op_k; jump times are
sampled exactly by inverting the no-jump probability built from its
eigendecomposition, and each jump applies one of the generator's
channels.  An ensemble runs in one process, its trajectories in lockstep
(one vectorised solve of P(t) = xi per round).  Stream i of seed s draws
Philox(key=[s, i])'s numbers as arrays; all array operations are
row-local, so a record depends only on (s, i); records are built on read.
"""
import os
from dataclasses import dataclass

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
# Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox runs it
_PHILOX_M = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_PHILOX_W = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
_LO32, _U32, _U11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)


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
    """Ensemble summary and flat records, stream i's jumps the next
    ``jump_counts[i]`` entries; run_trajectories explains the errors."""
    times: np.ndarray
    mean_states: np.ndarray
    population_stderr: np.ndarray
    emission_rate: np.ndarray
    emission_rate_stderr: np.ndarray
    n_trajectories: int
    seed: int
    jump_counts: np.ndarray
    jump_times: np.ndarray
    channels: np.ndarray
    post_jump_states: np.ndarray
    final_states: np.ndarray

    @property
    def records(self) -> list:
        """One TrajectoryRecord per stream, built on each read."""
        ends = np.cumsum(self.jump_counts).tolist()
        return [TrajectoryRecord(
            self.seed, i, self.jump_times[a:b], self.channels[a:b],
            self.post_jump_states[a:b], self.final_states[i])
            for i, (a, b) in enumerate(zip([0] + ends[:-1], ends))]

    def render_records(self) -> dict:
        """The records.jsonl and records.txt renderings, by file name: JSON
        times as round(t, 9), text times as %.9f."""
        times = self.jump_times.tolist()
        rounded = [repr(round(t, 9)) for t in times]
        fixed = ("%.9f " * len(times) % tuple(times)).split()
        picks = list(map(str, self.channels.tolist()))
        jsonl, text, b = [], [], 0
        for index, n in enumerate(self.jump_counts.tolist()):
            a, b = b, b + n
            jsonl.append(f'{{"seed":{self.seed},"index":{index},"n_jumps":{n},'
                         f'"jump_times":[{",".join(rounded[a:b])}],'
                         f'"channels":[{",".join(picks[a:b])}]}}')
            text.append(f"{self.seed}:{index} {n} "
                        f"{','.join(fixed[a:b]) or '-'}")
        return {"records.jsonl": "\n".join(jsonl) + "\n",
                "records.txt": "\n".join(text) + "\n"}


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
        # the model's time unit: absolute time tolerances scale with it
        total = gen.rates.sum()
        self.unit = 2.0 / total if total > 0 else 1.0
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
        A row stops once its step is below XTOL * unit + RTOL * t."""
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
                done = np.abs(step) <= XTOL * self.unit + RTOL * t
                delay[rows[done]] = t[done]
                keep = ~done
                rows, w, dw, target = rows[keep], w[keep], dw[keep], target[keep]
                lo, hi, t = lo[keep], hi[keep], t[keep]
                last, before = step[keep], last[keep]
        return delay


def _mulhilo(m: np.uint64, x: np.ndarray):
    """High and low words of the 128-bit products m * x from 32-bit halves
    (np.uint64 operands throughout, so nothing promotes to float)."""
    m_lo, m_hi = m & _LO32, m >> _U32
    x_lo, x_hi = x & _LO32, x >> _U32
    mid = m_hi * x_lo
    cross = (m_lo * x_lo >> _U32) + (mid & _LO32) + m_lo * x_hi
    return m_hi * x_hi + (mid >> _U32) + (cross >> _U32), m * x


def _philox_random(seed: int, streams: np.ndarray, start: int,
                   count: int) -> np.ndarray:
    """random() draws start .. start + count - 1 (multiples of 4) of
    Philox(key=[seed, i]), a row per i in ``streams``: draw k is word k % 4
    of Philox4x64-10 at key (seed, i) and counter (k // 4 + 1, 0, 0, 0)."""
    key0, key1 = np.full(1, seed, np.uint64), streams.astype(np.uint64)[:, None]
    c0 = np.arange(start // 4 + 1, (start + count) // 4 + 1, dtype=np.uint64)
    c0 = np.broadcast_to(c0, (streams.size, count // 4))
    c1 = c2 = c3 = np.zeros_like(c0)
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
        key0, key1 = key0 + _PHILOX_W[0], key1 + _PHILOX_W[1]
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(streams.size, count)
    return (words >> _U11) * 2.0 ** -53


def _choice(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The index Generator.choice(p=p) draws with variate u, row by row."""
    cdf = p.cumsum(axis=-1)
    return (cdf / cdf[..., -1:] <= u[..., None]).sum(axis=-1)


def _lockstep(prop: NoJumpPropagator, gen: Generator, rho0, seed: int,
              streams: np.ndarray, grid: np.ndarray, max_jumps: int, sums):
    """Run ``streams`` together to grid[-1], adding their grid states to
    ``sums``; return their jump counts, flat jumps and last grid states.  A
    stream draws its initial state (mixed rho0 only), then per round one
    xi, and a channel variate when it emits."""
    n, horizon = streams.size, grid[-1]
    # draws[b, used[b]] is stream b's next variate; when one runs short,
    # all live rows double in one call, costing about what one row would
    draws = _philox_random(seed, streams, 0, 16)
    evals, evecs = np.linalg.eigh(rho0)  # a mixed rho0 spends draw 0 here
    keep = evals > 1e-12
    psi = _unit(evecs[:, keep].T[_choice(evals[keep] / evals[keep].sum(),
                                         draws[:, 0])].astype(complex))
    used = np.full(n, int(keep.sum() > 1))
    live, t_now, cursor = np.arange(n), np.zeros(n), np.zeros(n, dtype=int)
    visited = np.empty((n, grid.size, 4), dtype=complex)
    jumps = np.zeros(n, dtype=int)
    history = [[], [], [], []]  # lane, time, channel, state of each jump
    while live.size:
        if used[live].max() + 2 > (width := draws.shape[1]):
            draws = np.concatenate([draws, np.empty_like(draws)], axis=1)
            draws[live, width:] = _philox_random(seed, streams[live], width,
                                                 width)
        xi = draws[live, used[live]]
        used[live] += 1
        delay = prop.sample_jump(psi[live], xi, horizon - t_now[live])
        jumped = ~np.isnan(delay)
        t_stop = np.where(jumped, t_now[live] + delay, horizon)
        # every grid point up to this stop, for every live lane at once;
        # each (lane, grid point) is visited exactly once
        stop = np.searchsorted(grid, t_stop + 1e-15 * prop.unit,
                               side="right")
        counts = stop - cursor[live]
        lane = np.repeat(live, counts)
        k = np.repeat(cursor[live] - np.cumsum(counts) + counts,
                      counts) + np.arange(lane.size)
        visited[lane, k] = _unit(prop.state(psi[lane], grid[k] - t_now[lane]))
        cursor[live] = stop
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
        pick = _choice(weights[emit] / total[emit, None],
                       draws[lanes, used[lanes]])
        used[lanes] += 1
        psi[lanes] = _unit(emptied[emit][np.arange(lanes.size), pick])
        for past, now in zip(history, (lanes, t_now[lanes], pick, psi[lanes])):
            past.append(now)
        jumps[lanes] += 1
        if (jumps[lanes] > max_jumps).any():
            b = lanes[jumps[lanes] > max_jumps][0]
            lane, times = map(np.concatenate, history[:2])
            raise TrajectoryBudgetError(
                f"trajectory {streams[b]} exceeded {max_jumps} jumps",
                partial=(int(streams[b]), times[lane == b]))
    sums[0] += np.einsum("lki,lkj->kij", visited, visited.conj())
    sums[1] += (np.real(visited.conj() * visited) ** 2).sum(axis=0)
    lane, *flat = map(np.concatenate, history)
    order = np.argsort(lane, kind="stable")
    return (np.bincount(lane, minlength=n), *(h[order] for h in flat),
            visited[:, -1].copy())


def default_worker_count() -> int:
    """min(4, CPUs) capped by TWOATOM_MAX_WORKERS; ensembles use one."""
    n = min(4, os.cpu_count() or 1)
    cap = os.environ.get("TWOATOM_MAX_WORKERS")
    if cap:
        n = max(1, min(n, int(cap)))
    return n


def run_trajectories(gen: Generator, rho0: np.ndarray, n_traj: int,
                     seed: int, grid: np.ndarray,
                     max_jumps: int = MAX_JUMPS_DEFAULT) -> JumpEnsemble:
    """Unravel the generator into an ensemble of jump trajectories and
    average it on the grid.

    The mean converges to the master-equation state of ``gen`` at the
    Monte Carlo rate.  ``population_stderr`` is the sample standard error:
    when jumps are rare most trajectories are identical and it collapses
    toward 0, so a "within k standard errors" gate needs a floor.  Jump
    rates come from the jump counts per grid bin.
    Of the trajectories exceeding ``max_jumps`` in one round, the lowest
    index raises ``TrajectoryBudgetError``, partial = (index, jump times).
    """
    if n_traj < 1:
        raise ValidationError("n_traj must be at least 1")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be one-dimensional and increasing")
    rho0 = validate_density_matrix(rho0)
    prop = NoJumpPropagator(gen)
    sums = [np.zeros((grid.size, 4, 4), complex), np.zeros((grid.size, 4))]
    block = min(LANES, max(1, SAMPLES // grid.size))
    blocks = [_lockstep(prop, gen, rho0, seed, np.arange(n_traj)[i:i + block],
                        grid, max_jumps, sums) for i in range(0, n_traj, block)]
    counts, times, channels, post, final = map(np.concatenate, zip(*blocks))
    mean_states = sums[0] / n_traj
    mean_pop = np.real(np.einsum("kii->ki", mean_states))
    stderr = np.sqrt(np.maximum(sums[1] / n_traj - mean_pop ** 2, 0.0) / n_traj)
    widths = np.diff(grid)
    bins = np.searchsorted(grid[1:], times, side="left")
    hits = np.bincount(bins[bins < widths.size], minlength=widths.size)
    rate, rate_err = (hits / (n_traj * widths),
                      np.sqrt(np.maximum(hits, 1.0)) / (n_traj * widths))
    if grid.size == 1:
        rate, rate_err = np.zeros(1), np.zeros(1)
    return JumpEnsemble(times=grid, mean_states=mean_states,
                        population_stderr=stderr, emission_rate=rate,
                        emission_rate_stderr=rate_err, n_trajectories=n_traj,
                        seed=seed, jump_counts=counts, jump_times=times,
                        channels=channels, post_jump_states=post,
                        final_states=final)
