"""Correctness gate: every op's CSV (and sidecars) is checked here.

``presets`` is compared with reference tables pinned at the seed commit.
``sweep``, ``transient`` and ``jumps`` are compared with oracles that
share only the public generator builders and geometry couplings with
the engine: the steady state is an LU solve of the generator with one
row replaced by the trace, propagation is ``scipy.linalg.expm`` of the
generator, and the observables are recomputed here from their
definitions.  ``check_op`` returns a list of failure messages; an empty
list passes.

Tolerances, stated once:
  * presets: |got - ref| <= PRESET_ATOL + PRESET_RTOL |ref|, NaN == NaN;
  * steady-state rows, STEADY_TOL absolute: every row against the closed
    forms of analytic.py (driven: identical atoms, in-phase drive;
    squeezed: identical atoms at finite separation) and the columns that
    follow from the populations; every SWEEP_STRIDE-th row, every column
    against the independent solve;
  * transient rows: TRANSIENT_TOL absolute on states and observables
    (DOP853 runs at rtol 1e-9), G2_RTOL relative on g2;
  * jumps: every criterion-8 term |mc - me| / se of the ensemble
    populations against the master equation stays below Z_MAX.  The
    criterion-8 sum of squares is not used as the gate: its terms are
    correlated in time (a trajectory trapped in the slowly decaying
    antisymmetric state stays there for the rest of the grid), so one
    3-sigma fluctuation fills dozens of terms, and at 256 trajectories
    it failed about one correct op in 400.  Over 200 ensembles of this
    workload the largest term was 3.2; 6.5 keeps false failures far
    below one in an evaluation of thousands of ops.  The price is
    power: only population errors above about 6.5 standard errors
    (0.1-0.2 at 256 trajectories) are caught; records and worker-count
    invariance are checked exactly.
"""
import functools
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from twoatom import analytic, dynamics, geometry

PRESET_ATOL = 1e-9
PRESET_RTOL = 1e-7
STEADY_TOL = 1e-8
TRANSIENT_TOL = 1e-6
G2_RTOL = 1e-5
INVARIANT_TOL = 1e-8
Z_MAX = 6.5
SWEEP_STRIDE = 64

REFERENCE = Path(__file__).resolve().parent / "reference" / "presets.npz"

# product basis |gg>, |ge>, |eg>, |ee>; atom 1 is the slow tensor index
_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
S1M = np.kron(_LOWER, np.eye(2))
S2M = np.kron(np.eye(2), _LOWER)
_E = np.eye(4, dtype=complex)
KET_S = (_E[2] + _E[1]) / math.sqrt(2)
KET_A = (_E[2] - _E[1]) / math.sqrt(2)
KETS = {"ground": _E[0], "excited_one": _E[2], "excited_two": _E[1],
        "excited_both": _E[3], "symmetric": KET_S, "antisymmetric": KET_A}
_TRACE_ROW = np.eye(4).reshape(-1, order="F")


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    columns = body[0].split(",")
    data = np.loadtxt(io.StringIO("\n".join(body[1:])), delimiter=",",
                      ndmin=2)
    return columns, data


def strip_wall_time(text: str) -> str:
    """The CSV minus its ``# wall_time_s`` line, the one non-reproducible
    line of an emitted table."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# wall_time_s"))


# ----------------------------------------------------------------------
# physics from definitions
# ----------------------------------------------------------------------

def _objects(v: dict):
    pair = geometry.AtomPairConfig(
        separation=v["separation"], gamma1=v["gamma1"], gamma2=v["gamma2"],
        delta=v["delta"], dipole_angle=v["dipole_angle"])
    drive = geometry.DriveField(
        rabi=v["rabi"], detuning=v["detuning"],
        propagation_angle=v["propagation_angle"], wave_type=v["wave_type"],
        phase=v["drive_phase"])
    return pair, drive


def _generator(v: dict) -> np.ndarray:
    pair, drive = _objects(v)
    if v.get("generator", "vacuum_drive") == "squeezed":
        res = geometry.SqueezedReservoir(
            n_photons=v["n_photons"], m_magnitude=v["m_magnitude"],
            squeeze_phase=v["squeeze_phase"], matching=v["matching"],
            solid_angle=v["solid_angle"],
            carrier_offset=v["carrier_offset"])
        return dynamics.build_squeezed(pair, res).matrix
    return dynamics.build_vacuum_drive(pair, drive).matrix


def _vec(rho):
    return rho.reshape(-1, order="F")


def _unvec(v):
    return v.reshape(4, 4, order="F")


def steady(lmat: np.ndarray) -> np.ndarray:
    """Unit-trace solution of L rho = 0 by LU with the trace as one row."""
    system = lmat.copy()
    system[0] = _TRACE_ROW
    rhs = np.zeros(16, dtype=complex)
    rhs[0] = 1.0
    rho = _unvec(np.linalg.solve(system, rhs))
    return 0.5 * (rho + rho.conj().T)


def propagate(lmat: np.ndarray, rho0: np.ndarray, grid: np.ndarray):
    """States on a uniform grid starting at 0 by powers of expm(L dt)."""
    step = expm(lmat * (grid[1] - grid[0]))
    v = _vec(rho0.astype(complex))
    out = np.empty((grid.size, 4, 4), dtype=complex)
    for k in range(grid.size):
        out[k] = _unvec(v)
        v = step @ v
    return out


def _ex(op, rho):
    return np.trace(rho @ op)


def state_columns(rho: np.ndarray, pair) -> dict:
    g12 = geometry.collective_damping(pair)
    low = (S1M, S2M)
    gam = ((pair.gamma1, g12), (g12, pair.gamma2))
    intensity = sum(gam[i][j] * _ex(low[i].conj().T @ low[j], rho).real
                    for i in range(2) for j in range(2))
    n1 = _ex(S1M.conj().T @ S1M, rho).real
    n2 = _ex(S2M.conj().T @ S2M, rho).real
    p_a = (KET_A.conj() @ rho @ KET_A).real
    cross = 2 * _ex(S1M.conj().T @ S2M, rho).real
    return {
        "rho_gg": rho[0, 0].real, "rho_ss": (KET_S.conj() @ rho @ KET_S).real,
        "rho_aa": p_a, "rho_ee": rho[3, 3].real,
        "intensity": max(intensity, 0.0),
        "visibility": cross / (n1 + n2) if n1 + n2 > 1e-14 else math.nan,
        "purity": np.trace(rho @ rho).real,
        "spin_squared": 2.0 - 2.0 * p_a,
    }


def _detector(pair, theta):
    phase = math.pi * pair.separation * math.cos(theta)
    return (math.sqrt(pair.gamma1) * np.exp(-1j * phase) * S1M
            + math.sqrt(pair.gamma2) * np.exp(1j * phase) * S2M)


def _variance(rho, alpha):
    sm = S1M + S2M
    phase = np.exp(1j * (alpha + math.pi / 2))
    linear = 2.0 * (_ex(sm, rho) * phase).real
    return 0.25 * (_ex(sm.conj().T @ sm, rho).real
                   + (_ex(sm @ sm, rho) * phase ** 2).real - 0.5 * linear ** 2)


# ----------------------------------------------------------------------
# per-workload checks
# ----------------------------------------------------------------------

def _compare(label, got, want, atol, rtol=0.0) -> list[str]:
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    both_nan = np.isnan(got) & np.isnan(want)
    err = np.where(both_nan, 0.0, np.abs(got - want))
    limit = atol + rtol * np.abs(np.nan_to_num(want))
    bad = ~(err <= limit)
    if bad.any():
        k = np.flatnonzero(bad.ravel())[0]
        return [f"{label}: {int(bad.sum())} values off, first "
                f"{got.ravel()[k]!r} vs {want.ravel()[k]!r}"]
    return []


@functools.cache
def _preset_reference() -> dict:
    with np.load(REFERENCE) as ref:
        return {key: ref[key] for key in ref.files}


def _check_preset(v, columns, data, _sidecars) -> list[str]:
    ref = _preset_reference()
    fig = v["figure"]
    want_cols = [str(c) for c in ref[fig + ".columns"]]
    if columns != want_cols:
        return [f"{fig}: columns {columns} != {want_cols}"]
    return _compare(fig, data, ref[fig], PRESET_ATOL, PRESET_RTOL)


def _grid(v) -> np.ndarray:
    return np.linspace(v["grid_start"], v["grid_stop"], v["grid_points"])


def _state_invariants(label, cols: dict, n: int) -> list[str]:
    fails = []
    pops = np.stack([cols[k] for k in ("rho_gg", "rho_ss", "rho_aa",
                                       "rho_ee")])
    if pops.shape[1] != n:
        fails.append(f"{label}: {pops.shape[1]} rows, expected {n}")
    if (pops < -INVARIANT_TOL).any() or (pops > 1 + INVARIANT_TOL).any():
        fails.append(f"{label}: population outside [0, 1]")
    if np.abs(pops.sum(axis=0) - 1.0).max() > INVARIANT_TOL:
        fails.append(f"{label}: populations do not sum to 1")
    purity = cols["purity"]
    if (purity < 0.25 - INVARIANT_TOL).any() or (purity > 1 + INVARIANT_TOL).any():
        fails.append(f"{label}: purity outside [1/4, 1]")
    if (cols["intensity"] < 0).any():
        fails.append(f"{label}: negative intensity")
    return fails


def _closed_form_populations(v, pair, drive) -> np.ndarray:
    """(g, s, a, e) populations of identical atoms from analytic.py."""
    g12 = geometry.collective_damping(pair)
    if v["generator"] == "squeezed":
        n_eff, m_eff = geometry.effective_squeezing(geometry.SqueezedReservoir(
            n_photons=v["n_photons"], m_magnitude=v["m_magnitude"],
            squeeze_phase=v["squeeze_phase"], matching=v["matching"],
            solid_angle=v["solid_angle"], carrier_offset=v["carrier_offset"]))
        ref = analytic.squeezed_steady_finite(n_eff, m_eff, g12 / pair.gamma1)
        return np.array([ref["rgg"], ref["rss"], ref["raa"], ref["ree"]])
    ref = analytic.driven_steady_state(drive.rabi, drive.detuning, pair.gamma1,
                                       g12, geometry.dipole_dipole_shift(pair))
    return np.real(np.diag(ref))


def _check_sweep(v, columns, data, _sidecars) -> list[str]:
    key = v["sweep_key"]
    cols = dict(zip(columns, data.T))
    grid = _grid(v)
    fails = _compare(f"sweep {key} grid", cols.get(key, []), grid, 1e-12, 1e-11)
    fails += _state_invariants("sweep", cols, grid.size)
    if fails:
        return fails
    # every row: closed-form populations, and the columns that follow
    # from populations for identical atoms
    points = [dict(v, **{key: float(x)}) for x in grid]
    objects = [_objects(point) for point in points]
    pops = np.array([_closed_form_populations(point, *obj)
                     for point, obj in zip(points, objects)])
    g12 = np.array([geometry.collective_damping(pair) for pair, _ in objects])
    _, ss, aa, ee = pops.T
    fails += _compare("closed-form populations",
                      [cols[c] for c in ("rho_gg", "rho_ss", "rho_aa", "rho_ee")],
                      pops.T, STEADY_TOL)
    den = ss + aa + 2 * ee
    with np.errstate(invalid="ignore", divide="ignore"):
        vis = np.where(den > 1e-14, (ss - aa) / den, np.nan)
    fails += _compare("intensity", cols["intensity"],
                      (1 + g12) * (ss + ee) + (1 - g12) * (aa + ee), STEADY_TOL)
    fails += _compare("visibility", cols["visibility"], vis, STEADY_TOL)
    fails += _compare("spin_squared", cols["spin_squared"], 2 - 2 * aa,
                      STEADY_TOL)
    # every SWEEP_STRIDE-th row: every column from an independent solve
    for k in sorted(set(range(0, grid.size, SWEEP_STRIDE)) | {grid.size - 1}):
        if fails:
            break
        want = state_columns(steady(_generator(points[k])), objects[k][0])
        fails += _compare(f"sweep row {k}", [cols[c][k] for c in want],
                          list(want.values()), STEADY_TOL)
    return fails


def _check_transient(v, columns, data, _sidecars) -> list[str]:
    grid = _grid(v)
    cols = dict(zip(columns, data.T))
    time_col = "tau" if v["scenario"] == "g2" else "t"
    fails = _compare("time grid", cols.get(time_col, []), grid, 1e-12, 1e-11)
    if fails:
        return fails
    pair, _ = _objects(v)
    lmat = _generator(v)
    if v["scenario"] == "g2":
        rho = steady(lmat)
        d1 = _detector(pair, v["theta1"])
        d2 = _detector(pair, v["theta2"])
        meter = d2.conj().T @ d2
        collapsed = d1 @ rho @ d1.conj().T
        states = propagate(lmat, collapsed / np.trace(collapsed), grid)
        want = np.array([_ex(meter, s).real for s in states]) / _ex(meter, rho).real
        if (cols["g2"] < -INVARIANT_TOL).any():
            fails.append("negative g2")
        return fails + _compare("g2", cols["g2"], want, 0.0, G2_RTOL)
    rho0 = np.outer(KETS[v["initial"]], KETS[v["initial"]].conj())
    states = propagate(lmat, rho0, grid)
    if v["scenario"] == "variance":
        want = [_variance(s, v["alpha"]) for s in states]
        return _compare("variance", cols["variance"], want, TRANSIENT_TOL)
    fails += _state_invariants("evolve", cols, grid.size)
    rows = [state_columns(s, pair) for s in states]
    for name in ("rho_gg", "rho_ss", "rho_aa", "rho_ee", "intensity",
                 "purity", "spin_squared"):
        fails += _compare(name, cols[name], [r[name] for r in rows],
                          TRANSIENT_TOL)
    return fails


def _check_jump(v, columns, data, sidecars) -> list[str]:
    grid = _grid(v)
    cols = dict(zip(columns, data.T))
    fails = _compare("time grid", cols.get("t", []), grid, 1e-12, 1e-11)
    if fails:
        return fails
    labels = ("gg", "ge", "eg", "ee")
    mc = np.stack([cols[f"mc_{s}"] for s in labels], axis=1)
    se = np.stack([cols[f"stderr_{s}"] for s in labels], axis=1)
    me = np.stack([cols[f"me_{s}"] for s in labels], axis=1)
    rho0 = np.outer(KETS[v["initial"]], KETS[v["initial"]].conj())
    exact = np.real(np.einsum("kii->ki", propagate(_generator(v), rho0, grid)))
    fails += _compare("me populations", me, exact, TRANSIENT_TOL)
    if np.abs(mc.sum(axis=1) - 1.0).max() > INVARIANT_TOL:
        fails.append("ensemble populations do not sum to 1")
    if (se < 0).any() or (se > 0.5 / math.sqrt(v["n_traj"]) + 1e-12).any():
        fails.append("standard errors outside [0, 1/(2 sqrt(n_traj))]")
    # criterion-8 terms (mc - me) / se, with se no smaller than the bound
    # sqrt(p(1-p)/n) of a mean of n values in [0, 1] (floored at the 1/n
    # resolution): at a few hundred trajectories the sample error is
    # often 0.  The gate is the largest term, not the sum of squares.
    n = v["n_traj"]
    model = np.sqrt(np.maximum(exact * (1.0 - exact), 1.0 / n) / n)
    z = np.abs(mc - exact) / np.maximum(se, model)
    if not z.max() < Z_MAX:
        k, j = np.unravel_index(z.argmax(), z.shape)
        fails.append(f"population {labels[j]} at t = {grid[k]:.3g} is "
                     f"{z.max():.1f} standard errors from the master equation "
                     f"(chi2 {float((z ** 2).sum()):.1f} over {z.size} terms)")
    fails += _check_records(v, sidecars)
    return fails


def _check_records(v, sidecars) -> list[str]:
    records = [json.loads(line)
               for line in sidecars["records.jsonl"].splitlines()]
    text = sidecars["records.txt"].splitlines()
    fails = []
    if [r["index"] for r in records] != list(range(v["n_traj"])):
        fails.append("trajectory records are not indices 0..n_traj-1")
    if len(text) != len(records):
        fails.append("records.txt and records.jsonl disagree in length")
    limit = 2 if v["rabi"] == 0 and v["initial"] == "excited_both" else None
    for rec, line in zip(records, text):
        times = rec["jump_times"]
        if (rec["seed"] != v["seed"] or rec["n_jumps"] != len(times)
                or len(rec["channels"]) != len(times)
                or line.split()[:2] != [f"{v['seed']}:{rec['index']}",
                                        str(len(times))]):
            fails.append(f"record {rec['index']} is inconsistent")
        elif times != sorted(times) or not all(
                0 <= t <= v["grid_stop"] for t in times):
            fails.append(f"record {rec['index']} has jump times out of "
                         f"order or range")
        elif limit is not None and len(times) > limit:
            fails.append(f"record {rec['index']}: {len(times)} jumps from |ee>")
        if fails:
            break
    return fails


_CHECKS = {"figure": _check_preset, "sweep": _check_sweep,
           "evolve": _check_transient, "g2": _check_transient,
           "variance": _check_transient, "jump": _check_jump}


def check_op(values: dict, csv_text: str, sidecars: dict) -> list[str]:
    """Failure messages for one op's output; empty when it is correct."""
    try:
        columns, data = parse_csv(csv_text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    return _CHECKS[values["scenario"]](values, columns, data, sidecars)
