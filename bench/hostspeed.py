"""How fast the host ran during a run, from fixed reference work.

The benchmark runs on a few virtual CPUs of a shared host whose speed
drifts by up to 1.5x in phases of seconds to tens of seconds (measured
in NOTES.md), and every op of a run slows with it.  After each op the
workload process runs a fixed reference kernel for a fifth of the op's
time, so the reference samples the host in proportion to the time the
ops spent on it.  The run's slowdown is the reference's mean time per
unit over ``REF_UNIT_S``; time metrics are divided by it.

The kernel lives here, not in the engine, and never changes with it: an
engine change moves the ops' times but not the reference's, so it shows
in full in the normalised metrics.  It does the kind of work the
engine's hot path does (4x4 Kronecker products, 16x16 SVD and solve,
interpreter loops) so both slow alike when a neighbour contends for the
core.
"""
import time

import numpy as np

# nominal seconds per reference unit: a normalised time is the time the
# op would take on a host where one unit takes this long
REF_UNIT_S = 5e-3
REF_SHARE = 0.2  # reference time after each op, as a share of the op's time
SETUP_UNITS = 20  # reference units run right after each set-up

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_EYE4, _EYE16 = np.eye(4), np.eye(16)


def _unit() -> float:
    total = 0.0
    for k in range(40):
        g = np.kron(_A, _EYE4) - np.kron(_EYE4, _A.conj()) + (k + 1.0) * _EYE16
        total += float(np.linalg.svd(g, compute_uv=False)[-1])
        total += float(np.linalg.solve(g, _EYE16[0]).real.sum())
        total += sum(0.5 * x for x in range(80))
    return total


_unit()  # the first call pays one-off costs; keep them out of every sample


class HostSpeed:
    """Accumulates reference units and their time over one run."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def sample(self, op_seconds: float) -> float:
        """Run reference work worth ``REF_SHARE`` of an op's time; returns
        the slowdown this sample alone measured."""
        return self.run(max(1, round(REF_SHARE * op_seconds / REF_UNIT_S)))

    def run(self, units: int) -> float:
        start = time.perf_counter()
        for _ in range(units):
            _unit()
        seconds = time.perf_counter() - start
        self.seconds += seconds
        self.units += units
        return seconds / units / REF_UNIT_S

    @property
    def slowdown(self) -> float:
        return self.seconds / self.units / REF_UNIT_S
