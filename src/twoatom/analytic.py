"""Closed-form stationary states of two identical atoms, the reference
the benchmark's checks compare the engine with.

Each is a direct transcription of a leading-order analytic result.
Coherence phases follow the engine's rotating-frame convention (drive
coupling -(1/2)(Omega S+ + h.c.)).  The other closed forms, which only
the tests read, live in the test suite's ``oracles`` module.
"""
import math

import numpy as np


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
