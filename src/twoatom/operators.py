"""Two-atom operator algebra on the 4-dimensional product space.

Basis ordering follows the tensor (Kronecker) convention with atom 1 as
the slow index: |g1 g2>, |g1 e2>, |e1 g2>, |e1 e2>.  Superoperators act on
column-stacked density matrices, vec(A rho B) = kron(B.T, A) vec(rho).
"""
import numpy as np

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

_sigma_minus = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|
_sigma_z = np.diag([-0.5, 0.5]).astype(complex)

# single-atom raising/lowering/inversion, atom 1 is the first tensor factor
S1M = np.kron(_sigma_minus, I2)
S2M = np.kron(I2, _sigma_minus)
S1P = S1M.conj().T
S2P = S2M.conj().T
S1Z = np.kron(_sigma_z, I2)
S2Z = np.kron(I2, _sigma_z)

# collective operators
SM = S1M + S2M
SP = S1P + S2P
SZ = S1Z + S2Z

# product-basis kets (atom 1 is the slow tensor index)
KET_GG = np.array([1, 0, 0, 0], dtype=complex)
KET_GE = np.array([0, 1, 0, 0], dtype=complex)
KET_EG = np.array([0, 0, 1, 0], dtype=complex)
KET_EE = np.array([0, 0, 0, 1], dtype=complex)

# maximally entangled one-excitation states
KET_S = (KET_EG + KET_GE) / np.sqrt(2)
KET_A = (KET_EG - KET_GE) / np.sqrt(2)

# columns are |g>, |s>, |a>, |e> in the product basis
DICKE_BASIS = np.column_stack([KET_GG, KET_S, KET_A, KET_EE])


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a 4x4 matrix into a length-16 vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=complex).reshape(4, 4, order="F")


def ket_density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a (not necessarily normalized) 4-vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def expect(op: np.ndarray, rho: np.ndarray) -> complex | np.ndarray:
    """Tr(rho op) of a state, or of each state in a (..., 4, 4) stack."""
    value = np.einsum("...ij,ji->...", rho, op)
    return complex(value) if value.ndim == 0 else value
