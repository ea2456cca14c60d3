"""State validation shared by the evolution and observable layers."""
import numpy as np

from .errors import ValidationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-8


def validate_density_matrix(rho: np.ndarray,
                            hermiticity_tol: float = HERMITICITY_TOL,
                            trace_tol: float = TRACE_TOL,
                            positivity_tol: float = POSITIVITY_TOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 4x4 state, or of
    every state in a (..., 4, 4) stack.

    Returns the input as a complex array so callers can chain it.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValidationError(f"state must be 4x4, got {rho.shape}")
    adjoint = rho.conj().swapaxes(-1, -2)
    # written as "not dev <= tol" so that NaN fails: an infinite entry
    # turns into NaN (or inf) in rho - rho^+
    herm = np.abs(rho - adjoint).max()
    if not herm <= hermiticity_tol:
        if not np.isfinite(rho).all():
            raise ValidationError("state has non-finite entries")
        raise ValidationError(f"state is not Hermitian: deviation {herm:.2e}")
    tr = rho.diagonal(0, -2, -1).sum(-1)
    dev = abs(tr - 1.0)
    if not dev.max() <= trace_tol:
        worst = np.ravel(tr)[dev.argmax()]
        raise ValidationError(f"state trace is {worst:.12g}, expected 1")
    eig_min = np.linalg.eigvalsh(0.5 * (rho + adjoint)).min()
    if eig_min < -positivity_tol:
        raise ValidationError(f"state has negative eigenvalue {eig_min:.2e}")
    return rho
