"""Fixed-size symplectic/matrix helpers for two-mode Gaussian states.

All covariance matrices are ordered (x_S, p_S, x_E, p_E) in natural units
(hbar = 1).  Matrices are plain numpy arrays: 2x2 blocks for single-mode
quantities, 4x4 for the joint state.
"""

import numpy as np

from .errors import NonPhysicalState

# ---------------------------------------------------------------------------
# Constant symplectic forms
# ---------------------------------------------------------------------------

#: Single-mode symplectic form [[0, 1], [-1, 0]].
OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Two-mode symplectic form, block-diagonal in (x_S, p_S, x_E, p_E) ordering.
OMEGA4 = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

# Column pairs (i < j) of the 2x2 minors in cauchy_binet.
_MINOR_I, _MINOR_J = np.triu_indices(4, 1)

# Determinants in [1 - DET_CLAMP, 1) are clamped to 1 before the square root;
# anything below 1 - DET_TOL is treated as unphysical.
DET_CLAMP = 1e-9
DET_TOL = 1e-6


def symmetrize(m):
    """Return (m + m^T)/2.

    Args:
        m: square array, or a stack of them in the last two axes.

    Returns:
        Symmetric part of m.
    """
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def det2(m):
    """Closed-form determinant of a 2x2 matrix, or of a (..., 2, 2) stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def inv2(m):
    """Closed-form inverse (adjugate over determinant) of a 2x2 matrix, or of
    a (..., 2, 2) stack."""
    adj = np.stack([m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]], -1)
    return adj.reshape(m.shape) / det2(m)[..., None, None]


def cauchy_binet(a, b):
    """Determinant of the Gram matrix [[a.a, a.b], [a.b, b.b]] of two real
    4-rows, or of two (..., 4) row stacks, as the sum of squared 2x2 minors
    (Cauchy-Binet).

    The minor form is free of the cancellation that a.a b.b - (a.b)^2
    suffers when the rows are exponentially large but nearly parallel.
    """
    minors = a[..., _MINOR_I] * b[..., _MINOR_J] - a[..., _MINOR_J] * b[..., _MINOR_I]
    return np.sum(minors * minors, axis=-1)


def purity_from_block(sigma_s):
    """Purity of a single-mode Gaussian state from its covariance block.

    Args:
        sigma_s: symmetric 2x2 covariance block.

    Returns:
        1/sqrt(det sigma_s), clamped so that round-off cannot push the
        result above 1.

    Raises:
        NonPhysicalState: if det sigma_s < 1 - 1e-6.
    """
    d = det2(sigma_s)
    if d < 1.0 - DET_TOL:
        raise NonPhysicalState(
            "covariance block determinant %.6g violates the uncertainty bound" % d
        )
    if d < 1.0:
        d = 1.0
    return 1.0 / np.sqrt(d)


def frobenius_norm(m):
    """Frobenius norm sqrt(sum m_ij^2) of a real matrix."""
    return float(np.sqrt(np.sum(np.asarray(m) ** 2)))


def eig_sym2(m):
    """Closed-form eigenvalues of a symmetric 2x2 matrix.

    Args:
        m: symmetric 2x2 array, or a (..., 2, 2) stack.

    Returns:
        (lambda_minus, lambda_plus) with lambda_minus <= lambda_plus.
    """
    a, d = m[..., 0, 0], m[..., 1, 1]
    half_tr = 0.5 * (a + d)
    disc = np.sqrt(0.25 * (a - d) ** 2 + m[..., 0, 1] * m[..., 1, 0])
    return half_tr - disc, half_tr + disc


def check_gaussian_valid(sigma):
    """Physicality diagnostics for a two-mode covariance matrix.

    Args:
        sigma: symmetric 4x4 covariance matrix.

    Returns:
        dict with keys:
            det_sigma: determinant of the full matrix,
            nu_s, nu_e: per-mode symplectic eigenvalues sqrt(det sigma_I),
            passed: True if both nu_I >= 1 - 1e-9.
    """
    sigma = np.asarray(sigma)
    det_sigma = float(np.linalg.det(sigma))
    det_s = det2(sigma[0:2, 0:2])
    det_e = det2(sigma[2:4, 2:4])
    nu_s = float(np.sqrt(max(det_s, 0.0))) if det_s > 0 else float("nan")
    nu_e = float(np.sqrt(max(det_e, 0.0))) if det_e > 0 else float("nan")
    passed = bool(nu_s >= 1.0 - DET_CLAMP and nu_e >= 1.0 - DET_CLAMP)
    return {
        "det_sigma": det_sigma,
        "nu_s": nu_s,
        "nu_e": nu_e,
        "passed": passed,
    }
