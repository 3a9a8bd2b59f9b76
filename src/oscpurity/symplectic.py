"""Fixed-size symplectic/matrix helpers for two-mode Gaussian states.

All covariance matrices are ordered (x_S, p_S, x_E, p_E) in natural units
(hbar = 1).  Matrices are plain numpy arrays: 2x2 blocks for single-mode
quantities, 4x4 for the joint state.
"""

import numpy as np

# ---------------------------------------------------------------------------
# Constant symplectic forms
# ---------------------------------------------------------------------------

#: Single-mode symplectic form [[0, 1], [-1, 0]].
OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Column pairs (i < j) of the 2x2 minors in cauchy_binet.
_MINOR_I, _MINOR_J = np.triu_indices(4, 1)


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


def cauchy_binet(a, b):
    """Determinant of the Gram matrix [[a.a, a.b], [a.b, b.b]] of two real
    4-rows, or of two (..., 4) row stacks, as the sum of squared 2x2 minors
    (Cauchy-Binet).

    The minor form is free of the cancellation that a.a b.b - (a.b)^2
    suffers when the rows are exponentially large but nearly parallel.
    """
    minors = a[..., _MINOR_I] * b[..., _MINOR_J] - a[..., _MINOR_J] * b[..., _MINOR_I]
    return np.sum(minors * minors, axis=-1)


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
