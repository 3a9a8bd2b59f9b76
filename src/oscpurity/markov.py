"""Reduced-system transport with the noise matrix B, Gaussian-map X/Y
decomposition, complete-positivity diagnosis, Gaussian fidelity and Bures
distance, Bures velocity, and the Markovian surrogate maps.

The noise matrix is always computed from the exact full-system trajectory
(the reduced equation is exact only with the true cross-correlators); the
surrogates replace B pointwise along that trajectory.

The reduced map over [t_a, t_b] needs no integration of its own: X is the
free rotation at omega_s, and Y = Int X(t_b, s) B(s) X(t_b, s)^T ds is a
known-kernel integral of B, taken by Gauss-Legendre quadrature on the
driving trajectory's step grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalState, PureStateSingularity
from .model import coupling_xi, normal_mode_sq
from .symplectic import OMEGA2, det2, eig_sym2, inv2, symmetrize
from .transport import CovarianceState

#: Guard for the 1/sqrt(1 - gamma^4) singularity of the Bures velocity.
EPS_PURE = 1e-9

#: Sentinel value: no positive-semidefinite surrogate cancels the velocity.
INFEASIBLE = "infeasible"

SURROGATES = ("drop-negative", "best", "unitary")


@dataclass(frozen=True)
class NoiseMatrix:
    """The 2x2 noise matrix of the reduced transport equation."""

    t: float
    B: np.ndarray
    lambda_minus: float
    lambda_plus: float


@dataclass(frozen=True)
class MapPair:
    """Affine Gaussian map sigma -> X sigma X^T + Y over an interval."""

    X: np.ndarray
    Y: np.ndarray
    t_a: float
    t_b: float


def system_hamiltonian(p):
    """Reduced quadratic form diag(w_S^2, 1)."""
    return np.array([[p.omega_s**2, 0.0], [0.0, 1.0]])


def _noise_matrix(xi, sigma):
    """B = -xi [[0, c11], [c11, 2 c21]] from the cross block c = sigma_SE of a
    joint covariance, or of a (N, 4, 4) stack with xi of shape (N,)."""
    c11, c21 = sigma[..., 0, 2], sigma[..., 1, 2]
    rows = [np.stack([np.zeros_like(c11), c11], -1), np.stack([c11, 2.0 * c21], -1)]
    return -np.asarray(xi)[..., None, None] * np.stack(rows, -2)


def noise_B(state, p):
    """Noise matrix B = -xi(t) [[0, c11], [c11, 2 c21]] from the cross
    block c = sigma_SE of the full state."""
    b = _noise_matrix(float(coupling_xi(state.t, p)), state.sigma)
    lam_m, lam_p = eig_sym2(b)
    return NoiseMatrix(t=state.t, B=b, lambda_minus=float(lam_m), lambda_plus=float(lam_p))


def reduced_rhs(sigma_s, b, p):
    """Reduced transport right-hand side Omega H_S sigma_S - sigma_S H_S
    Omega + B."""
    h = system_hamiltonian(p)
    return OMEGA2 @ h @ sigma_s - sigma_s @ h @ OMEGA2 + b


def purity_rate(sigma_s, b):
    """Purity velocity gamma_dot = -(gamma/2) Tr(sigma_S^{-1} B)."""
    gamma = 1.0 / np.sqrt(max(det2(sigma_s), 1.0))
    return -0.5 * gamma * float(np.trace(inv2(sigma_s) @ b))


def _free_rotation(p, dt):
    """Free propagator exp(Omega H_S dt) of the reduced system, for a float
    or an array of intervals dt (then a (N, 2, 2) stack)."""
    w = p.omega_s
    phase = w * np.asarray(dt, dtype=float)
    c, s = np.cos(phase), np.sin(phase)
    return np.stack([np.stack([c, s / w], -1), np.stack([-w * s, c], -1)], -2)


#: Gauss-Legendre rule per step of the trajectory's grid.  Steps resolve a
#: twentieth of the fastest period, so four nodes integrate the smooth
#: integrand between step nodes to round-off.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)


def map_pair_evolve(p, traj, t_a, t_b, rtol=1e-10, atol=1e-12):
    """The reduced-map pair (X, Y) over [t_a, t_b].

    X = exp(Omega H_S (t_b - t_a)) is the free rotation, and
    Y = Int_{t_a}^{t_b} X(t_b, s) B(s) X(t_b, s)^T ds, with B(s) from the
    driving trajectory, by a four-node Gauss-Legendre rule on every piece of
    [t_a, t_b] between the trajectory's step nodes (where the propagator is
    smooth).  rtol and atol are accepted and ignored: the trajectory's own
    tolerances set the accuracy.

    Raises:
        ValueError: if [t_a, t_b] leaves the trajectory's window.
    """
    if t_b == t_a:
        return MapPair(np.eye(2), np.zeros((2, 2)), t_a, t_b)
    steps = traj.step_t
    edges = np.concatenate([[t_a], steps[(steps > t_a) & (steps < t_b)], [t_b]])
    half = 0.5 * np.diff(edges)[:, None]
    s = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * _GL_X).ravel()
    b = _noise_matrix(coupling_xi(s, p), traj.sigma_at(s))
    x = _free_rotation(p, t_b - s)
    y = np.einsum("n,nij,njk,nlk->il", (half * _GL_W).ravel(), x, b, x)
    return MapPair(_free_rotation(p, t_b - t_a), symmetrize(y), t_a, t_b)


def compose(first, second):
    """Composition of two map pairs applied in sequence."""
    x = second.X @ first.X
    y = second.X @ first.Y @ second.X.T + second.Y
    return MapPair(x, symmetrize(y), first.t_a, second.t_b)


def cp_check(pair, tol=1e-10):
    """Complete-positivity witness of a finite map pair.

    Returns:
        (is_cp, witness): is_cp is True when the smallest eigenvalue of the
        Hermitian matrix Y - (i/2) Omega + (i/2) X Omega X^T is above -tol.
    """
    m = pair.Y - 0.5j * OMEGA2 + 0.5j * (pair.X @ OMEGA2 @ pair.X.T)
    eigs = np.linalg.eigvalsh(m)
    witness = float(eigs[0])
    return witness >= -tol, witness


def cp_check_infinitesimal(b, tol=1e-12):
    """Complete positivity of an infinitesimal step: B must be positive
    semidefinite.

    The smaller eigenvalue carries round-off of order eps |B|, so the
    tolerance is relative: lambda_minus >= -tol max(1, |lambda_plus|).
    """
    lam_m, lam_p = eig_sym2(b)
    return lam_m >= -tol * max(1.0, abs(lam_p)), float(lam_m)


# ---------------------------------------------------------------------------
# Fidelity, Bures distance, Bures velocity
# ---------------------------------------------------------------------------


def _check_physical(sigma):
    d = det2(sigma)
    if d < 1.0 - 1e-6:
        raise NonPhysicalState("covariance block determinant %.6g < 1" % d)
    return max(d, 1.0)


def gaussian_fidelity(sigma1, sigma2):
    """Uhlmann fidelity of two single-mode Gaussian states.

    F = 2 / [sqrt(det(s1 + s2) + Delta) - sqrt(Delta)] with
    Delta = (det s1 - 1)(det s2 - 1).
    """
    d1 = _check_physical(sigma1)
    d2 = _check_physical(sigma2)
    delta = (d1 - 1.0) * (d2 - 1.0)
    total = det2(sigma1 + sigma2)
    return 2.0 / (np.sqrt(total + delta) - np.sqrt(delta))


def bures_distance(sigma1, sigma2):
    """Bures distance sqrt(2 (1 - F))."""
    f = gaussian_fidelity(sigma1, sigma2)
    return float(np.sqrt(max(2.0 * (1.0 - f), 0.0)))


def _one_minus_fidelity_pert(sigma1, e):
    """1 - F(sigma1, sigma1 + e), organised to avoid cancellation when e is
    a small perturbation.

    Uses det(s + e) = det s + det s Tr(s^{-1} e) + det e for 2x2 blocks and
    rationalises the square-root differences.
    """
    d1 = det2(sigma1)
    a = d1 - 1.0
    if a <= 0.0:
        # Pure reference state: Delta vanishes and the direct formula is
        # already cancellation-safe at leading order.
        total = det2(2.0 * sigma1 + e)
        g = np.sqrt(max(total, 0.0))
        return (g - 2.0) / g if g > 0 else 0.0
    t = float(np.trace(inv2(sigma1) @ e))
    det_e = det2(e)
    delta_det = d1 * t + det_e  # det sigma2 - det sigma1
    # N = det(s1 + s2) - 4 - 4 sqrt(Delta), with the cancellations between
    # the O(1) pieces removed algebraically.
    r = delta_det / a
    if r <= -1.0:
        # Perturbed state crosses purity one; outside the validation domain.
        return 0.0
    u = np.sqrt(1.0 + r)
    n = 2.0 * d1 * t * r / (1.0 + u) ** 2 + det_e * (u - 3.0) / (1.0 + u)
    d2 = d1 + delta_det
    delta = a * (d2 - 1.0)
    total = det2(2.0 * sigma1 + e)
    g = np.sqrt(total + delta)
    denom = g - np.sqrt(delta)
    return (n / (g + np.sqrt(delta) + 2.0)) / denom


def bures_velocity(sigma_s, b, b_tilde):
    """Instantaneous Bures divergence rate between the exact reduced
    evolution (noise B) and a surrogate (noise B~).

    Closed form det sigma_S / (2 sqrt(det^2 sigma_S - 1)) *
    |Tr[sigma_S^{-1} (B - B~)]|.

    This is the determinant-changing (purity-direction) component of the
    divergence; purity-preserving differences between B and B~ are not part
    of the diagnostic, so a finite-difference Bures distance agrees with it
    only where the trace term dominates.

    Raises:
        PureStateSingularity: at purities within EPS_PURE of one when the
        trace term does not vanish.
    """
    det = det2(sigma_s)
    trace_term = float(np.trace(inv2(sigma_s) @ (b - b_tilde)))
    gamma = 1.0 / np.sqrt(max(det, 1.0))
    if gamma >= 1.0 - EPS_PURE:
        if abs(trace_term) < 1e-12:
            return 0.0
        raise PureStateSingularity(
            "Bures velocity undefined at purity %.12g" % gamma
        )
    return det / (2.0 * np.sqrt(det * det - 1.0)) * abs(trace_term)


def _fd_once(sigma_s, b, b_tilde, p, dt):
    s1 = sigma_s + dt * reduced_rhs(sigma_s, b, p)
    e = dt * (b_tilde - b)  # s2 - s1; the unitary parts cancel exactly
    one_minus_f = _one_minus_fidelity_pert(s1, e)
    return float(np.sqrt(max(2.0 * one_minus_f, 0.0))) / dt


def bures_velocity_fd(sigma_s, b, b_tilde, p, dt):
    """Finite-difference Bures velocity: evolve one step under B and B~,
    divide the Bures distance of the results by the step, and remove the
    leading step-size error by Richardson extrapolation."""
    v1 = _fd_once(sigma_s, b, b_tilde, p, dt)
    v2 = _fd_once(sigma_s, b, b_tilde, p, 0.5 * dt)
    return 2.0 * v2 - v1


# ---------------------------------------------------------------------------
# Markovian surrogates
# ---------------------------------------------------------------------------


def drop_negative_B(b):
    """Positive part of B: keep only the non-negative eigenvalue."""
    lam_m, lam_p = eig_sym2(b)
    if lam_p <= 0.0:
        return np.zeros((2, 2))
    # Eigenvector of the larger eigenvalue.
    if abs(b[0, 1]) < 1e-300:
        v = np.array([1.0, 0.0]) if b[0, 0] >= b[1, 1] else np.array([0.0, 1.0])
    else:
        v = np.array([b[0, 1], lam_p - b[0, 0]])
        v = v / np.linalg.norm(v)
    return lam_p * np.outer(v, v)


def best_markovian_B(sigma_s, b):
    """Decohering surrogate of maximal determinant cancelling the Bures
    velocity: B~ = -(gamma_dot/gamma) sigma_S when gamma_dot < 0.

    Returns:
        2x2 matrix, or INFEASIBLE when gamma_dot > 0 (no positive
        semidefinite matrix cancels the velocity there).
    """
    rate = -0.5 * float(np.trace(inv2(sigma_s) @ b))  # gamma_dot / gamma
    if rate > 0.0:
        return INFEASIBLE
    return -rate * sigma_s


def surrogate_B(name, sigma_s, b):
    """Surrogate noise matrix by name ('drop-negative', 'best', 'unitary').

    The 'best' surrogate falls back to the unitary one (B~ = 0) at
    recohering points, where it is infeasible.
    """
    if name == "drop-negative":
        return drop_negative_B(b)
    if name == "best":
        bt = best_markovian_B(sigma_s, b)
        if bt is INFEASIBLE:
            return np.zeros((2, 2))
        return bt
    if name == "unitary":
        return np.zeros((2, 2))
    raise ValueError("unknown surrogate %r" % (name,))


def markov_series(traj, p, surrogate="drop-negative", stride=1):
    """Pointwise Markovianity analysis along a trajectory.

    Returns:
        dict of arrays: t, purity, lambda_minus, lambda_plus, v_bures,
        v_bures_fd, cp_flag (infinitesimal CP of the surrogate), flagged
        (pure-state-singularity points, reported as NaN velocities).
    """
    dt_fd = 1e-6 * 2.0 * np.pi / np.sqrt(normal_mode_sq(p.xi0, p)[1])
    out = {
        "t": [],
        "purity": [],
        "lambda_minus": [],
        "lambda_plus": [],
        "v_bures": [],
        "v_bures_fd": [],
        "cp_flag": [],
        "flagged": [],
    }
    for i in range(0, len(traj.t), stride):
        t = traj.t[i]
        sigma_s = traj.sigma[i][0:2, 0:2]
        nm = noise_B(CovarianceState(float(t), traj.sigma[i]), p)
        bt = surrogate_B(surrogate, sigma_s, nm.B)
        try:
            v = bures_velocity(sigma_s, nm.B, bt)
            v_fd = bures_velocity_fd(sigma_s, nm.B, bt, p, dt_fd)
            flagged = False
        except PureStateSingularity:
            v = np.nan
            v_fd = np.nan
            flagged = True
        cp, _ = cp_check_infinitesimal(bt)
        out["t"].append(t)
        out["purity"].append(traj.purity_s[i])
        out["lambda_minus"].append(nm.lambda_minus)
        out["lambda_plus"].append(nm.lambda_plus)
        out["v_bures"].append(v)
        out["v_bures_fd"].append(v_fd)
        out["cp_flag"].append(cp)
        out["flagged"].append(flagged)
    return {k: np.asarray(v) for k, v in out.items()}
