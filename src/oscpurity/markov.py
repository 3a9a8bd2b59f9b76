"""Reduced-system transport with the noise matrix B, Gaussian-map X/Y
decomposition, complete-positivity diagnosis, Bures velocity, and the
Markovian surrogate maps of model.SURROGATES.

The noise matrix is always computed from the exact full-system trajectory
(the reduced equation is exact only with the true cross-correlators); the
surrogates replace B pointwise along that trajectory.  Every pointwise
helper takes one 2x2 block (one 4x4 state) or a (N, 2, 2) stack ((N, 4, 4)
states), so a whole trajectory is analysed in one call.  Where a helper
needs det sigma_S it takes the purity gamma instead, det sigma_S =
gamma^-2: the Cauchy-Binet purity of the propagator keeps its digits where
the determinant of the block's large entries cancels.

The reduced map over [t_a, t_b] needs no integration of its own: X is the
free rotation at omega_s, and Y = Int X(t_b, s) B(s) X(t_b, s)^T ds is a
known-kernel integral of B, taken by Gauss-Legendre quadrature on the
driving trajectory's step grid.
"""

from dataclasses import dataclass

import numpy as np

from .model import coupling_xi
from .symplectic import OMEGA2, det2, eig_sym2, symmetrize

#: Guard for the 1/sqrt(1 - gamma^4) singularity of the Bures velocity.
EPS_PURE = 1e-9

#: Relative tolerance of the complete-positivity test of B.
CP_TOL = 1e-12

#: markov_series analyses every SERIES_STRIDE-th trajectory sample.
SERIES_STRIDE = 4


@dataclass(frozen=True)
class MapPair:
    """Affine Gaussian map sigma -> X sigma X^T + Y over an interval."""

    X: np.ndarray
    Y: np.ndarray


def system_hamiltonian(p):
    """Reduced quadratic form diag(w_S^2, 1)."""
    return np.array([[p.omega_s**2, 0.0], [0.0, 1.0]])


def noise_B(t, sigma, p):
    """Noise matrix B = -xi(t) [[0, c11], [c11, 2 c21]] from the cross block
    c = sigma_SE of the joint covariance at time t, or the (N, 2, 2) stack of
    a (N, 4, 4) covariance stack at N times."""
    c11, c21 = sigma[..., 0, 2], sigma[..., 1, 2]
    rows = [np.stack([np.zeros_like(c11), c11], -1), np.stack([c11, 2.0 * c21], -1)]
    return -coupling_xi(t, p)[..., None, None] * np.stack(rows, -2)


def _trace_adj(a, m):
    """Tr(adj(a) m) of 2x2 blocks, which is det(a) Tr(a^{-1} m)."""
    return (
        a[..., 1, 1] * m[..., 0, 0]
        - a[..., 0, 1] * m[..., 1, 0]
        - a[..., 1, 0] * m[..., 0, 1]
        + a[..., 0, 0] * m[..., 1, 1]
    )


def reduced_rhs(sigma_s, b, p):
    """Reduced transport right-hand side Omega H_S sigma_S - sigma_S H_S
    Omega + B."""
    h = system_hamiltonian(p)
    return OMEGA2 @ h @ sigma_s - sigma_s @ h @ OMEGA2 + b


def _free_rotation(p, dt):
    """Free propagator exp(Omega H_S dt) of the reduced system, for a float
    or an array of intervals dt (then a (N, 2, 2) stack)."""
    w = p.omega_s
    phase = w * np.asarray(dt, dtype=float)
    c, s = np.cos(phase), np.sin(phase)
    return np.stack([np.stack([c, s / w], -1), np.stack([-w * s, c], -1)], -2)


#: Gauss-Legendre rule per piece of at most a fortieth of the fastest
#: period.  The step grid alone is too coarse wherever xi is constant: the
#: tolerance leaves steps of up to a tenth of the period there, and four
#: nodes per step missed Y by up to 2e-10 (|Y| ~ 2) on a top-hat window at
#: rtol 1e-10.  On the cut pieces Y stays within 1.3e-14 (relative) of the
#: rule on four times as many, so what remains is the trajectory's own
#: error: 1.4e-11 relative at rtol 1e-10 on a psi = 1.1 smooth window.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)


def map_pair_evolve(p, traj, t_a, t_b, rtol=1e-10, atol=1e-12):
    """The reduced-map pair (X, Y) over [t_a, t_b].

    X = exp(Omega H_S (t_b - t_a)) is the free rotation, and
    Y = Int_{t_a}^{t_b} X(t_b, s) B(s) X(t_b, s)^T ds, with B(s) from the
    driving trajectory, by a four-node Gauss-Legendre rule on the pieces of
    [t_a, t_b] between the trajectory's step nodes (where the propagator is
    smooth), each cut into equal parts of at most a fortieth of the fastest
    period.  rtol and atol are accepted and ignored: the trajectory's own
    tolerances set the accuracy.

    Raises:
        ValueError: if [t_a, t_b] leaves the trajectory's window.
    """
    if t_b == t_a:
        return MapPair(np.eye(2), np.zeros((2, 2)))
    steps = traj.step_t
    edges = np.concatenate([[t_a], steps[(steps > t_a) & (steps < t_b)], [t_b]])
    width = 0.05 * np.pi / p.omega2_peak
    span = np.diff(edges)
    cuts = np.maximum(1, np.ceil(np.abs(span) / width)).astype(int)
    h = np.repeat(span / cuts, cuts)
    j = np.arange(len(h)) - np.repeat(np.cumsum(cuts) - cuts, cuts)
    half = 0.5 * h[:, None]
    s = ((np.repeat(edges[:-1], cuts) + (j + 0.5) * h)[:, None] + half * _GL_X).ravel()
    b = noise_B(s, traj.sigma_at(s), p)
    x = _free_rotation(p, t_b - s)
    y = np.einsum("n,nij,njk,nlk->il", (half * _GL_W).ravel(), x, b, x)
    return MapPair(_free_rotation(p, t_b - t_a), symmetrize(y))


def compose(first, second):
    """Composition of two map pairs applied in sequence."""
    x = second.X @ first.X
    y = second.X @ first.Y @ second.X.T + second.Y
    return MapPair(x, symmetrize(y))


def cp_check_infinitesimal(b):
    """Complete positivity of an infinitesimal step: B must be positive
    semidefinite.

    The smaller eigenvalue carries round-off of order eps |B|, so the
    tolerance is relative: lambda_minus >= -CP_TOL max(1, |lambda_plus|).

    Returns:
        (is_cp, lambda_minus), arrays over a stack of B.
    """
    lam_m, lam_p = eig_sym2(b)
    return lam_m >= -CP_TOL * np.maximum(1.0, np.abs(lam_p)), lam_m


# ---------------------------------------------------------------------------
# Bures velocity
# ---------------------------------------------------------------------------


def _one_minus_fidelity_pert(sigma1, det1, e):
    """1 - F(sigma1, sigma1 + e) for det1 = det sigma1, organised to avoid
    cancellation when e is a small perturbation.

    Uses det(s + e) = det s + Tr(adj(s) e) + det e for 2x2 blocks, so no
    determinant is taken of the entries of sigma1, and rationalises the
    square-root differences.  NaN where det(2 sigma1 + e) <= 0: no pair of
    states has that, so sigma1 or sigma1 + e is not a state.
    """
    tr = _trace_adj(sigma1, e)
    det_e = det2(e)
    total = 4.0 * det1 + 2.0 * tr + det_e  # det(2 sigma1 + e)
    physical = total > 0.0
    a = det1 - 1.0
    # A pure reference state (a <= 0) has Delta = 0, and the direct formula
    # 1 - 2/sqrt(total) is already cancellation-safe at leading order.
    mixed = a > 0.0
    r = (tr + det_e) / np.where(mixed, a, 1.0)  # (det sigma2 - det1) / a
    u = np.sqrt(np.maximum(1.0 + r, 0.0))
    # N = det(s1 + s2) - 4 - 4 sqrt(Delta), with the cancellations between
    # the O(1) pieces removed algebraically; sqrt(Delta) = a u.
    n = 2.0 * tr * r / (1.0 + u) ** 2 + det_e * (u - 3.0) / (1.0 + u)
    root = np.where(mixed, a * u, 0.0)
    g = np.sqrt(np.where(physical, total, 1.0) + root * root)
    one_minus_f = np.where(mixed, n / ((g + root + 2.0) * (g - root)), (g - 2.0) / g)
    # r <= -1: the perturbed state crosses purity one, outside the
    # validation domain.
    one_minus_f = np.where(mixed & (r <= -1.0), 0.0, one_minus_f)
    return np.where(physical, one_minus_f, np.nan)


def bures_velocity(sigma_s, gamma, b, b_tilde):
    """Instantaneous Bures divergence rate between the exact reduced
    evolution (noise B) and a surrogate (noise B~), at purity gamma.

    Closed form det sigma_S / (2 sqrt(det^2 sigma_S - 1)) *
    |Tr[sigma_S^{-1} (B - B~)]| with det sigma_S = gamma^-2, i.e.
    |Tr[sigma_S^{-1} (B - B~)]| / (2 sqrt(1 - gamma^4)).

    This is the determinant-changing (purity-direction) component of the
    divergence; purity-preserving differences between B and B~ are not part
    of the diagnostic, so a finite-difference Bures distance agrees with it
    only where the trace term dominates.

    Returns:
        The rate; NaN at purities within EPS_PURE of one, where the closed
        form is singular, unless the trace term vanishes (below 1e-12), which
        gives 0.
    """
    gamma2 = gamma * gamma
    trace = np.abs(gamma2 * _trace_adj(sigma_s, b - b_tilde))
    near_pure = gamma >= 1.0 - EPS_PURE
    rate = trace / (2.0 * np.sqrt(np.where(near_pure, 1.0, 1.0 - gamma2 * gamma2)))
    return np.where(near_pure, np.where(trace < 1e-12, 0.0, np.nan), rate)


def _fd_once(sigma_s, gamma, b, b_tilde, p, dt):
    step = dt * reduced_rhs(sigma_s, b, p)
    det1 = 1.0 / (gamma * gamma) + _trace_adj(sigma_s, step) + det2(step)
    e = dt * (b_tilde - b)  # s2 - s1; the unitary parts cancel exactly
    one_minus_f = _one_minus_fidelity_pert(sigma_s + step, det1, e)
    return np.sqrt(np.maximum(2.0 * one_minus_f, 0.0)) / dt


def bures_velocity_fd(sigma_s, gamma, b, b_tilde, p, dt):
    """Finite-difference Bures velocity: evolve one step under B and B~,
    divide the Bures distance of the results by the step, and remove the
    leading step-size error by Richardson extrapolation."""
    v1 = _fd_once(sigma_s, gamma, b, b_tilde, p, dt)
    v2 = _fd_once(sigma_s, gamma, b, b_tilde, p, 0.5 * dt)
    return 2.0 * v2 - v1


# ---------------------------------------------------------------------------
# Markovian surrogates
# ---------------------------------------------------------------------------


def drop_negative_B(b):
    """Positive part of B: keep only the non-negative eigenvalue."""
    lam_p = eig_sym2(b)[1]
    b00, b01, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 1]
    # Eigenvector of the larger eigenvalue; a coordinate axis for diagonal B.
    diagonal = np.abs(b01) < 1e-300
    first = b00 >= b11
    v = np.stack(
        [
            np.where(diagonal, np.where(first, 1.0, 0.0), b01),
            np.where(diagonal, np.where(first, 0.0, 1.0), lam_p - b00),
        ],
        -1,
    )
    v = v / np.sqrt(np.sum(v * v, axis=-1))[..., None]
    lam = np.where(lam_p > 0.0, lam_p, 0.0)
    return lam[..., None, None] * (v[..., :, None] * v[..., None, :])


def best_markovian_B(sigma_s, gamma, b):
    """Decohering surrogate of maximal determinant cancelling the Bures
    velocity: B~ = -(gamma_dot/gamma) sigma_S where gamma_dot <= 0.

    Where gamma_dot > 0 (recohering) no positive-semidefinite matrix cancels
    the velocity, and the surrogate falls back to the unitary one, B~ = 0.
    """
    rate = -0.5 * gamma * gamma * _trace_adj(sigma_s, b)  # gamma_dot / gamma
    return np.where(rate > 0.0, 0.0, -rate)[..., None, None] * sigma_s


def surrogate_B(name, sigma_s, gamma, b):
    """Surrogate noise matrix by name ('drop-negative', 'best', 'unitary')."""
    if name == "drop-negative":
        return drop_negative_B(b)
    if name == "best":
        return best_markovian_B(sigma_s, gamma, b)
    if name == "unitary":
        return np.zeros_like(b)
    raise ValueError("unknown surrogate %r" % (name,))


def markov_series(traj, surrogate):
    """Pointwise Markovianity analysis of the scenario traj.params at every
    SERIES_STRIDE-th trajectory sample, with the named surrogate.

    Returns:
        dict of arrays: t, purity, lambda_minus, lambda_plus, v_bures,
        v_bures_fd (also NaN where its Euler step leaves the states),
        cp_flag (infinitesimal CP of the surrogate), flagged
        (pure-state-singularity points, reported as NaN velocities).
    """
    p = traj.params
    dt_fd = 1e-6 * 2.0 * np.pi / p.omega2_peak
    t = traj.t[::SERIES_STRIDE]
    sigma = traj.sigma[::SERIES_STRIDE]
    sigma_s = sigma[:, 0:2, 0:2]
    gamma = traj.purity_s[::SERIES_STRIDE]
    b = noise_B(t, sigma, p)
    bt = surrogate_B(surrogate, sigma_s, gamma, b)
    lam_m, lam_p = eig_sym2(b)
    v = bures_velocity(sigma_s, gamma, b, bt)
    flagged = np.isnan(v)
    v_fd = bures_velocity_fd(sigma_s, gamma, b, bt, p, dt_fd)
    return {
        "t": t,
        "purity": gamma,
        "lambda_minus": lam_m,
        "lambda_plus": lam_p,
        "v_bures": v,
        "v_bures_fd": np.where(flagged, np.nan, v_fd),
        "cp_flag": cp_check_infinitesimal(bt)[0],
        "flagged": flagged,
    }
