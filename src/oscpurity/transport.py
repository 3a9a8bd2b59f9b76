"""Exact numerical integration of the two-mode transport equation;
ground-truth oracle for every analytic module.

The only integrated state is the 4x4 symplectic propagator U from t_in,
dU/dt = K(xi(t)) U with the generator K = Omega H, ordered
(x_S, p_S, x_E, p_E).  The covariance matrix is derived from it as
sigma = L L^T with L = U diag(sqrt(vacuum)), so the two cannot disagree.
Purities are a Cauchy-Binet sum of squared 2x2 minors of L, which stays
accurate deep in the supercritical phase where det sigma_S is exponentially
smaller than the sigma_S entries.

`integrate` keeps dense interpolants and samples the whole window;
`propagate` returns only U at the end point, for callers that need nothing
but the late-time value.
"""

import io
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import StepFailure
from .model import ISOSO, SMOOTH, coupling_xi, normal_mode_sq

# Row/column pairs of the 2x2 minors in the Cauchy-Binet sums.
_MINOR_I, _MINOR_J = np.triu_indices(4, 1)

#: dK/dxi: the coupling enters K = Omega H only as K[1, 2] = K[3, 0] = -xi.
_K1 = np.zeros((4, 4))
_K1[1, 2] = _K1[3, 0] = -1.0


def generator_terms(p):
    """Constant parts (K0, K1) of the generator K(xi) = Omega H(xi) = K0 +
    xi K1 of U' = K U, where H is the quadratic form of the joint
    Hamiltonian diag(w_S^2, 1, w_E^2, 1) plus xi in the (x_S, x_E) entries."""
    k0 = np.zeros((4, 4))
    k0[0, 1] = k0[2, 3] = 1.0
    k0[1, 0] = -p.omega_s**2
    k0[3, 2] = -p.omega_e**2
    return k0, _K1


@dataclass(frozen=True)
class CovarianceState:
    """Joint covariance matrix at one time."""

    t: float
    sigma: np.ndarray


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration controls.

    Attributes:
        rtol, atol: adaptive error tolerances.
        max_step: optional global step cap (defaults derived from params).
        sample_dt: output cadence (default (2 pi/omega2)/40 at peak coupling).
        t_end_policy: "fixed" (window mirrors t_in) or "cutoff" (stop once
            xi/xi_c drops below cutoff_threshold).
        cutoff_threshold: threshold for the cutoff policy.
        method: scipy solver name (embedded Runge-Kutta; "RK45" default,
            "DOP853" for tight-tolerance late-time runs).
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: Optional[float] = None
    sample_dt: Optional[float] = None
    t_end_policy: str = "fixed"
    cutoff_threshold: float = 1e-10
    method: str = "RK45"

    def with_updates(self, **kw):
        return replace(self, **kw)


def _vacuum_factor(u, p):
    """L = U diag(sqrt(vacuum)) for one propagator or a (N, 4, 4) stack."""
    root = np.sqrt([1.0 / p.omega_s, p.omega_s, 1.0 / p.omega_e, p.omega_e])
    return u * root


def sigma_from_propagator(u, p):
    """Covariance sigma = L L^T evolved from the vacuum by U (one matrix or a
    (N, 4, 4) stack)."""
    l = _vacuum_factor(np.asarray(u), p)
    return l @ np.swapaxes(l, -1, -2)


def purity_from_propagator(u, p, mode="S"):
    """Single-mode purity 1/sqrt(det sigma_mode) from the propagator.

    With L = U diag(sqrt(vacuum)), the mode block is L_r L_r^T for its row
    pair r, so its determinant is the sum of squared 2x2 minors of L_r -- a
    cancellation-free form even when the block entries are exponentially
    large.  Works on one propagator or on a (N, 4, 4) stack.
    """
    l = _vacuum_factor(np.asarray(u), p)
    r = 0 if mode == "S" else 2
    a, b = l[..., r, :], l[..., r + 1, :]
    minors = a[..., _MINOR_I] * b[..., _MINOR_J] - a[..., _MINOR_J] * b[..., _MINOR_I]
    return 1.0 / np.sqrt(np.sum(minors * minors, axis=-1))


class Trajectory:
    """Time-ordered propagator samples plus the series derived from them.

    Attributes:
        t: sample times (strictly increasing).
        propagator: (N, 4, 4) symplectic propagators from t_in.
        sigma: (N, 4, 4) covariance samples derived from the propagators.
        purity_s, purity_e: per-mode purities (propagator route).
        xi: coupling strength at each sample.
    """

    def __init__(self, t, propagator, params, segments):
        self.t = np.asarray(t)
        self.propagator = np.asarray(propagator)
        self.params = params
        self._segments = segments  # list of (t_lo, t_hi, dense solution)
        self.sigma = sigma_from_propagator(self.propagator, params)
        self.purity_s = purity_from_propagator(self.propagator, params, "S")
        self.purity_e = purity_from_propagator(self.propagator, params, "E")
        self.xi = np.asarray(coupling_xi(self.t, params), dtype=float)

    @property
    def t_end(self):
        return float(self.t[-1])

    def propagator_at(self, t):
        """Propagator at an arbitrary time via dense interpolation."""
        t = float(t)
        for t_lo, t_hi, sol in self._segments:
            if t_lo - 1e-12 <= t <= t_hi + 1e-12:
                return sol(np.clip(t, t_lo, t_hi)).reshape(4, 4)
        raise ValueError("time %g outside trajectory range" % t)

    def sigma_at(self, t):
        """Covariance matrix at an arbitrary time via dense interpolation."""
        return sigma_from_propagator(self.propagator_at(t), self.params)

    def purity_at(self, t, mode="S"):
        """Purity at an arbitrary time (propagator route)."""
        return purity_from_propagator(self.propagator_at(t), self.params, mode)

    def state_at(self, t):
        return CovarianceState(float(t), self.sigma_at(t))

    def to_csv(self, path_or_buf):
        """Write the trajectory in the standard CSV layout.

        Header: t,s11,s12,s22,e11,e12,e22,c11,c12,c21,c22,purity_s,xi with
        17-significant-digit floats.
        """
        own = isinstance(path_or_buf, str)
        f = open(path_or_buf, "w") if own else path_or_buf
        try:
            f.write("t,s11,s12,s22,e11,e12,e22,c11,c12,c21,c22,purity_s,xi\n")
            for i, t in enumerate(self.t):
                s = self.sigma[i]
                row = [
                    t,
                    s[0, 0], s[0, 1], s[1, 1],
                    s[2, 2], s[2, 3], s[3, 3],
                    s[0, 2], s[0, 3], s[1, 2], s[1, 3],
                    self.purity_s[i],
                    self.xi[i],
                ]
                f.write(",".join("%.16e" % v for v in row) + "\n")
        finally:
            if own:
                f.close()

    def to_csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def vacuum_initial(p):
    """Vacuum covariance diag(1/w_S, w_S, 1/w_E, w_E) at t = t_in."""
    sigma = np.diag([1.0 / p.omega_s, p.omega_s, 1.0 / p.omega_e, p.omega_e])
    return CovarianceState(p.t_in, sigma)


def _omega2_peak(p):
    return np.sqrt(normal_mode_sq(p.xi0, p)[1])


def default_sample_dt(p):
    """Default output cadence (2 pi / omega2)/40 at peak coupling."""
    return 2.0 * np.pi / _omega2_peak(p) / 40.0


def _resolve_t_end(p, cfg):
    if cfg.t_end_policy == "fixed":
        return -p.t_in
    if p.profile == ISOSO:
        return p.t0
    # First t > t0 where xi(t)/xi_c falls below the threshold.
    target = cfg.cutoff_threshold * p.xi_c
    if p.xi0 <= target:
        return p.t0
    hi = p.t0 + 5.0 * p.tau
    while coupling_xi(hi, p) > target:
        hi += 5.0 * p.tau
        if hi > p.t0 + 1e6 * p.tau:
            raise StepFailure("could not locate the coupling cutoff time")
    return float(brentq(lambda t: float(coupling_xi(t, p)) - target, p.t0, hi))


def _segment_breakpoints(p, t_start, t_end):
    """Split [t_start, t_end] at profile features.

    Top-hat: exact breaks at +-t0.  Smooth: breaks bracketing the switch
    regions (+-t0 -+ 10 tau) so the fine step cap applies only there.
    """
    if p.profile == ISOSO:
        candidates = [-p.t0, p.t0]
    else:
        candidates = [
            -p.t0 - 10.0 * p.tau,
            -p.t0 + 10.0 * p.tau,
            p.t0 - 10.0 * p.tau,
            p.t0 + 10.0 * p.tau,
        ]
    pts = [t_start]
    for c in sorted(candidates):
        if t_start + 1e-12 < c < t_end - 1e-12 and c > pts[-1] + 1e-12:
            pts.append(c)
    pts.append(t_end)
    return pts


def _segment_max_step(p, t_lo, t_hi, cfg):
    osc = 0.05 * 2.0 * np.pi / _omega2_peak(p)
    cap = osc
    if p.profile == SMOOTH:
        # Inside the switch regions, additionally resolve the switch itself.
        mid = 0.5 * (t_lo + t_hi)
        in_switch = (abs(mid + p.t0) <= 10.0 * p.tau + 1e-12) or (
            abs(mid - p.t0) <= 10.0 * p.tau + 1e-12
        )
        if in_switch:
            cap = min(osc, p.tau / 20.0)
    if cfg.max_step is not None:
        cap = min(cap, cfg.max_step)
    return cap


def _solve(p, cfg, t_end, dense):
    """Integrate U' = K U from t_in to t_end, one solver run per segment.

    Returns:
        (U(t_end), segments) with segments a list of (t_lo, t_hi, dense
        solution or None).
    """
    k0, k1 = generator_terms(p)

    def make_rhs(t_lo, t_hi):
        if p.profile == ISOSO:
            # xi is piecewise constant; evaluate it mid-segment so the
            # open-interval edge values never leak into RK stages.
            k = k0 + float(coupling_xi(0.5 * (t_lo + t_hi), p)) * k1

            def rhs(_t, y):
                return k.dot(y.reshape(4, 4)).ravel()

        else:

            def rhs(t, y):
                return (k0 + float(coupling_xi(t, p)) * k1).dot(y.reshape(4, 4)).ravel()

        return rhs

    y = np.eye(4).ravel()
    segments = []
    breakpoints = _segment_breakpoints(p, p.t_in, t_end)
    for t_lo, t_hi in zip(breakpoints[:-1], breakpoints[1:]):
        sol = solve_ivp(
            make_rhs(t_lo, t_hi),
            (t_lo, t_hi),
            y,
            method=cfg.method,
            rtol=cfg.rtol,
            atol=cfg.atol,
            max_step=_segment_max_step(p, t_lo, t_hi, cfg),
            dense_output=dense,
        )
        if not sol.success:
            raise StepFailure(
                "integration failed on [%g, %g]: %s" % (t_lo, t_hi, sol.message)
            )
        y = sol.y[:, -1]
        segments.append((t_lo, t_hi, sol.sol))
    return y.reshape(4, 4), segments


def propagate(p, cfg=IntegratorConfig()):
    """Propagator U(t_end) over the scenario window, without dense output or
    samples.

    The end time follows cfg.t_end_policy as in integrate.

    Raises:
        StepFailure: if the adaptive solver cannot meet its tolerances.
    """
    u, _ = _solve(p, cfg, _resolve_t_end(p, cfg), dense=False)
    return u


def integrate(p, cfg=IntegratorConfig()):
    """Integrate the transport equation over the scenario window.

    Args:
        p: ScenarioParams.
        cfg: IntegratorConfig.

    Returns:
        Trajectory with dense interpolants for arbitrary-time queries.

    Raises:
        StepFailure: if the adaptive solver cannot meet its tolerances.
    """
    t_start = p.t_in
    t_end = _resolve_t_end(p, cfg)
    sample_dt = cfg.sample_dt if cfg.sample_dt is not None else default_sample_dt(p)
    _, segments = _solve(p, cfg, t_end, dense=True)

    n_samples = max(int(np.ceil((t_end - t_start) / sample_dt)) + 1, 2)
    ts = np.linspace(t_start, t_end, n_samples)
    # A sample belongs to the first segment whose end it does not pass.
    ends = np.array([t_hi for _, t_hi, _ in segments[:-1]]) + 1e-12
    owner = np.searchsorted(ends, ts, side="left")
    props = np.empty((n_samples, 16))
    for k, (t_lo, t_hi, sol) in enumerate(segments):
        mask = owner == k
        if np.any(mask):
            props[mask] = sol(np.clip(ts[mask], t_lo, t_hi)).T
    return Trajectory(ts, props.reshape(-1, 4, 4), p, segments)


def isoso_reference_run(p, cfg=IntegratorConfig()):
    """Integrate a smooth profile with tau = 1e-4 t0 (near-top-hat limit)."""
    p_ref = p.with_profile(SMOOTH, tau=1e-4 * p.t0)
    return integrate(p_ref, cfg)
