"""Exact numerical integration of the two-mode transport equation;
ground-truth oracle for every analytic module.

The only integrated state is the 4x4 symplectic propagator U from t_in,
dU/dt = K(xi(t)) U with the generator K = Omega H = K0 + xi K1, ordered
(x_S, p_S, x_E, p_E).  The covariance matrix is derived from it as
sigma = L L^T with L = U diag(sqrt(vacuum)), so the two cannot disagree.
Purities are a Cauchy-Binet sum of squared 2x2 minors of L, which stays
accurate deep in the supercritical phase where det sigma_S is exponentially
smaller than the sigma_S entries.

The integrator is the sixth-order Magnus method at the three Gauss-Legendre
nodes of each step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151):
every step is the exponential of a Hamiltonian matrix, so U stays symplectic
to round-off, and a step is exact wherever xi is constant.  Each segment of
the window (split at the profile's switch regions) starts from a step cap
that resolves the oscillation and the switch, and doubles the number of
equal steps until the Richardson estimate |P_2n - P_n| / 63 of the segment
propagator's error is at most atol + rtol |P_2n| (max-abs norms).

`integrate` keeps the propagator at every step node and samples the window
with one partial Magnus step from the node before each sample; arbitrary-time
queries (`propagator_at`, `state_at`) use the same partial step.
`propagate` returns only U at the end point, for callers that need nothing
but the late-time value.
"""

import io
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, StepFailure
from .model import ISOSO, SMOOTH, coupling_xi, normal_mode_sq
from .symplectic import cauchy_binet

#: dK/dxi: the coupling enters K = Omega H only as K[1, 2] = K[3, 0] = -xi.
_K1 = np.zeros((4, 4))
_K1[1, 2] = _K1[3, 0] = -1.0

#: Gauss-Legendre nodes of the sixth-order Magnus step, as fractions of it.
_SQRT15 = math.sqrt(15.0)
_GAUSS = np.array([0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0])

#: (1/(2k)!, 1/(2k+1)!) for the even/odd parts of the exponential series;
#: with the eigenvalues of the squared exponent inside the unit disc, ten
#: pairs leave a truncation error below 1/20! ~ 4e-19.
_FACTORIALS = [
    (1.0 / math.factorial(2 * k), 1.0 / math.factorial(2 * k + 1)) for k in range(10)
]

_EYE = np.eye(4)

#: Steps computed per batch, which bounds the temporaries of a level.
_CHUNK = 4096

#: Step budget per segment; refining past it is a StepFailure.
MAX_STEPS = 1 << 20

_T_END_POLICIES = ("fixed", "cutoff")


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
        rtol, atol: bound on the Richardson error estimate of each
            segment's propagator, atol + rtol |U| in max-abs norm.
        max_step: optional global step cap (defaults derived from params).
        sample_dt: output cadence (default (2 pi/omega2)/40 at peak coupling).
        t_end_policy: "fixed" (window mirrors t_in) or "cutoff" (stop once
            xi/xi_c drops below cutoff_threshold).
        cutoff_threshold: threshold for the cutoff policy.

    Raises:
        ConfigError: on a non-positive or non-finite tolerance, step or
            cadence, a threshold outside (0, 1), or an unknown policy.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: Optional[float] = None
    sample_dt: Optional[float] = None
    t_end_policy: str = "fixed"
    cutoff_threshold: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.rtol) and self.rtol > 0):
            raise ConfigError("rtol must be positive and finite")
        if not (math.isfinite(self.atol) and self.atol >= 0):
            raise ConfigError("atol must be non-negative and finite")
        for name in ("max_step", "sample_dt"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError("%s must be positive and finite" % name)
        if not 0 < self.cutoff_threshold < 1:
            raise ConfigError("cutoff_threshold must lie in (0, 1)")
        if self.t_end_policy not in _T_END_POLICIES:
            raise ConfigError("t_end_policy must be 'fixed' or 'cutoff'")

    def with_updates(self, **kw):
        return replace(self, **kw)


def _vacuum_root(p):
    """sqrt of the vacuum covariance diagonal (1/w_S, w_S, 1/w_E, w_E)."""
    return np.sqrt([1.0 / p.omega_s, p.omega_s, 1.0 / p.omega_e, p.omega_e])


def sigma_from_propagator(u, p):
    """Covariance sigma = L L^T evolved from the vacuum by U (one matrix or a
    (N, 4, 4) stack)."""
    l = np.asarray(u) * _vacuum_root(p)
    return l @ np.swapaxes(l, -1, -2)


def purity_from_propagator(u, p, mode="S"):
    """Single-mode purity 1/sqrt(det sigma_mode) from the propagator.

    With L = U diag(sqrt(vacuum)), the mode block is L_r L_r^T for its row
    pair r, so its determinant is the sum of squared 2x2 minors of L_r -- a
    cancellation-free form even when the block entries are exponentially
    large.  Works on one propagator or on a (N, 4, 4) stack.
    """
    l = np.asarray(u) * _vacuum_root(p)
    r = 0 if mode == "S" else 2
    return 1.0 / np.sqrt(cauchy_binet(l[..., r, :], l[..., r + 1, :]))


# ---------------------------------------------------------------------------
# Sixth-order Magnus steps
# ---------------------------------------------------------------------------


def _commutator(a, b):
    return a @ b - b @ a


def _omega_coefficients(h, x1, x2, x3):
    """Coefficients of the Magnus exponent Omega^[6] in the basis of
    _MagnusStepper for one step of length h with xi = x1, x2, x3 at the Gauss
    nodes (floats, or arrays for a batch of steps).

    With A_i = K0 + x_i K1 the sixth-order exponent is
        alpha1 = h A2, alpha2 = (sqrt15 h / 3)(A3 - A1),
        alpha3 = (10 h / 3)(A3 - 2 A2 + A1), C1 = [alpha1, alpha2],
        C2 = -[alpha1, 2 alpha3 + C1] / 60,
        Omega = alpha1 + alpha3 / 12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240.
    alpha2 and alpha3 are multiples b2 K1, b3 K1 of K1, so every commutator
    reduces to the constant nested commutators of K0 and K1:
    -20 alpha1 - alpha3 + C1 = xa K0 + xb K1 + xc M1 and
    alpha2 + C2 = ya K1 + yb M1 + yc M2 + yd M3 with M1 = [K0, K1],
    M2 = [K0, M1], M3 = [K1, M1].
    """
    b2 = _SQRT15 / 3.0 * h * (x3 - x1)
    b3 = 10.0 / 3.0 * h * (x3 - 2.0 * x2 + x1)
    xa, xb, xc = -20.0 * h, -20.0 * h * x2 - b3, h * b2
    ya, yb, yc = b2, -h * b3 / 30.0, -h * h * b2 / 60.0
    yd = yc * x2
    return (
        h,
        h * x2 + b3 / 12.0,
        xa * ya / 240.0,
        xa * yb / 240.0,
        (xb * yb - xc * ya) / 240.0,
        xa * yc / 240.0,
        xa * yd / 240.0,
        xb * yc / 240.0,
        xb * yd / 240.0,
        xc * yc / 240.0,
        xc * yd / 240.0,
    )


def _expm(om):
    """exp(om) of a 4x4 Hamiltonian matrix, or of a (N, 4, 4) stack.

    X = om^2 satisfies X^2 + a X + b = 0 with a = -tr(X)/2 and
    b = (tr(X)^2/2 - tr(X^2))/4 (Cayley-Hamilton; the odd traces of a
    Hamiltonian matrix vanish).  So X^k = alpha_k + beta_k X with
    alpha_{k+1} = -b beta_k, beta_{k+1} = alpha_k - a beta_k, and
    exp(om) = c0 + s0 om + (c1 + s1 om) X with the scalar series
    c = sum_k (alpha_k, beta_k)/(2k)!, s = sum_k (alpha_k, beta_k)/(2k+1)!.
    Scaling and squaring keep the eigenvalues of X inside the unit disc.
    """
    x = om @ om
    # The 16 entries of X: floats for one matrix, (N,) arrays for a stack.
    (x00, x01, x02, x03, x10, x11, x12, x13,
     x20, x21, x22, x23, x30, x31, x32, x33) = (
        x.reshape(-1, 16).T if om.ndim == 3 else x.ravel().tolist()
    )
    tr = x00 + x11 + x22 + x33
    tr2 = x00 * x00 + x11 * x11 + x22 * x22 + x33 * x33 + 2.0 * (
        x01 * x10 + x02 * x20 + x03 * x30 + x12 * x21 + x13 * x31 + x23 * x32
    )
    a = -0.5 * tr
    b = 0.25 * (0.5 * tr * tr - tr2)
    # Bound on the eigenvalue moduli of X (roots of z^2 + a z + b).
    radius = 0.5 * abs(a) + (0.25 * a * a + abs(b)) ** 0.5
    if om.ndim == 3:
        radius = float(radius.max())
    squarings = max(0, math.ceil(0.5 * math.log2(radius))) if radius > 1.0 else 0
    if squarings:
        om = om * 0.5**squarings
        x = x * 0.25**squarings
        a = a * 0.25**squarings
        b = b * 0.0625**squarings
    # c0 - 1 is summed instead of c0, and the identity added last, entry by
    # entry: a rounded c0 ~ 1 would shift the whole diagonal alike, a
    # symplecticity defect that repeats coherently over thousands of steps.
    alpha, beta = 1.0, 0.0
    c0 = -1.0
    c1 = s0 = s1 = 0.0
    for even, odd in _FACTORIALS:
        c0 = c0 + alpha * even
        c1 = c1 + beta * even
        s0 = s0 + alpha * odd
        s1 = s1 + beta * odd
        alpha, beta = -b * beta, alpha - a * beta
    if om.ndim == 3:
        c0, c1, s0, s1 = (v[:, None, None] for v in (c0, c1, s0, s1))
    f = (c1 * _EYE + s1 * om) @ x + s0 * om + c0 * _EYE  # exp(om) - 1
    for _ in range(squarings):
        f = 2.0 * f + f @ f
    return f + _EYE


class _MagnusStepper:
    """Sixth-order Magnus steps of U' = (K0 + xi(t) K1) U for one scenario."""

    def __init__(self, p):
        self.params = p
        k0, k1 = generator_terms(p)
        m1 = _commutator(k0, k1)
        m2 = _commutator(k0, m1)
        m3 = _commutator(k1, m1)
        basis = [k0, k1, m1, m2, m3]
        basis += [_commutator(u, v) for u in (k0, k1, m1) for v in (m2, m3)]
        self.basis = np.array(basis).reshape(len(basis), 16)

    def steps(self, t0, h):
        """Step propagators exp(Omega) of the steps [t0, t0 + h] ((N,) arrays)
        as a (N, 4, 4) stack."""
        xi = coupling_xi(t0[:, None] + h[:, None] * _GAUSS, self.params)
        coef = np.stack(_omega_coefficients(h, xi[:, 0], xi[:, 1], xi[:, 2]), axis=-1)
        return _expm((coef @ self.basis).reshape(-1, 4, 4))


def _product(e):
    """e[m-1] ... e[1] e[0] of a (m, 4, 4) stack by pairwise reduction."""
    while len(e) > 1:
        last = e[-1:] if len(e) % 2 else e[:0]
        e = np.concatenate([e[1::2] @ e[0:-1:2], last])
    return e[0]


def _prefix(e):
    """Running products e[j] ... e[0] of a (m, 4, 4) stack.

    The stack is cut into about sqrt(m) blocks; one batched product per
    position runs through all blocks at once, then each block is carried
    by the product of the blocks before it.
    """
    m = len(e)
    width = max(1, math.isqrt(m))
    blocks = -(-m // width)
    q = np.concatenate([e, np.broadcast_to(_EYE, (blocks * width - m, 4, 4))])
    q = q.reshape(blocks, width, 4, 4)
    for j in range(1, width):
        q[:, j] = q[:, j] @ q[:, j - 1]
    carry = np.empty((blocks, 4, 4))
    carry[0] = _EYE
    for i in range(1, blocks):
        carry[i] = q[i - 1, -1] @ carry[i - 1]
    return (q @ carry[:, None]).reshape(-1, 4, 4)[:m]


def _level(stepper, t_lo, t_hi, n, keep_nodes):
    """The propagator of [t_lo, t_hi] from n equal steps, and, with
    keep_nodes, the (n, 4, 4) propagators from t_lo to each step's end."""
    h = (t_hi - t_lo) / n
    total = _EYE
    nodes = []
    for start in range(0, n, _CHUNK):
        idx = np.arange(start, min(n, start + _CHUNK))
        e = stepper.steps(t_lo + h * idx, np.full(len(idx), h))
        if keep_nodes:
            nodes.append(_prefix(e) @ total)
            total = nodes[-1][-1]
        else:
            total = _product(e) @ total
    if not np.all(np.isfinite(total)):
        raise StepFailure("propagator overflow on [%g, %g]" % (t_lo, t_hi))
    return total, (np.concatenate(nodes) if keep_nodes else None)


def _segment(stepper, t_lo, t_hi, cfg, keep_nodes):
    """Refine the equal-step grid of one segment by doubling until the
    Richardson estimate meets the tolerance.

    Returns:
        (P, nodes, n): the segment propagator, the node propagators (or
        None) and the number of steps.
    """
    cap = _segment_max_step(stepper.params, t_lo, t_hi, cfg)
    n = max(1, math.ceil((t_hi - t_lo) / cap))
    if n > MAX_STEPS:
        raise StepFailure(
            "[%g, %g] needs more than %d steps" % (t_lo, t_hi, MAX_STEPS)
        )
    coarse, _ = _level(stepper, t_lo, t_hi, n, False)
    while 2 * n <= MAX_STEPS:
        n *= 2
        fine, nodes = _level(stepper, t_lo, t_hi, n, keep_nodes)
        err = np.max(np.abs(fine - coarse)) / 63.0
        if err <= cfg.atol + cfg.rtol * np.max(np.abs(fine)):
            return fine, nodes, n
        coarse = fine
    raise StepFailure(
        "no convergence on [%g, %g] within %d steps" % (t_lo, t_hi, MAX_STEPS)
    )


@dataclass(frozen=True)
class _StepGrid:
    """Step nodes of an integration: times (M + 1,), propagators
    (M + 1, 4, 4) from t_in, and the stepper for partial steps."""

    t: np.ndarray
    u: np.ndarray
    stepper: _MagnusStepper

    def at(self, ts):
        """Propagators at the times ts (inside [t[0], t[-1]]), each one
        partial step from the last node at or before it."""
        k = np.clip(np.searchsorted(self.t, ts, side="right") - 1, 0, len(self.t) - 1)
        out = np.empty((len(ts), 4, 4))
        for lo in range(0, len(ts), _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            e = self.stepper.steps(self.t[k[sl]], ts[sl] - self.t[k[sl]])
            out[sl] = e @ self.u[k[sl]]
        return out


class Trajectory:
    """Time-ordered propagator samples plus the series derived from them.

    Attributes:
        t: sample times (strictly increasing).
        propagator: (N, 4, 4) symplectic propagators from t_in.
        sigma: (N, 4, 4) covariance samples derived from the propagators.
        purity_s, purity_e: per-mode purities (propagator route).
        xi: coupling strength at each sample.
        step_t: times of the integrator's step nodes, between which every
            query is one smooth partial step.
    """

    def __init__(self, t, propagator, params, grid):
        self.t = np.asarray(t)
        self.propagator = np.asarray(propagator)
        self.params = params
        self._grid = grid
        self.step_t = grid.t
        self.sigma = sigma_from_propagator(self.propagator, params)
        self.purity_s = purity_from_propagator(self.propagator, params, "S")
        self.purity_e = purity_from_propagator(self.propagator, params, "E")
        self.xi = np.asarray(coupling_xi(self.t, params), dtype=float)

    @property
    def t_end(self):
        return float(self.t[-1])

    def propagator_at(self, t):
        """Propagator at an arbitrary time, or a (N, 4, 4) stack at an array
        of times: one partial Magnus step from the last step node at or
        before each time.

        Raises:
            ValueError: for a time outside the integrated window.
        """
        ts = np.asarray(t, dtype=float)
        nodes = self.step_t
        if np.any(ts < nodes[0] - 1e-12) or np.any(ts > nodes[-1] + 1e-12):
            raise ValueError("time %s outside trajectory range" % (t,))
        u = self._grid.at(ts.reshape(-1))
        return u[0] if ts.ndim == 0 else u.reshape(ts.shape + (4, 4))

    def sigma_at(self, t):
        """Covariance matrix at an arbitrary time, or a (N, 4, 4) stack at an
        array of times."""
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
    """End of the window: -t_in, or with the cutoff policy the first t >= t0
    where xi(t) falls to cutoff_threshold xi_c.

    The smooth profile is xi(t) = xi0 2 C / [(C + cosh(2 t/tau)) (1 +
    tanh^2(t0/tau))] with C = cosh(2 t0/tau), so the cutoff solves
    cosh(2 t/tau) = C R with R = 2 xi0 / (target (1 + tanh^2(t0/tau))) - 1.
    With L = ln(C R), t = (tau/2) arccosh(e^L) = (tau/2) (L + log1p(sqrt(1 -
    e^(-2L)))), which never forms C, so it holds where cosh(2 t0/tau)
    overflows.
    """
    if cfg.t_end_policy == "fixed":
        return -p.t_in
    if p.profile == ISOSO:
        return p.t0
    target = cfg.cutoff_threshold * p.xi_c
    x = 2.0 * p.t0 / p.tau
    log_c = x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)
    peak = 2.0 * p.xi0 / (1.0 + math.tanh(p.t0 / p.tau) ** 2)
    if peak <= 2.0 * target:  # R <= 1: xi(t0) is already at or below target
        return p.t0
    log_cr = log_c + math.log(peak - target) - math.log(target)
    arccosh = log_cr + math.log1p(math.sqrt(-math.expm1(-2.0 * log_cr)))
    return max(p.t0, 0.5 * p.tau * arccosh)


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


def _in_switch(p, t_lo, t_hi):
    """Whether the segment [t_lo, t_hi] of _segment_breakpoints lies in a
    switch region (+-t0 -+ 10 tau) of a smooth profile, where steps and
    quadrature panels are capped at tau / 20 to resolve the switch."""
    mid = 0.5 * (t_lo + t_hi)
    near = 10.0 * p.tau + 1e-12
    return p.profile == SMOOTH and (abs(mid + p.t0) <= near or abs(mid - p.t0) <= near)


def _segment_max_step(p, t_lo, t_hi, cfg):
    osc = 0.05 * 2.0 * np.pi / _omega2_peak(p)
    cap = min(osc, p.tau / 20.0) if _in_switch(p, t_lo, t_hi) else osc
    if cfg.max_step is not None:
        cap = min(cap, cfg.max_step)
    return cap


def _solve(p, cfg, t_end, keep_nodes):
    """Propagate U from t_in to t_end, one refined step grid per segment.

    Returns:
        (U(t_end), grid): grid is the _StepGrid of all step nodes with
        keep_nodes, else None.
    """
    stepper = _MagnusStepper(p)
    u = np.eye(4)
    times, props = [np.array([p.t_in])], [u[None]]
    breakpoints = _segment_breakpoints(p, p.t_in, t_end)
    for t_lo, t_hi in zip(breakpoints[:-1], breakpoints[1:]):
        seg, nodes, n = _segment(stepper, t_lo, t_hi, cfg, keep_nodes)
        if keep_nodes:
            times.append(t_lo + (t_hi - t_lo) / n * np.arange(1, n + 1))
            times[-1][-1] = t_hi
            props.append(nodes @ u)
            u = props[-1][-1]
        else:
            u = seg @ u
    if not keep_nodes:
        return u, None
    return u, _StepGrid(np.concatenate(times), np.concatenate(props), stepper)


def propagate(p, cfg=IntegratorConfig()):
    """Propagator U(t_end) over the scenario window, without samples.

    The end time follows cfg.t_end_policy as in integrate.

    Raises:
        StepFailure: if the step grid cannot meet the tolerances within the
            step budget, or the propagator overflows.
    """
    u, _ = _solve(p, cfg, _resolve_t_end(p, cfg), keep_nodes=False)
    return u


def integrate(p, cfg=IntegratorConfig()):
    """Integrate the transport equation over the scenario window.

    Args:
        p: ScenarioParams.
        cfg: IntegratorConfig.

    Returns:
        Trajectory sampled every cfg.sample_dt (or the default cadence),
        with arbitrary-time queries.

    Raises:
        StepFailure: if the step grid cannot meet the tolerances within the
            step budget, or the propagator overflows.
    """
    t_start = p.t_in
    t_end = _resolve_t_end(p, cfg)
    sample_dt = cfg.sample_dt if cfg.sample_dt is not None else default_sample_dt(p)
    _, grid = _solve(p, cfg, t_end, keep_nodes=True)
    n_samples = max(int(np.ceil((t_end - t_start) / sample_dt)) + 1, 2)
    ts = np.linspace(t_start, t_end, n_samples)
    return Trajectory(ts, grid.at(ts), p, grid)


def isoso_reference_run(p, cfg=IntegratorConfig()):
    """Integrate a smooth profile with tau = 1e-4 t0 (near-top-hat limit)."""
    p_ref = p.with_profile(SMOOTH, tau=1e-4 * p.t0)
    return integrate(p_ref, cfg)
