"""Slow-switching (WKB-like) expansion of the purity: accumulated normal-
mode phases, leading-order purity, next-to-leading-order correction with
its two physical contributions, and late-time diagnostics.

The oscillatory memory integrals behind the NLO correction have the form
I(t) = Int_{t_in}^t f(t') cos[Phi(t) - Phi(t')] dt'.  Expanding the cosine
of the phase difference turns each of them into a cumulative moment
Int f(t') exp(i Phi(t')) dt' of a known integrand, with Phi a multiple or
sum of the phases W_i = Int omega_i.  The phases and the moments are plain
cumulative integrals, computed on Chebyshev panels with the spectral
integration matrix (Greengard, SIAM J. Numer. Anal. 28 (1991) 1071), and
every quantity here is evaluated on a whole array of times at once.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev

from .errors import (
    ConfigError,
    DerivativeUndefined,
    NoThreshold,
    PrecisionFloor,
    QuadratureNoConvergence,
    SupercriticalExcursion,
)
from .model import (
    ROUNDOFF,
    IntegratorConfig,
    ScenarioParams,
    coupling_xi,
    coupling_xi_dot,
    frame_from_xi,
    refine_panels,
    switch_segments,
)
from .transport import latetime_purity, node_purities

#: Purity deficits below this are beyond double-precision resolution.
DEFICIT_FLOOR = 1e-13

#: A switch rate recoheres when its late-time deficit is below this fraction
#: of the decoherence depth 1 - gamma_min.
RECOHERENCE_CRITERION = 0.01

#: Integrator settings of the threshold probes, which need deficits only to
#: one part in 1e-5 or so; like every solve, each probe covers the window
#: [t_in, -t_in].
THRESHOLD_CONFIG = IntegratorConfig(rtol=1e-7, atol=1e-9)


def _frame(t, p):
    """Normal-mode frame along the profile at t (float or array).

    Raises:
        ConfigError: if the switch is too fast for the frame's rates to stay
            finite: xi_dot reaches 2 xi0 / tau (from sech^2 terms up to
            1 / tau), which the frame multiplies by 2 xi0 and by
            omega_e^2 - omega_s^2.
        SupercriticalExcursion: if omega1^2 <= 0 at any of the times.
    """
    rate = 2.0 * max(1.0, p.xi0) / p.tau
    if not np.isfinite(rate * max(1.0, 2.0 * p.xi0, abs(p.omega_e**2 - p.omega_s**2))):
        raise ConfigError(
            "tau = %g switches too fast: the coupling's rate xi0 / tau overflows a float"
            % p.tau
        )
    fr = frame_from_xi(coupling_xi(t, p), p, coupling_xi_dot(t, p))
    bad = ~(fr.omega1_sq > 0)
    if np.any(bad):
        raise SupercriticalExcursion(
            "omega1^2 <= 0 at t = %g; the slow-switching expansion requires a "
            "subcritical profile" % np.asarray(t, dtype=float).flat[np.argmax(bad)]
        )
    return fr


# ---------------------------------------------------------------------------
# Chebyshev panels
# ---------------------------------------------------------------------------

#: Intervals of the fine rule; the coarse rule uses every other node.
_CHEB_N = 32

#: Chebyshev-Lobatto nodes -cos(pi j / N) on [-1, 1], ascending.
_NODES = -np.cos(np.pi * np.arange(_CHEB_N + 1) / _CHEB_N)


def _integration_matrix(x):
    """Matrix taking values at the Chebyshev-Lobatto nodes x to the integral
    from -1 to each node of their interpolating polynomial."""
    n = len(x) - 1
    coef = np.linalg.inv(chebyshev.chebvander(x, n))
    s = chebyshev.chebvander(x, n + 1) @ chebyshev.chebint(coef, lbnd=-1, axis=0)
    s[0] = 0.0  # the integral from -1 to -1, exactly
    return s


_FINE = _integration_matrix(_NODES)
_COARSE = _integration_matrix(_NODES[::2])

#: Barycentric weights of the Chebyshev-Lobatto nodes.
_BARY = (-1.0) ** np.arange(_CHEB_N + 1)
_BARY[[0, -1]] *= 0.5

#: A panel's fine/coarse gap must stay within ATOL |panel| / |span| + RTOL
#: Int_panel |integrand| in every channel.
RTOL = 1e-10
ATOL = 1e-12

#: Panels evaluated at once.  A block's temporaries (tens of kB each) stay
#: in the allocator's heap from one block and one call to the next, while
#: (K, N + 1) temporaries for all panels of a long window at once (K in the
#: hundreds or more) take megabytes that go back to the system after each
#: call and are page-faulted in again by the next, a kernel cost that varies
#: from run to run.
_BLOCK = 64

#: Phase of each moment channel as a combination of (W1, W2).
_CHANNEL_PHASES = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])


def _panels(lo, hi, p):
    """Phases and moments over each panel [lo, hi], each counted from its own
    start, evaluated _BLOCK panels at a time.

    Returns:
        (w, m, err, scale): w (K, N + 1, 2) the phases (W1, W2) and m
        (K, N + 1, 3) the moments Int f exp(i Phi) of (f, Phi) = (2 beta1,
        2 W1), (2 beta2, 2 W2) and (theta_dot (r + 1/r), W1 + W2) with
        r = sqrt(omega1/omega2), from the panel's start to its nodes; err
        (K, 5) the gap between the fine and coarse rules in each panel's
        increment of the five channels, and scale (K, 5) each panel's
        integral of the channel integrand's modulus.
    """
    k = len(lo)
    w = np.empty((k, _CHEB_N + 1, 2))
    m = np.empty((k, _CHEB_N + 1, 3), dtype=complex)
    err, scale = np.empty((k, 5)), np.empty((k, 5))
    for i in range(0, k, _BLOCK):
        j = slice(i, i + _BLOCK)
        w[j], m[j], err[j], scale[j] = _panel_block(lo[j], hi[j], p)
    return w, m, err, scale


def _panel_block(lo, hi, p):
    """_panels on one block of panels."""
    half = 0.5 * (hi - lo)[:, None, None]
    fr = _frame(0.5 * (lo + hi)[:, None] + half[..., 0] * _NODES, p)
    w1 = np.sqrt(fr.omega1_sq)
    ratio = np.sqrt(w1 / fr.omega2)

    def sums(g):
        """Integrals of g (K, N + 1, c) from the panel start to its nodes,
        and the panel's fine/coarse gap and modulus integral (K, c)."""
        local = half * (_FINE @ g)
        coarse = half[:, 0] * (_COARSE[-1] @ g[:, ::2])
        scale = half[:, 0] * (_FINE[-1] @ np.abs(g))
        return local, np.abs(local[:, -1] - coarse), scale

    w, w_err, w_scale = sums(np.stack([w1, fr.omega2], axis=-1))
    amp = np.stack(
        [2.0 * fr.beta1, 2.0 * fr.beta2, fr.theta_dot * (ratio + 1.0 / ratio)], axis=-1
    )
    m, m_err, m_scale = sums(amp * np.exp(1j * (w @ _CHANNEL_PHASES.T)))
    return w, m, np.hstack([w_err, m_err]), np.hstack([w_scale, m_scale])


def _chain(w, m):
    """Join panels laid end to end from t_in, in place: add to each panel's
    phases the totals of the panels before it, and rotate and shift its
    moments to match."""
    w_total = np.cumsum(w[:, -1], axis=0)
    w_start = np.concatenate([np.zeros((1, 2)), w_total[:-1]])
    m *= np.exp(1j * (w_start @ _CHANNEL_PHASES.T))[:, None]
    m_total = np.cumsum(m[:, -1], axis=0)
    m_start = np.concatenate([np.zeros((1, 3)), m_total[:-1]])
    w += w_start[:, None]
    m += m_start[:, None]


@dataclass
class PhaseAccumulator:
    """Accumulated phases and NLO moment integrals on the window [t_in, -t_in].

    W1/W2 are the integrals of the normal frequencies from t_in.  The three
    complex moment channels are the cumulative cosine/sine moments entering
    the memory integrals of the NLO correction.  Both are kept at the nodes
    of every Chebyshev panel and interpolated between them.
    """

    params: object
    edges: np.ndarray  # (K + 1,) panel edges from t_in to -t_in
    w: np.ndarray  # (K, N + 1, 2) phases at the panel nodes
    m: np.ndarray  # (K, N + 1, 3) complex moments at the panel nodes

    def _at(self, t, values):
        """Barycentric interpolation of node values (K, N + 1, c) at the
        times t, clipped to the window: an array of shape t.shape + (c,)."""
        t_in = self.params.t_in
        t = np.clip(np.asarray(t, dtype=float), t_in, -t_in)
        flat = t.reshape(-1)
        edges = self.edges
        k = np.clip(np.searchsorted(edges, flat, side="right") - 1, 0, len(edges) - 2)
        x = (2.0 * flat - edges[k] - edges[k + 1]) / (edges[k + 1] - edges[k])
        diff = x[:, None] - _NODES
        hit = diff == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            c = _BARY / diff
        c = np.where(hit.any(axis=1, keepdims=True), hit, c)
        out = np.einsum("qj,qjc->qc", c, values[k]) / c.sum(axis=1)[:, None]
        return out.reshape(t.shape + (values.shape[-1],))

    def phases(self, t):
        """(W1(t), W2(t)): floats for a float t, else arrays of t's shape."""
        w = self._at(t, self.w)
        return w[..., 0][()], w[..., 1][()]

    def memory_integrals(self, t):
        """(I_omega1, I_omega2, I_theta) at time t (float or array)."""
        phase = self._at(t, self.w) @ _CHANNEL_PHASES.T
        i = (np.exp(-1j * phase) * self._at(t, self.m)).real
        return i[..., 0][()], i[..., 1][()], i[..., 2][()]


def accumulate_phases(p):
    """Phases and moment integrals over the window [t_in, -t_in] by
    cumulative Chebyshev panel quadrature.

    The first panels are the steps of model.switch_segments with a cap of
    one period of the fastest channel, exp(2 i W2), and of tau, the scale on
    which the coupling changes, in the switch regions.  Each panel is
    integrated at 33 Chebyshev-Lobatto nodes and at every other one;
    model.refine_panels bisects a panel whose gap between the two exceeds,
    in any channel, ATOL |panel| / |span| + RTOL Int_panel |integrand|.

    Args:
        p: ScenarioParams (smooth subcritical profile).

    Returns:
        PhaseAccumulator.

    Raises:
        SupercriticalExcursion: if the coupling reaches the critical value.
        QuadratureNoConvergence: if the first panels already number more
            than model.MAX_PANELS, or a panel still fails its test where
            refine_panels stops.
    """
    if p.psi >= 1.0:
        raise SupercriticalExcursion(
            "peak coupling psi = %g >= 1; profile is not subcritical" % p.psi
        )
    # The fastest channel oscillates at 2 omega2 <= 2 omega2(peak).
    width = np.pi / p.omega2_peak
    segments = switch_segments(p, p.t_in, -p.t_in, width, switch_cap=p.tau)
    share = ATOL / (-2.0 * p.t_in)

    def rule(lo, hi):
        w, m, err, scale = _panels(lo, hi, p)
        ok = np.all(err <= share * (hi - lo)[:, None] + max(RTOL, ROUNDOFF) * scale, axis=1)
        return ok, (w, m)

    _, (lo, hi, _, converged, w, m) = refine_panels(segments, rule)
    if not np.all(converged):
        raise QuadratureNoConvergence(
            "phase quadrature did not converge on [%g, %g]" % (p.t_in, -p.t_in)
        )
    order = np.argsort(lo)
    w, m = w[order], m[order]
    _chain(w, m)
    return PhaseAccumulator(p, np.append(lo[order], hi[order][-1]), w, m)


def _lo(fr):
    w1 = np.sqrt(fr.omega1_sq)
    w2 = fr.omega2
    s2t = np.sin(2.0 * fr.theta)
    return 1.0 / np.sqrt(1.0 - 0.25 * s2t * s2t * (2.0 - w1 / w2 - w2 / w1))


def purity_adiabatic_lo(t, p):
    """Leading-order slow-switching purity at t (float or array).

    {1 - (sin^2 2theta / 4)(2 - w1/w2 - w2/w1)}^(-1/2); the inner bracket
    is non-positive, so the result never exceeds 1.
    """
    return _lo(_frame(t, p))


def _nlo_terms(t, fr, acc):
    w1 = np.sqrt(fr.omega1_sq)
    w2 = fr.omega2
    i_w1, i_w2, i_th = acc.memory_integrals(t)
    s2t = np.sin(2.0 * fr.theta)
    itilde_omega = 0.25 * s2t * (w2 / w1 - w1 / w2) * (i_w2 - i_w1)
    ratio = np.sqrt(w1 / w2)
    itilde_theta = (ratio + 1.0 / ratio) * i_th
    return itilde_omega, itilde_theta


def nlo_contributions(t, acc):
    """The two grouped NLO contributions (Itilde_omega, Itilde_theta) at t
    (float or array) of the scenario of acc, a PhaseAccumulator.

    Itilde_omega collects the frequency-modulation (particle-creation)
    channel; Itilde_theta the frame-rotation channel.
    """
    return _nlo_terms(t, _frame(t, acc.params), acc)


def purity_nlo_correction(t, acc):
    """Next-to-leading-order purity correction delta gamma^(1) at t (float
    or array) of the scenario of acc, a PhaseAccumulator."""
    fr = _frame(t, acc.params)
    itilde_omega, itilde_theta = _nlo_terms(t, fr, acc)
    return 0.5 * np.sin(2.0 * fr.theta) * _lo(fr) ** 3 * (itilde_omega - itilde_theta)


def loglog_slope(ratios, deficits):
    """Centered log-log slopes of a deficit series.

    Args:
        ratios: abscissa values (e.g. tau/t0), strictly increasing.
        deficits: positive ordinate values (e.g. 1 - gamma_inf).

    Returns:
        (mid_ratios, slopes, flags): slopes d ln(deficit)/d ln(ratio) at
        interior points; flags marks slopes touching a point below
        DEFICIT_FLOOR.

    Raises:
        DerivativeUndefined: fewer than three grid points.
    """
    ratios = np.asarray(ratios, dtype=float)
    deficits = np.asarray(deficits, dtype=float)
    if len(ratios) < 3:
        raise DerivativeUndefined("need at least three points for a centered slope")
    floored = deficits < DEFICIT_FLOOR
    logs = np.log(np.maximum(deficits, 1e-300))
    logr = np.log(ratios)
    slopes = (logs[2:] - logs[:-2]) / (logr[2:] - logr[:-2])
    flags = floored[2:] | floored[:-2] | floored[1:-1]
    return ratios[1:-1], slopes, flags


def nonanalyticity_slope(p, tau_grid, cfg=None):
    """Late-time deficit slope diagnostic over a switch-time grid.

    The scenarios at every tau of the grid are solved in one latetime_purity
    call, and gamma_inf and the deficit 1 - gamma_inf recorded; the returned
    series is the centered log-log slope of the deficit versus tau/t0.  A
    power law would plateau; a faster-than-any-power decay yields a strictly
    increasing slope magnitude.

    Raises:
        PrecisionFloor: if every deficit on the grid is below resolution.
    """
    if cfg is None:
        cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
    tau_grid = np.asarray(tau_grid, dtype=float)
    gamma_inf = latetime_purity([replace(p, tau=tau) for tau in tau_grid], cfg)
    deficits = 1.0 - gamma_inf
    mid, slopes, flags = loglog_slope(tau_grid / p.t0, deficits)
    if np.all(deficits < DEFICIT_FLOOR):
        raise PrecisionFloor("all purity deficits below double-precision resolution")
    return {
        "tau_over_t0": tau_grid / p.t0,
        "gamma_inf": gamma_inf,
        "deficit": deficits,
        "mid_tau_over_t0": mid,
        "slope": slopes,
        "flagged": flags,
    }


def recoherence_threshold_scan(p_base, tau_over_t0_grid, t_omega_bounds=(0.1, 30.0),
                               rel_resolution=0.01):
    """Largest resonance parameter still recohering, per switch rate.

    For each tau/t0, finds the largest T_omega = w_S/(w_E - w_S) for which
    the late-time deficit satisfies 1 - gamma_inf < RECOHERENCE_CRITERION *
    (1 - gamma_min), with gamma_min the smallest system purity over the step
    nodes of a THRESHOLD_CONFIG run, to a bracket [lo, hi] with hi / lo <=
    1 + rel_resolution; the threshold is sqrt(lo hi).  The coupling is kept at
    the base scenario's psi while omega_e follows T_omega.

    The first switch rate is bracketed by the bounds.  Each later one starts
    from two probes a factor just under sqrt(1 + rel_resolution) either side
    of the threshold predicted by the line through the last two thresholds
    (the first through the origin), which already meet the resolution when
    the test changes sign between them.  Otherwise the bracket widens
    geometrically towards the change of sign, the exponent doubling each
    time.  Every bracket is then bisected in log T_omega.  Like bisection,
    this assumes the test changes sign once in T_omega.  A starting
    bracket, the bounds or the predicted pair, probes its upper end only
    where its lower end holds.

    Returns:
        dict with per-point thresholds T_omega_thr and their final brackets
        T_omega_lo, T_omega_hi (the test holds at lo and fails at hi; hi is
        inf where it still holds at the upper bound, whose threshold is then
        lo), the least-squares line fit (slope, intercept, r_squared) of
        T_omega_thr versus tau/t0, and the number of probes (node_purities
        calls, each of a different T_omega).

    Raises:
        ConfigError: for fewer than two grid points, which the line fit needs,
            or bounds and resolution outside 0 < lower < upper and
            rel_resolution > 0, on which the search would not end.
        NoThreshold: if the criterion fails at the lower bound.
        StepFailure: if a probe the search needs cannot be integrated.
    """
    if len(tau_over_t0_grid) < 2:
        raise ConfigError("the threshold line fit needs at least two tau/t0 points")
    lo_b, hi_b = t_omega_bounds
    if not (0.0 < lo_b < hi_b and rel_resolution > 0.0):
        raise ConfigError(
            "the threshold scan needs 0 < lower < upper bound and rel_resolution > 0"
        )
    psi = p_base.psi
    # Just under sqrt(1 + rel_resolution), so that round-off cannot leave the
    # first bracket wider than the resolution.
    half_width = np.sqrt(1.0 + rel_resolution) * (1.0 - 1e-12)
    results = []
    probes = 0
    for ratio in tau_over_t0_grid:
        tau = ratio * p_base.t0

        def recoheres(t_omega):
            # The test at one T_omega: one node_purities call.
            nonlocal probes
            probes += 1
            g = node_purities(
                ScenarioParams.from_psi(
                    p_base.omega_s, p_base.omega_s * (1.0 + 1.0 / t_omega), psi, p_base.t0,
                    tau, p_base.profile,
                ),
                THRESHOLD_CONFIG,
            )
            return (1.0 - g[-1]) < RECOHERENCE_CRITERION * (1.0 - np.min(g))

        if results:
            # On the line through the last two thresholds, the first one's
            # through the origin.
            (r1, t1), (r2, t2) = [r[:2] for r in ([(0.0, 0.0)] + results)[-2:]]
            pred = t2 + (t2 - t1) * (ratio - r2) / (r2 - r1) if r2 != r1 else t2
            pred = min(max(pred, lo_b), hi_b)
            lo, hi = max(lo_b, pred / half_width), min(hi_b, pred * half_width)
        else:
            lo, hi = lo_b, hi_b
        step = hi / lo
        lo_holds = recoheres(lo)
        hi_holds = lo_holds and recoheres(hi)
        # Widen towards the change of sign: down while the lower end fails,
        # up while the upper end holds.
        while (lo > lo_b) if not lo_holds else (hi_holds and hi < hi_b):
            step *= step
            if lo_holds:
                lo, hi = hi, min(hi_b, hi * step)
                hi_holds = recoheres(hi)
            else:
                lo, hi, hi_holds = max(lo_b, lo / step), lo, False
                lo_holds = recoheres(lo)
        if not lo_holds:
            raise NoThreshold("criterion never met at tau/t0 = %g on the given bounds" % ratio)
        if hi_holds:
            results.append((ratio, hi, hi, np.inf))
            continue
        while hi / lo > 1.0 + rel_resolution:
            mid = np.sqrt(lo * hi)
            if recoheres(mid):
                lo = mid
            else:
                hi = mid
        results.append((ratio, float(np.sqrt(lo * hi)), lo, hi))

    ratios, thrs, lows, highs = (np.array(v, dtype=float) for v in zip(*results))
    slope, intercept = np.polyfit(ratios, thrs, 1)
    fitted = slope * ratios + intercept
    ss_res = float(np.sum((thrs - fitted) ** 2))
    ss_tot = float(np.sum((thrs - np.mean(thrs)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "tau_over_t0": ratios,
        "T_omega_thr": thrs,
        "T_omega_lo": lows,
        "T_omega_hi": highs,
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": r_squared,
        "probes": probes,
    }
