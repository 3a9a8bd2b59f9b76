"""Slow-switching (WKB-like) expansion of the purity: accumulated normal-
mode phases, leading-order purity, next-to-leading-order correction with
its two physical contributions, and late-time diagnostics.

The oscillatory memory integrals behind the NLO correction have the form
I(t) = Int_{t_in}^t f(t') cos[Phi(t) - Phi(t')] dt'.  They are evaluated by
expanding the cosine of the phase difference, which turns each of them into
cumulative cosine/sine moments of f -- these are integrated as one coupled
ODE system alongside the phases themselves, with a step cap that resolves
the fastest oscillation.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    DerivativeUndefined,
    PrecisionFloor,
    StepFailure,
    SupercriticalExcursion,
)
from .model import coupling_xi, coupling_xi_dot, frame_from_xi
from .transport import IntegratorConfig, integrate, propagate, purity_from_propagator

#: Purity deficits below this are beyond double-precision resolution.
DEFICIT_FLOOR = 1e-13


def _frame(t, p):
    xi = float(coupling_xi(t, p))
    xi_dot = float(coupling_xi_dot(t, p))
    fr = frame_from_xi(xi, p, xi_dot)
    if fr.omega1_sq <= 0:
        raise SupercriticalExcursion(
            "omega1^2 <= 0 at t = %g; the slow-switching expansion requires a "
            "subcritical profile" % t
        )
    return fr


@dataclass
class PhaseAccumulator:
    """Accumulated phases and NLO moment integrals on [t_in, t_end].

    W1/W2 are the integrals of the normal frequencies from t_in.  The six
    moment channels are the cumulative cosine/sine moments entering the
    memory integrals of the NLO correction.
    """

    params: object
    t_end: float
    _sol: object

    def _y(self, t):
        t = float(np.clip(t, self.params.t_in, self.t_end))
        return self._sol(t)

    def phases(self, t):
        """(W1(t), W2(t))."""
        y = self._y(t)
        return float(y[0]), float(y[1])

    def memory_integrals(self, t):
        """(I_omega1, I_omega2, I_theta) at time t."""
        y = self._y(t)
        w1, w2 = y[0], y[1]
        i_w1 = np.cos(2 * w1) * y[2] + np.sin(2 * w1) * y[3]
        i_w2 = np.cos(2 * w2) * y[4] + np.sin(2 * w2) * y[5]
        phase = w1 + w2
        i_th = np.cos(phase) * y[6] + np.sin(phase) * y[7]
        return float(i_w1), float(i_w2), float(i_th)


def accumulate_phases(p, t_end=None, rtol=1e-10, atol=1e-12):
    """Integrate the phase/moment system over [t_in, t_end].

    Args:
        p: ScenarioParams (smooth subcritical profile).
        t_end: final time (default -t_in).
        rtol, atol: solver tolerances.

    Returns:
        PhaseAccumulator.

    Raises:
        SupercriticalExcursion: if the coupling reaches the critical value.
    """
    if p.psi >= 1.0:
        raise SupercriticalExcursion(
            "peak coupling psi = %g >= 1; profile is not subcritical" % p.psi
        )
    if t_end is None:
        t_end = -p.t_in

    def rhs(t, y):
        fr = _frame(t, p)
        w1 = np.sqrt(fr.omega1_sq)
        w2 = fr.omega2
        f1 = 2.0 * fr.beta1
        f2 = 2.0 * fr.beta2
        ratio = np.sqrt(w1 / w2)
        f_th = fr.theta_dot * (ratio + 1.0 / ratio)
        phase = y[0] + y[1]
        return [
            w1,
            w2,
            f1 * np.cos(2 * y[0]),
            f1 * np.sin(2 * y[0]),
            f2 * np.cos(2 * y[1]),
            f2 * np.sin(2 * y[1]),
            f_th * np.cos(phase),
            f_th * np.sin(phase),
        ]

    # Resolve the fastest oscillation: the moment channels oscillate at
    # 2 W2-dot <= 2 omega2(peak); cap panels at an eighth of that period.
    w2_peak = frame_from_xi(p.xi0, p).omega2
    max_step = (2.0 * np.pi / w2_peak) / 8.0
    sol = solve_ivp(
        rhs,
        (p.t_in, t_end),
        np.zeros(8),
        method="RK45",
        rtol=rtol,
        atol=atol,
        max_step=max_step,
        dense_output=True,
    )
    if not sol.success:
        raise StepFailure("phase accumulation failed: %s" % sol.message)
    return PhaseAccumulator(p, float(t_end), sol.sol)


def purity_adiabatic_lo(t, p):
    """Leading-order slow-switching purity.

    {1 - (sin^2 2theta / 4)(2 - w1/w2 - w2/w1)}^(-1/2); the inner bracket
    is non-positive, so the result never exceeds 1.
    """
    fr = _frame(t, p)
    w1 = np.sqrt(fr.omega1_sq)
    w2 = fr.omega2
    s2t = np.sin(2.0 * fr.theta)
    val = 1.0 - 0.25 * s2t * s2t * (2.0 - w1 / w2 - w2 / w1)
    return 1.0 / np.sqrt(val)


def nlo_contributions(t, p, acc=None):
    """The two grouped NLO contributions (Itilde_omega, Itilde_theta).

    Itilde_omega collects the frequency-modulation (particle-creation)
    channel; Itilde_theta the frame-rotation channel.
    """
    if acc is None:
        acc = accumulate_phases(p, t_end=t)
    fr = _frame(t, p)
    w1 = np.sqrt(fr.omega1_sq)
    w2 = fr.omega2
    i_w1, i_w2, i_th = acc.memory_integrals(t)
    s2t = np.sin(2.0 * fr.theta)
    itilde_omega = 0.25 * s2t * (w2 / w1 - w1 / w2) * (i_w2 - i_w1)
    ratio = np.sqrt(w1 / w2)
    itilde_theta = (ratio + 1.0 / ratio) * i_th
    return itilde_omega, itilde_theta


def purity_nlo_correction(t, p, acc=None):
    """Next-to-leading-order purity correction delta gamma^(1)."""
    if acc is None:
        acc = accumulate_phases(p, t_end=t)
    fr = _frame(t, p)
    s2t = np.sin(2.0 * fr.theta)
    gamma0 = purity_adiabatic_lo(t, p)
    itilde_omega, itilde_theta = nlo_contributions(t, p, acc)
    return 0.5 * s2t * gamma0**3 * (itilde_omega - itilde_theta)


def latetime_purity(p, cfg: Optional[IntegratorConfig] = None):
    """Frozen late-time purity from the exact integrator.

    Propagates to the coupling-cutoff end point (threshold 1e-10 by
    default), without samples, and returns the purity there.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    u = propagate(p, cfg.with_updates(t_end_policy="cutoff"))
    return float(purity_from_propagator(u, p))


def loglog_slope(ratios, deficits, floor=DEFICIT_FLOOR):
    """Centered log-log slopes of a deficit series.

    Args:
        ratios: abscissa values (e.g. tau/t0), strictly increasing.
        deficits: positive ordinate values (e.g. 1 - gamma_inf).
        floor: resolution floor; points below it are flagged.

    Returns:
        (mid_ratios, slopes, flags): slopes d ln(deficit)/d ln(ratio) at
        interior points; flags marks slopes touching a floored point.

    Raises:
        DerivativeUndefined: fewer than three grid points.
    """
    ratios = np.asarray(ratios, dtype=float)
    deficits = np.asarray(deficits, dtype=float)
    if len(ratios) < 3:
        raise DerivativeUndefined("need at least three points for a centered slope")
    floored = deficits < floor
    logs = np.log(np.maximum(deficits, 1e-300))
    logr = np.log(ratios)
    slopes = (logs[2:] - logs[:-2]) / (logr[2:] - logr[:-2])
    flags = floored[2:] | floored[:-2] | floored[1:-1]
    return ratios[1:-1], slopes, flags


def nonanalyticity_slope(p, tau_grid, cfg: Optional[IntegratorConfig] = None):
    """Late-time deficit slope diagnostic over a switch-time grid.

    For each tau, the scenario is rerun and 1 - gamma_inf recorded; the
    returned series is the centered log-log slope versus tau/t0.  A power
    law would plateau; a faster-than-any-power decay yields a strictly
    increasing slope magnitude.

    Raises:
        PrecisionFloor: if every deficit on the grid is below resolution.
    """
    if cfg is None:
        cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
    tau_grid = np.asarray(tau_grid, dtype=float)
    deficits = np.array(
        [1.0 - latetime_purity(p.with_tau(tau), cfg) for tau in tau_grid]
    )
    mid, slopes, flags = loglog_slope(tau_grid / p.t0, deficits)
    if np.all(deficits < DEFICIT_FLOOR):
        raise PrecisionFloor("all purity deficits below double-precision resolution")
    return {
        "tau_over_t0": tau_grid / p.t0,
        "deficit": deficits,
        "mid_tau_over_t0": mid,
        "slope": slopes,
        "flagged": flags,
    }


def recoherence_threshold_scan(
    p_base,
    tau_over_t0_grid,
    t_omega_bounds=(0.1, 30.0),
    criterion=0.01,
    cfg: Optional[IntegratorConfig] = None,
    rel_resolution=0.01,
):
    """Largest resonance parameter still recohering, per switch rate.

    For each tau/t0, finds the largest T_omega = w_S/(w_E - w_S) for which
    the late-time deficit satisfies 1 - gamma_inf < criterion *
    (1 - gamma_min), by bisection in log T_omega to 1% resolution.  The
    coupling is kept at the base scenario's psi while omega_e follows
    T_omega.

    Returns:
        dict with per-point thresholds and the least-squares line fit
        (slope, intercept, r_squared) of T_omega_thr versus tau/t0.
    """
    from .errors import NoThreshold

    if cfg is None:
        # The threshold only needs deficits to one part in 1e-5 or so.
        cfg = IntegratorConfig(rtol=1e-7, atol=1e-9, t_end_policy="cutoff")
    psi = p_base.psi
    results = []
    prev_thr = None
    for ratio in tau_over_t0_grid:
        tau = ratio * p_base.t0

        def recoheres(t_omega):
            omega_e = p_base.omega_s * (1.0 + 1.0 / t_omega)
            from .model import ScenarioParams

            p = ScenarioParams.from_psi(
                p_base.omega_s, omega_e, psi, p_base.t0, tau, p_base.profile
            )
            traj = integrate(p, cfg)
            gamma_min = float(np.min(traj.purity_s))
            gamma_inf = float(traj.purity_s[-1])
            return (1.0 - gamma_inf) < criterion * (1.0 - gamma_min)

        lo_b, hi_b = t_omega_bounds
        # Warm-start the bracket from the previous threshold (thresholds
        # grow monotonically with the switch rate ratio).
        lo = max(lo_b, prev_thr / 2.0) if prev_thr is not None else lo_b
        hi = min(hi_b, prev_thr * 4.0) if prev_thr is not None else hi_b
        while not recoheres(lo):
            if lo <= lo_b:
                raise NoThreshold(
                    "criterion never met at tau/t0 = %g on the given bounds" % ratio
                )
            lo = max(lo_b, lo / 4.0)
        recohering = recoheres(hi)
        while recohering and hi < hi_b:
            hi = min(hi_b, hi * 4.0)
            recohering = recoheres(hi)
        if recohering:
            prev_thr = hi
            results.append((ratio, hi))
            continue
        while hi / lo > 1.0 + rel_resolution:
            mid = np.sqrt(lo * hi)
            if recoheres(mid):
                lo = mid
            else:
                hi = mid
        prev_thr = float(np.sqrt(lo * hi))
        results.append((ratio, prev_thr))

    ratios = np.array([r for r, _ in results])
    thrs = np.array([t for _, t in results])
    slope, intercept = np.polyfit(ratios, thrs, 1)
    fitted = slope * ratios + intercept
    ss_res = float(np.sum((thrs - fitted) ** 2))
    ss_tot = float(np.sum((thrs - np.mean(thrs)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "tau_over_t0": ratios,
        "T_omega_thr": thrs,
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": r_squared,
    }
