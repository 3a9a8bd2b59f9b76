"""Closed-form solution for the instantaneous switch-on/switch-off
(top-hat) coupling: the exact in-window propagator (rotate into the normal
modes at the plateau coupling, evolve each with its 2x2 cos/cosh block,
rotate back), the purity it gives, and the eight asymptotic regime
expansions of model.EXPANSIONS.
"""

import warnings

import numpy as np

from .errors import CriticalPoint, InvalidCaseWarning, PrecisionFloor
from .model import EXPANSION_NAMES, EXPANSIONS, classify_regime, frame_from_xi, vacuum_root
from .symplectic import cauchy_binet

#: Guard band around the critical coupling.
NEAR_CRITICAL = 1e-8


def _frame_at_peak(p):
    if abs(p.psi - 1.0) < NEAR_CRITICAL:
        raise CriticalPoint(
            "coupling within the critical guard band; use the numeric integrator"
        )
    return frame_from_xi(p.xi0, p)


def _mode_block(w_sq, dt):
    """Entries (C, S, -w^2 S) of the normal-mode block M = [[C, S], [-w^2 S,
    C]]: (cos w dt, sin(w dt)/w), or (cosh k dt, sinh(k dt)/k) for w^2 =
    -k^2 < 0."""
    w_abs = np.sqrt(np.abs(w_sq))
    if w_sq < 0.0:
        c, s = np.cosh(w_abs * dt), np.sinh(w_abs * dt) / w_abs
    else:
        c, s = np.cos(w_abs * dt), np.sin(w_abs * dt) / w_abs
    return c, s, -w_sq * s


def _system_rows(t, p):
    """The x_S and p_S rows of L = U diag(sqrt(vacuum)) inside the window (t
    a float or an array: (..., 4) rows), so that sigma_S = L_S L_S^T.

    With c, s = cos theta, sin theta of the peak frame and M_i the block of
    normal mode i, the system rows of the propagator U from -t0 are
    [c^2 M1 + s^2 M2 | cs (M2 - M1)] over (x_S, p_S | x_E, p_E).
    """
    fr = _frame_at_peak(p)
    dt = t + p.t0
    c1, s1, r1 = _mode_block(fr.omega1_sq, dt)
    c2, s2, r2 = _mode_block(fr.omega2_sq, dt)
    c, s = np.cos(fr.theta), np.sin(fr.theta)
    cc, ss, cs = c * c, s * s, c * s
    diag, mix = cc * c1 + ss * c2, cs * (c2 - c1)
    x_row = np.stack([diag, cc * s1 + ss * s2, mix, cs * (s2 - s1)], axis=-1)
    p_row = np.stack([cc * r1 + ss * r2, diag, cs * (r2 - r1), mix], axis=-1)
    vac = vacuum_root(p)
    return x_row * vac, p_row * vac


def isoso_purity(t, p):
    """Exact purity for the top-hat coupling profile.

    Before the window the state is the vacuum (purity 1); after the window
    the purity is frozen at its value at +t0.  Inside it, det sigma_S is
    the Cauchy-Binet sum of squared minors of the two real system rows,
    free of the cancellation of a.a b.b - (a.b)^2 deep in the
    supercritical phase.

    Args:
        t: time, or an array of times.
        p: ScenarioParams.

    Returns:
        An array of t's shape.

    Raises:
        CriticalPoint: if xi0 is within the guard band of the critical value.
        PrecisionFloor: if a purity is not finite (the cosh blocks overflow
            deep in the supercritical phase); the message names the first
            such time.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x_row, p_row = _system_rows(np.clip(t, -p.t0, p.t0), p)
        gam = 1.0 / np.sqrt(cauchy_binet(x_row, p_row))
    gam = np.where(t <= -p.t0, 1.0, gam)
    bad = ~np.isfinite(gam)
    if np.any(bad):
        raise PrecisionFloor(
            "top-hat purity is not finite at t = %r" % float(t.flat[np.argmax(bad)])
        )
    return gam


# ---------------------------------------------------------------------------
# Regime expansions
# ---------------------------------------------------------------------------


def regime_purity(case, dt, p):
    """Asymptotic in-window purity for one of the eight regimes.

    The exact normal frequencies are used (they are not re-expanded); the
    hyperbolic branch engages automatically above the critical coupling via
    the complex omega1 bookkeeping.

    Args:
        case: a key of EXPANSION_NAMES ("U1", ..., "O2", or "C1plus" etc.).
        dt: time since the window start, t + t0 (scalar or array, >= 0).
        p: ScenarioParams.

    Returns:
        Expansion values, an array of dt's shape; NaN where the expansion
        breaks down (the expression under the inverse square root turns
        non-positive).
    """
    if case not in EXPANSION_NAMES:
        raise ValueError("unknown expansion case %r" % (case,))
    case = EXPANSION_NAMES[case]
    label = classify_regime(p.w, p.psi).label
    if label not in EXPANSIONS[case]:
        warnings.warn(
            "parameters classify as %s, outside the %s domain" % (label, case),
            InvalidCaseWarning,
            stacklevel=2,
        )
    fr = _frame_at_peak(p)
    dt = np.asarray(dt, dtype=float)
    z1 = np.emath.sqrt(fr.omega1_sq)
    w1a, w2 = abs(z1), fr.omega2
    w, psi = p.w, p.psi
    dpsi = complex(1.0 - psi)

    if case == "U1":
        val = 1.0 - 2.0 * w * psi**2 * np.sin(0.5 * (z1 + w2) * dt) ** 2
        return _finalize(val, invert=False)
    if case == "U2a":
        val = 1.0 - (psi**2 / 16.0) * (
            3.0
            - 2.0 * np.cos(2.0 * z1 * dt)
            - 2.0 * np.cos(2.0 * w2 * dt)
            + np.cos(2.0 * (w2 - z1) * dt)
        )
        return _finalize(val, invert=False)
    if case == "U2b":
        val = 1.0 - (psi**2 / 2.0) * np.sin(0.5 * (z1 + w2) * dt) ** 2
        return _finalize(val, invert=False)
    if case == "C1":
        sq = np.sqrt(dpsi)
        val = (
            1.0
            + (w / (2.0 * dpsi)) * np.sin(z1 * dt) ** 2
            + np.sqrt(2.0) * (w / sq) * np.sin(z1 * dt) * np.sin(w2 * dt)
            + (w / 8.0)
            * (
                9.0
                + 7.0 * np.cos(2.0 * z1 * dt)
                - 16.0 * np.cos(z1 * dt) * np.cos(w2 * dt)
            )
        )
        return _finalize(val, invert=True)
    if case == "C2":
        val = (
            (1.0 / (8.0 * dpsi))
            * np.sin(z1 * dt) ** 2
            * (3.0 - np.cos(2.0 * w2 * dt))
            + (1.0 / (8.0 * np.sqrt(2.0 * dpsi)))
            * np.sin(2.0 * z1 * dt)
            * np.sin(2.0 * w2 * dt)
            + (
                23.0
                + np.cos(2.0 * z1 * dt) * (11.0 - 3.0 * np.cos(2.0 * w2 * dt))
                + np.cos(2.0 * w2 * dt)
            )
            / 32.0
        )
        return _finalize(val, invert=True)
    if case == "O1a":
        val = 1.0 + w * psi**2 * (
            0.5 * np.cosh(2.0 * w1a * dt)
            - 2.0 * np.cosh(w1a * dt) * np.cos(w2 * dt)
            + 1.5
        )
        return _finalize(val, invert=True)
    if case == "O1b":
        ch2, sh2 = np.cosh(2.0 * w1a * dt), np.sinh(2.0 * w1a * dt)
        ch1, sh1 = np.cosh(w1a * dt), np.sinh(w1a * dt)
        c2, s2 = np.cos(2.0 * w2 * dt), np.sin(2.0 * w2 * dt)
        c1, s1 = np.cos(w2 * dt), np.sin(w2 * dt)
        val = (
            (psi / 8.0) * (ch2 + sh2 * s2 - c2)
            + (1.0 / (16.0 * w)) * (ch2 - 2.0 * ch2 * c2 + c2)
            + (1.0 / 8.0) * (5.0 + c2 + 2.0 * ch2 * c1**2)
            + (1.0 / (128.0 * psi * w**2))
            * (3.0 * c2 - 3.0 * ch2 + 32.0 * sh1 * s1 - 13.0 * sh2 * s2)
        )
        return _finalize(val, invert=True)
    # O2
    ch2, sh2 = np.cosh(2.0 * w1a * dt), np.sinh(2.0 * w1a * dt)
    c2, s2 = np.cos(2.0 * w2 * dt), np.sin(2.0 * w2 * dt)
    val = (psi / 8.0) * (ch2 + sh2 * s2 - c2) + (1.0 / 8.0) * (
        5.0 + 2.0 * c2 + ch2 * (2.0 - c2)
    )
    return _finalize(val, invert=True)


def _finalize(val, invert):
    val = np.real(np.asarray(val))
    if not invert:
        return val
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(val > 0.0, val ** -0.5, np.nan)
