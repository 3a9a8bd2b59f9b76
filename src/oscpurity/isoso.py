"""Closed-form solution for the instantaneous switch-on/switch-off
(top-hat) coupling: Bogoliubov coefficients from continuity matching at the
window edge, the exact in-window purity, and the eight asymptotic regime
expansions of model.EXPANSIONS.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CriticalPoint, InvalidCaseWarning, PrecisionFloor
from .model import EXPANSION_NAMES, EXPANSIONS, classify_regime, frame_from_xi
from .symplectic import cauchy_binet

#: Guard band around the critical coupling.
NEAR_CRITICAL = 1e-8


@dataclass(frozen=True)
class BogoliubovSet:
    """Expansion of the in-window normal-mode operators (b1, b2, and their
    window conjugates) over the free-mode operators (a_S, a_E, a_S^dag,
    a_E^dag), referenced to the window start.

    Attributes:
        matrix: 4x4 complex map, rows (b1, b2, bbar1, bbar2), columns
            (a_S, a_E, a_S^dag, a_E^dag).
        delta_flag: 0 if omega1 is real (subcritical), 1 otherwise.
    """

    matrix: np.ndarray
    delta_flag: int

    def alpha(self, i, mode):
        """Coefficient of a_mode ('S' or 'E') in b_i (i = 1 or 2)."""
        return self.matrix[i - 1, 0 if mode == "S" else 1]

    def beta(self, i, mode):
        """Coefficient of a_mode^dag in b_i."""
        return self.matrix[i - 1, 2 if mode == "S" else 3]


def _frame_at_peak(p):
    if abs(p.psi - 1.0) < NEAR_CRITICAL:
        raise CriticalPoint(
            "coupling within the critical guard band; use the numeric integrator"
        )
    return frame_from_xi(p.xi0, p)


def bogoliubov_coeffs(p):
    """Bogoliubov coefficients from operator continuity at the window edge.

    Args:
        p: ScenarioParams (xi0 is the plateau coupling; t0 the half-window).

    Returns:
        BogoliubovSet.

    Raises:
        CriticalPoint: if xi0 is within the guard band of the critical value.
    """
    fr = _frame_at_peak(p)
    theta = fr.theta
    c, s = np.cos(theta), np.sin(theta)
    trig = {(1, "S"): c, (1, "E"): -s, (2, "S"): s, (2, "E"): c}
    mode_abs = {1: fr.omega1_abs, 2: fr.omega2}
    # (-i)^delta: relative phase between position and momentum quadratures
    # of an imaginary-frequency mode.
    phase = {1: (-1j) ** fr.delta_flag, 2: 1.0 + 0.0j}
    omega_free = {"S": p.omega_s, "E": p.omega_e}

    def coeff(i, mode, s_sign, m_sign):
        wi = mode_abs[i]
        wf = omega_free[mode]
        amp = np.sqrt(wi / wf) + s_sign * m_sign * phase[i] * np.sqrt(wf / wi)
        return 0.5 * trig[(i, mode)] * amp * np.exp(1j * s_sign * wf * p.t0)

    rows = [(1, +1), (2, +1), (1, -1), (2, -1)]  # (mode index, conjugation sign)
    cols = [("S", +1), ("E", +1), ("S", -1), ("E", -1)]
    m = np.array(
        [[coeff(i, mode, s_sign, m_sign) for mode, s_sign in cols] for i, m_sign in rows]
    )
    return BogoliubovSet(matrix=m, delta_flag=fr.delta_flag)


def _mode_vectors(dt, fr):
    """Coefficient vectors expressing x_S and p_S over v at the times dt
    since the window start (a float, or an array: (..., 4) results)."""
    z1 = fr.omega1_complex
    w1a, w2 = fr.omega1_abs, fr.omega2
    c, s = np.cos(fr.theta), np.sin(fr.theta)
    e1m = np.exp(-1j * z1 * dt) / np.sqrt(2.0 * w1a)
    e1p = np.exp(1j * z1 * dt) / np.sqrt(2.0 * w1a)
    e2m = np.exp(-1j * w2 * dt) / np.sqrt(2.0 * w2)
    e2p = np.exp(1j * w2 * dt) / np.sqrt(2.0 * w2)
    f = np.stack([c * e1m, s * e2m, c * e1p, s * e2p], axis=-1)
    g = np.stack(
        [-1j * z1 * c * e1m, -1j * w2 * s * e2m, 1j * z1 * c * e1p, 1j * w2 * s * e2p],
        axis=-1,
    )
    return f, g


def _quadrature_rows(t, p):
    """Complex expansions of x_S(t) and p_S(t) over (a_S, a_E, a_S^dag,
    a_E^dag) inside the window (t a float or an array), obtained by
    composing the in-window mode functions with the Bogoliubov map."""
    f, g = _mode_vectors(t + p.t0, _frame_at_peak(p))
    m = bogoliubov_coeffs(p).matrix
    return f @ m, g @ m


def _real_row(phi):
    """(Re, Im) of the a_S and a_E coefficients: the real quadrature factor."""
    a_s, a_e = phi[..., 0], phi[..., 1]
    return np.stack([a_s.real, a_s.imag, a_e.real, a_e.imag], axis=-1)


def isoso_purity(t, p):
    """Exact purity for the top-hat coupling profile.

    Before the window the state is the vacuum (purity 1); after the window
    the purity is frozen at its value at +t0.  The determinant is assembled
    as a Cauchy-Binet sum of squared minors of the real 2x4 quadrature
    factor, which avoids catastrophic cancellation deep in the supercritical
    phase.

    Args:
        t: time, or an array of times.
        p: ScenarioParams.

    Returns:
        A float for a scalar t, else an array of t's shape.

    Raises:
        CriticalPoint: if xi0 is within the guard band of the critical value.
        PrecisionFloor: if a purity is not finite (the mode functions
            overflow deep in the supercritical phase); the message names
            the first such time.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi_x, phi_p = _quadrature_rows(np.clip(t, -p.t0, p.t0), p)
        gam = 1.0 / np.sqrt(4.0 * cauchy_binet(_real_row(phi_x), _real_row(phi_p)))
    gam = np.where(t <= -p.t0, 1.0, gam)
    bad = ~np.isfinite(gam)
    if np.any(bad):
        raise PrecisionFloor(
            "top-hat purity is not finite at t = %r" % float(t.flat[np.argmax(bad)])
        )
    return float(gam) if gam.ndim == 0 else gam


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
        Expansion value(s); NaN where the expansion breaks down (the
        expression under the inverse square root turns non-positive).
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
    z1 = fr.omega1_complex
    w1a, w2 = fr.omega1_abs, fr.omega2
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
    if invert:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(val > 0.0, val ** -0.5, np.nan)
    else:
        out = val
    if out.ndim == 0:
        return float(out)
    return out
