"""Scenario parameters, the coupling profile, the rotated (normal-mode)
frame, criticality/perturbativity measures, and regime classification.
"""

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, CriticalPoint, DerivativeUndefined, QuadratureNoConvergence

SMOOTH = "smooth"
ISOSO = "isoso"

#: Guard for the exactly-critical coupling in closed-form frames.
CRITICAL_GUARD = 1e-12

#: Step budget per integrator segment (refining past it is a StepFailure),
#: and the budget of every count an input asks for: samples, sweep points,
#: phase-diagram cells.
MAX_STEPS = 1 << 20


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioParams:
    """Immutable scenario definition.

    Args:
        omega_s: system frequency (> 0).
        omega_e: environment frequency (> 0).
        xi0: peak coupling strength (frequency^2).
        t0: half-duration of the interaction plateau.
        tau: switch time scale (ignored for the top-hat profile).
        profile: "smooth" or "isoso" (instantaneous switch-on/off top-hat).
    """

    omega_s: float
    omega_e: float
    xi0: float
    t0: float
    tau: float = 1.0
    profile: str = SMOOTH

    def __post_init__(self):
        for name in ("omega_s", "omega_e", "xi0", "t0", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError("%s must be finite" % name)
        if self.omega_s <= 0 or self.omega_e <= 0:
            raise ConfigError("frequencies must be positive")
        if self.t0 <= 0:
            raise ConfigError("t0 must be positive")
        if self.profile not in (SMOOTH, ISOSO):
            raise ConfigError("unknown profile %r" % (self.profile,))
        if self.profile == SMOOTH and self.tau <= 0:
            raise ConfigError("tau must be positive for the smooth profile")
        if self.xi0 < 0:
            raise ConfigError("xi0 must be non-negative")
        # The normal-mode frequencies at peak coupling, and every Magnus
        # exponent, are formed from these squares: none may overflow, and
        # none of omega_s^2, omega_e^2, xi_c^2 may underflow.
        ws2, we2 = self.omega_s * self.omega_s, self.omega_e * self.omega_e
        d = we2 - ws2
        for name, value in (
            ("omega_s^2", ws2),
            ("omega_e^2", we2),
            ("omega_s^2 + omega_e^2", ws2 + we2),
            ("(omega_e^2 - omega_s^2)^2 + 4 xi0^2", d * d + 4.0 * self.xi0 * self.xi0),
        ):
            if not math.isfinite(value):
                raise ConfigError("%s overflows a float at these parameters" % name)
        for name, value in (("omega_s^2", ws2), ("omega_e^2", we2), ("xi_c^2", ws2 * we2)):
            if value < np.finfo(float).tiny:
                raise ConfigError("%s underflows a float at these parameters" % name)
        if not math.isfinite(2.0 * self.t_in):
            raise ConfigError(
                "the window [%g, %g] is too long: its length overflows a float"
                % (self.t_in, -self.t_in)
            )
        if self.profile == SMOOTH and self.t_in == -self.t0:
            raise ConfigError(
                "tau = %g vanishes next to t0 = %g: the window [t_in, -t_in] would "
                "end inside the switch" % (self.tau, self.t0)
            )

    @classmethod
    def from_psi(cls, omega_s, omega_e, psi, t0, tau=1.0, profile=SMOOTH):
        """Build params from the dimensionless coupling psi = xi0/xi_c."""
        return cls(omega_s, omega_e, psi * omega_s * omega_e, t0, tau, profile)

    @property
    def xi_c(self):
        """Critical coupling omega_s * omega_e."""
        return self.omega_s * self.omega_e

    @property
    def psi(self):
        """Dimensionless coupling xi0/xi_c."""
        return self.xi0 / self.xi_c

    @property
    def w(self):
        """Frequency ratio omega_s/omega_e."""
        return self.omega_s / self.omega_e

    @property
    def t_in(self):
        """Initial time: -t0 - 20 tau (smooth) or -t0 (top-hat)."""
        if self.profile == SMOOTH:
            return -self.t0 - 20.0 * self.tau
        return -self.t0

    @property
    def omega2_peak(self):
        """Upper normal frequency at the peak coupling xi0, a Python float."""
        return float(np.sqrt(normal_mode_sq(self.xi0, self)[1]))


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration controls; every solve covers the window [t_in, -t_in].

    Attributes:
        rtol, atol: bound on the Richardson error estimate of each
            segment's propagator, atol + rtol |U| in max-abs norm.
        sample_dt: output cadence (default (2 pi/omega2)/40 at peak coupling).

    Raises:
        ConfigError: on a non-positive or non-finite tolerance or cadence.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    sample_dt: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.rtol) and self.rtol > 0):
            raise ConfigError("rtol must be positive and finite")
        if not (math.isfinite(self.atol) and self.atol >= 0):
            raise ConfigError("atol must be non-negative and finite")
        dt = self.sample_dt
        if dt is not None and not (math.isfinite(dt) and dt > 0):
            raise ConfigError("sample_dt must be positive and finite")


# ---------------------------------------------------------------------------
# Coupling profile
# ---------------------------------------------------------------------------


def coupling_xi(t, p):
    """Coupling strength xi(t).

    Smooth profile: xi0 [1 + tanh((t0+t)/tau) tanh((t0-t)/tau)] /
    (1 + tanh^2(t0/tau)).  Top-hat: xi0 on (-t0, t0), else 0.

    Both are even bit for bit: t -> -t only swaps the two tanh factors (or
    the two bounds).  transport relies on it when it mirrors the propagator
    of t >= 0 onto t < 0.

    Args:
        t: time (float or array).
        p: ScenarioParams.

    Returns:
        xi(t), an array of t's shape.
    """
    t = np.asarray(t, dtype=float)
    if p.profile == ISOSO:
        return np.where((t > -p.t0) & (t < p.t0), p.xi0, 0.0)
    a = np.tanh((p.t0 + t) / p.tau)
    b = np.tanh((p.t0 - t) / p.tau)
    return p.xi0 * (1.0 + a * b) / (1.0 + math.tanh(p.t0 / p.tau) ** 2)


def coupling_xi_dot(t, p):
    """Time derivative of the smooth coupling profile.

    Raises:
        DerivativeUndefined: for the top-hat profile.
    """
    if p.profile == ISOSO:
        raise DerivativeUndefined("the top-hat profile has no classical derivative")
    t = np.asarray(t, dtype=float)
    u = (p.t0 + t) / p.tau
    v = (p.t0 - t) / p.tau
    # 1 - tanh^2 = sech^2 = 4 e / (1 + e)^2 with e = exp(-2|u|), which keeps
    # its relative accuracy in the tails, where 1 - tanh^2 is pure round-off.
    eu, ev = np.exp(-2.0 * np.abs(u)), np.exp(-2.0 * np.abs(v))
    da = 4.0 * eu / ((1.0 + eu) ** 2 * p.tau)
    db = -4.0 * ev / ((1.0 + ev) ** 2 * p.tau)
    return p.xi0 * (da * np.tanh(v) + np.tanh(u) * db) / (1.0 + np.tanh(p.t0 / p.tau) ** 2)


def switch_segments(p, t_start, t_end, cap, *, switch_cap):
    """Split [t_start, t_end] at the profile's features into segments of
    equal steps: the one grid rule of the integrator and both quadratures.

    The top-hat window breaks at +-t0.  The smooth one breaks at the edges
    +-t0 -+ 10 tau of its switch regions, where steps are also capped at
    switch_cap to resolve the switch.

    Args:
        p: ScenarioParams.
        t_start, t_end: the window.
        cap: step cap everywhere (may be inf).
        switch_cap: step cap in the switch regions (the caller's starting
            scale: tau / 5 for the integrator, tau for both quadratures).

    Returns:
        list of (lo, hi, n): n = max(1, ceil((hi - lo) / step)) steps, or
        MAX_STEPS + 1 where that count is above MAX_STEPS or not finite (a
        step of 0 included), which every caller refuses.
    """
    if p.profile == ISOSO:
        candidates = [-p.t0, p.t0]
    else:
        half = 10.0 * p.tau  # half-width of a switch region
        candidates = sorted([-p.t0 - half, -p.t0 + half, p.t0 - half, p.t0 + half])
    pts = [t_start]
    for c in candidates:
        if t_start + 1e-12 < c < t_end - 1e-12 and c > pts[-1] + 1e-12:
            pts.append(c)
    pts.append(t_end)
    near = 10.0 * p.tau + 1e-12
    segments = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (lo + hi)
        switch = p.profile == SMOOTH and min(abs(mid + p.t0), abs(mid - p.t0)) <= near
        step = min(cap, switch_cap) if switch else cap
        n = (hi - lo) / step if step > 0 else math.inf
        segments.append((lo, hi, max(1, math.ceil(n)) if n <= MAX_STEPS else MAX_STEPS + 1))
    return segments


#: Panel refinement of both quadratures: at most MAX_DEPTH bisections of a
#: first-grid panel and MAX_PANELS panels in all.  An error estimate below
#: ROUNDOFF times a panel's scale is round-off, which bisection cannot lower.
MAX_DEPTH = 40
MAX_PANELS = 1 << 18
ROUNDOFF = 50.0 * np.finfo(float).eps


def refine_panels(segments, rule, points=()):
    """The one panel refinement of both quadratures, continuing the grid of
    switch_segments.

    The first grid has the steps of the segments and the points as edges.
    Each pass calls rule(lo, hi) -> (ok, values) on the panels still
    refining ((K,) arrays): ok (K,) is their error test, values a tuple of
    (K, ...) arrays.  The panels that pass are kept, the rest bisected.
    After MAX_DEPTH bisections, or where bisecting would leave more than
    MAX_PANELS panels in all, the failing panels are kept too, as not
    converged, and the caller decides what that means.

    Returns:
        (edges, (lo, hi, owner, converged, *values)): the first grid, and
        the kept panels in the order kept (pass by pass, each pass in the
        rule's order), each with the first-grid panel it lies in and
        whether it passed its test.

    Raises:
        QuadratureNoConvergence: if the first grid alone has more than
            MAX_PANELS panels, before anything is allocated.
    """
    if sum(n for _, _, n in segments) + len(points) > MAX_PANELS:
        raise QuadratureNoConvergence(
            "quadrature on [%g, %g] needs more than %d panels"
            % (segments[0][0], segments[-1][1], MAX_PANELS)
        )
    edges = np.unique(
        np.concatenate([points] + [np.linspace(lo, hi, n + 1) for lo, hi, n in segments])
    )
    lo, hi, owner = edges[:-1], edges[1:], np.arange(len(edges) - 1)
    kept, count = [], 0
    for depth in range(MAX_DEPTH + 1):
        ok, values = rule(lo, hi)
        fail = ~ok
        count += np.count_nonzero(ok)
        stop = depth == MAX_DEPTH or count + 2 * np.count_nonzero(fail) > MAX_PANELS
        keep = np.ones_like(ok) if stop else ok
        kept.append((lo[keep], hi[keep], owner[keep], ok[keep]) + tuple(v[keep] for v in values))
        if stop or not np.any(fail):
            break
        lo, hi, owner = lo[fail], hi[fail], owner[fail]
        mid = 0.5 * (lo + hi)
        lo, hi, owner = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(owner, 2)
    return edges, tuple(np.concatenate(a) for a in zip(*kept))


def perturbativity_gp(p):
    """Perturbativity measure g_p = xi0 / sqrt(2 w_S w_E (w_S^2 + w_E^2))."""
    return p.xi0 / np.sqrt(
        2.0 * p.omega_s * p.omega_e * (p.omega_s**2 + p.omega_e**2)
    )


def vacuum_root(p):
    """sqrt of the vacuum covariance diagonal (1/w_S, w_S, 1/w_E, w_E)."""
    return np.sqrt([1.0 / p.omega_s, p.omega_s, 1.0 / p.omega_e, p.omega_e])


# ---------------------------------------------------------------------------
# Rotated (normal-mode) frame
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdiabaticFrame:
    """Instantaneous normal-mode frame at one time.

    Attributes:
        theta: mixing angle in [0, pi/2).
        theta_dot: d theta/dt (0 if the profile derivative is unavailable).
        omega1_sq, omega2_sq: squared normal frequencies (omega1_sq is
            negative above the critical coupling, where omega1 is imaginary).
        omega2: the always-real upper frequency.
        beta1, beta2: omega_i_dot / (2 omega_i) (real in both phases).

    Every field is an array of the shape of the couplings the frame was
    built for (0-d for one coupling).
    """

    theta: np.ndarray
    theta_dot: np.ndarray
    omega1_sq: np.ndarray
    omega2_sq: np.ndarray
    omega2: np.ndarray
    beta1: np.ndarray
    beta2: np.ndarray


def normal_mode_sq(xi, p):
    """Squared normal frequencies (omega1^2, omega2^2) at coupling xi.

    omega1^2 is negative above the critical coupling and crosses zero at it;
    unlike frame_from_xi this never raises.  With s = w_S^2 + w_E^2 and r =
    sqrt((w_E^2 - w_S^2)^2 + 4 xi^2), omega1^2 = (s - r) / 2 is formed as
    2 (w_S w_E - xi)(w_S w_E + xi) / (s + r): s - r cancels for a large
    frequency ratio, and this is exactly 0 at xi = w_S w_E.
    """
    ws2 = p.omega_s**2
    we2 = p.omega_e**2
    s = ws2 + we2
    r = np.sqrt(4.0 * xi * xi + (we2 - ws2) ** 2)
    return 2.0 * (p.xi_c - xi) * (p.xi_c + xi) / (s + r), 0.5 * (s + r)


def frame_from_xi(xi, p, xi_dot=0.0):
    """Normal-mode frame for a given instantaneous coupling value.

    Args:
        xi: coupling strength (frequency^2): a float, or an array for the
            frames at many times at once.
        p: ScenarioParams (provides the bare frequencies).
        xi_dot: time derivative of the coupling (for theta_dot, beta_i),
            broadcast against xi.

    Returns:
        AdiabaticFrame with fields of the broadcast shape of xi and xi_dot.

    Raises:
        CriticalPoint: if |omega1^2| < 1e-12 * omega_s^2 (coupling at the
            critical value) anywhere; callers must branch to the numeric
            integrator.
    """
    xi, xi_dot = np.broadcast_arrays(
        np.asarray(xi, dtype=float), np.asarray(xi_dot, dtype=float)
    )
    omega1_sq, omega2_sq = normal_mode_sq(xi, p)
    if np.any(np.abs(omega1_sq) < CRITICAL_GUARD * p.omega_s**2):
        raise CriticalPoint(
            "coupling is at the critical value; the closed-form frame is singular"
        )
    d = p.omega_e**2 - p.omega_s**2
    r2 = d * d + 4.0 * xi * xi
    r = np.sqrt(r2)
    # theta = 0.5 * arctan(2 xi / d), kept continuous through d = 0 by the
    # two-argument arctangent; for d > 0 this lands in [0, pi/4).
    theta = 0.5 * np.arctan2(2.0 * xi, d)
    # d(omega_i^2)/dt = -+ 2 xi xi_dot / r; beta_i = d(omega_i^2)/dt/(4 omega_i^2).
    # r = 0 only at d = xi = 0, where the numerators vanish too: adding
    # (r == 0) to the denominators makes theta_dot and both rates 0 there.
    theta_dot = xi_dot * d / (r2 + (r2 == 0))
    dw2sq = 2.0 * xi * xi_dot / (r + (r == 0))
    return AdiabaticFrame(
        theta=theta,
        theta_dot=theta_dot,
        omega1_sq=omega1_sq,
        omega2_sq=omega2_sq,
        omega2=np.sqrt(omega2_sq),
        beta1=-dw2sq / (4.0 * omega1_sq),
        beta2=dw2sq / (4.0 * omega2_sq),
    )


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------


#: Regime classifier conventions: the psi bounds of the under- and
#: over-critical regions, the w split between hierarchical and comparable
#: frequencies, and the g_p bound of the perturbative flag.
PSI_UNDER = 0.5
PSI_OVER = 2.0
W_SPLIT = 0.3
GP_PERTURBATIVE = 0.1


@dataclass(frozen=True)
class RegimeLabel:
    label: str
    g_p: float
    perturbative_flag: bool


def classify_regime(w, psi):
    """Classify a point of the (w, psi) phase diagram.

    Args:
        w: frequency ratio omega_s/omega_e in (0, 1].
        psi: coupling ratio xi0/xi_c > 0.

    Returns:
        RegimeLabel with one of U1, U2a, U2b, C1plus, C1minus, C2plus,
        C2minus, O1a, O1b, O2, the perturbativity g_p = psi sqrt(w / (2 (1
        + w^2))) and its flag g_p < GP_PERTURBATIVE.
    """
    if not (0 < w <= 1):
        raise ConfigError("w must lie in (0, 1]; swap the two modes otherwise")
    if psi <= 0:
        raise ConfigError("psi must be positive")
    if psi < PSI_UNDER:
        if w < W_SPLIT:
            label = "U1"
        else:
            label = "U2a" if (1.0 / w - 1.0) < psi else "U2b"
    elif psi <= PSI_OVER:
        sign = "plus" if psi > 1.0 else "minus"
        label = ("C1" if w < W_SPLIT else "C2") + sign
    else:
        if w < W_SPLIT:
            label = "O1a" if w < 1.0 / psi else "O1b"
        else:
            label = "O2"
    g_p = float(psi * np.sqrt(w / (2.0 * (1.0 + w * w))))
    return RegimeLabel(label, g_p, g_p < GP_PERTURBATIVE)


#: The eight expansion cases of isoso.regime_purity and the regime labels of
#: each one's domain.
EXPANSIONS = {
    "U1": ("U1",),
    "U2a": ("U2a",),
    "U2b": ("U2b",),
    "C1": ("C1plus", "C1minus"),
    "C2": ("C2plus", "C2minus"),
    "O1a": ("O1a",),
    "O1b": ("O1b",),
    "O2": ("O2",),
}

#: Each name regime_purity accepts (a case, or a regime label of its
#: domain) -> its case.
EXPANSION_NAMES = {
    name: case for case, labels in EXPANSIONS.items() for name in (case, *labels)
}

#: The Markovian surrogates of markov.surrogate_B.
SURROGATES = ("drop-negative", "best", "unitary")


# ---------------------------------------------------------------------------
# Config-file parsing
# ---------------------------------------------------------------------------

#: Solver names that configs written for the earlier Runge-Kutta integrator
#: carry under `method`; accepted and ignored, since there is one integrator.
_LEGACY_METHODS = ("RK45", "DOP853")

_SCENARIO_KEYS = {"omega_s", "omega_e", "xi0", "psi", "t0", "tau", "profile"}


def read_pairs(text):
    """Read the `key = value` lines of a config or a sweep spec; '#' starts
    a comment.

    Returns:
        dict of key -> value string, in the order of the text.

    Raises:
        ConfigError: on a non-blank line without '=' (named by its line
            number in text) or a duplicate key.
    """
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value'" % lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise ConfigError("duplicate key %r" % key)
        kv[key] = value
    return kv


def config_from_pairs(kv):
    """Build a scenario and its integrator settings from the pairs of
    read_pairs.

    The keys are ScenarioParams' (with psi in place of xi0 if wanted),
    IntegratorConfig's fields, and the legacy `method`.  Exactly one of
    xi0/psi must be present.  Unknown keys are errors.

    Returns:
        (ScenarioParams, IntegratorConfig).
    """
    integrator_keys = [f.name for f in fields(IntegratorConfig)]
    known = _SCENARIO_KEYS.union(integrator_keys, ["method"])
    for key in kv:
        if key not in known:
            raise ConfigError("unknown key %r" % key)
    if not kv:
        raise ConfigError("empty config")
    has_xi0 = "xi0" in kv
    has_psi = "psi" in kv
    if has_xi0 == has_psi:
        raise ConfigError("exactly one of xi0/psi must be given")
    for req in ("omega_e", "t0"):
        if req not in kv:
            raise ConfigError("missing key %r" % req)

    def _f(key, default=None):
        if key not in kv:
            return default
        try:
            return float(kv[key])
        except ValueError:
            raise ConfigError("key %r: not a number: %r" % (key, kv[key]))

    omega_s = _f("omega_s", 1.0)
    omega_e = _f("omega_e")
    t0 = _f("t0")
    tau = _f("tau", 1.0)
    profile = kv.get("profile", SMOOTH)
    if has_psi:
        p = ScenarioParams.from_psi(omega_s, omega_e, _f("psi"), t0, tau, profile)
    else:
        p = ScenarioParams(omega_s, omega_e, _f("xi0"), t0, tau, profile)

    if kv.get("method", "RK45") not in _LEGACY_METHODS:
        raise ConfigError("method must be one of %s" % ", ".join(_LEGACY_METHODS))
    integ = {key: _f(key) for key in integrator_keys if key in kv}
    return p, IntegratorConfig(**integ)


def parse_config(text):
    """Parse a key-value scenario config (read_pairs, then
    config_from_pairs).

    Returns:
        (ScenarioParams, IntegratorConfig).
    """
    return config_from_pairs(read_pairs(text))
