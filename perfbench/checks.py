"""Output checks of the benchmark.

Each check compares a program output with a computation made here, with
numpy, scipy.linalg or mpmath and the model's defining formulas, or with a
property the method must have. None of them calls oscpurity. Each returns a
list of failure messages; an empty list means the output passed.

Tolerances are set from the solver tolerance of the run that made the
output, with a margin of one to two orders of magnitude; a wrong sign,
factor or index moves every checked quantity by far more.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

OMEGA2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA4 = np.kron(np.eye(2), OMEGA2)

#: A purity from a propagator integrated at relative tolerance rtol may
#: exceed one by this many times rtol (closed forms: by PURITY_ROUNDOFF).
PURITY_SLACK = 10.0
PURITY_ROUNDOFF = 1e-12

TRAJ_HEADER = "t,s11,s12,s22,e11,e12,e22,c11,c12,c21,c22,purity_s,xi"
MARKOV_HEADER = "t,purity,lambda_minus,lambda_plus,v_bures,v_bures_fd,cp_flag"


# ---------------------------------------------------------------------------
# The model's defining formulas
# ---------------------------------------------------------------------------


class Scenario:
    """The scenario fields a check needs, in the config file's terms."""

    def __init__(self, omega_s, omega_e, xi0, t0, tau=1.0, profile="smooth"):
        self.omega_s = float(omega_s)
        self.omega_e = float(omega_e)
        self.xi0 = float(xi0)
        self.t0 = float(t0)
        self.tau = float(tau)
        self.profile = profile

    @classmethod
    def from_psi(cls, omega_s, omega_e, psi, t0, tau=1.0, profile="smooth"):
        return cls(omega_s, omega_e, psi * omega_s * omega_e, t0, tau, profile)

    @property
    def t_in(self):
        return -self.t0 - 20.0 * self.tau if self.profile == "smooth" else -self.t0

    def xi(self, t):
        t = np.asarray(t, dtype=float)
        if self.profile == "isoso":
            return np.where((t > -self.t0) & (t < self.t0), self.xi0, 0.0)
        a = np.tanh((self.t0 + t) / self.tau)
        b = np.tanh((self.t0 - t) / self.tau)
        return self.xi0 * (1.0 + a * b) / (1.0 + np.tanh(self.t0 / self.tau) ** 2)

    def hamiltonian(self, xi):
        h = np.diag([self.omega_s**2, 1.0, self.omega_e**2, 1.0])
        h[0, 2] = h[2, 0] = xi
        return h

    def frequency_matrix(self, xi):
        return np.array([[self.omega_s**2, xi], [xi, self.omega_e**2]])

    def vacuum(self):
        return np.diag([1.0 / self.omega_s, self.omega_s, 1.0 / self.omega_e, self.omega_e])

    def omega_sq(self):
        """(omega_1^2, omega_2^2) at peak coupling from numpy eigenvalues."""
        return np.linalg.eigvalsh(self.frequency_matrix(self.xi0))

    def omega1_abs(self):
        return math.sqrt(abs(self.omega_sq()[0]))


def read_csv(text, header):
    """Rows of a CSV written by the program, after checking its header."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("unexpected CSV header %r" % (lines[:1],))
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def sigma_from_rows(rows):
    """(N, 4, 4) covariance matrices from trajectory CSV rows."""
    s = np.zeros((len(rows), 4, 4))
    idx = {
        (0, 0): 1, (0, 1): 2, (1, 1): 3, (2, 2): 4, (2, 3): 5, (3, 3): 6,
        (0, 2): 7, (0, 3): 8, (1, 2): 9, (1, 3): 10,
    }
    for (i, j), col in idx.items():
        s[:, i, j] = rows[:, col]
        s[:, j, i] = rows[:, col]
    return s


def purity_from_u(u, vacuum):
    """System purity from a propagator, through the sum of squared 2x2 minors
    of L = U sqrt(vacuum) (free of cancellation when U is large)."""
    l = u[:2] * np.sqrt(np.diag(vacuum))[np.newaxis, :]
    det = sum(
        (l[0, i] * l[1, j] - l[0, j] * l[1, i]) ** 2
        for i in range(4)
        for j in range(i + 1, 4)
    )
    return 1.0 / math.sqrt(det)


def det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _fail(cond, message, out):
    if not cond:
        out.append(message)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


def check_invariants(rows, sc, rtol=1e-10, tol=1e-7):
    """det sigma = 1, gamma_S = gamma_E, gamma <= 1 and the coupling column,
    on trajectory CSV rows of a run at solver tolerance rtol. tol applies to
    O(1) entries and is scaled by the size of sigma, which sets how well its
    determinant is resolved."""
    out = []
    sigma = sigma_from_rows(rows)
    scale = np.maximum(1.0, np.max(np.abs(sigma), axis=(1, 2))) ** 2
    det_gap = np.abs(np.linalg.det(sigma) - 1.0) / scale
    _fail(np.max(det_gap) < tol, "det sigma - 1 up to %.3g" % np.max(det_gap), out)
    gamma_s = rows[:, 11]
    gamma_e = 1.0 / np.sqrt(det2(sigma[:, 2:, 2:]))
    gamma_block = 1.0 / np.sqrt(det2(sigma[:, :2, :2]))
    gap = np.max(np.abs(gamma_s - gamma_e) / scale)
    _fail(gap < tol, "gamma_S - gamma_E up to %.3g" % gap, out)
    gap = np.max(np.abs(gamma_s - gamma_block) / scale)
    _fail(gap < tol, "purity column vs sigma_S up to %.3g" % gap, out)
    out += check_purities(gamma_s, PURITY_SLACK * rtol)
    xi_gap = np.max(np.abs(rows[:, 12] - sc.xi(rows[:, 0]))) / max(sc.xi0, 1e-300)
    _fail(xi_gap < 1e-12, "coupling column off by %.3g of xi0" % xi_gap, out)
    _fail(np.all(np.diff(rows[:, 0]) > 0), "sample times not increasing", out)
    return out


def check_tophat_expm(t, values, sc, kind="sigma", stride=1, tol=1e-7):
    """Top-hat outputs against the closed-form propagator expm(K (t + t0)),
    K = Omega H(xi0), from the vacuum at -t0.

    kind "sigma": values are (N, 4, 4) covariances; "purity": (N,) purities.
    """
    out = []
    k = OMEGA4 @ sc.hamiltonian(sc.xi0)
    vac = sc.vacuum()
    worst = 0.0
    for i in range(0, len(t), stride):
        dt = min(t[i], sc.t0) + sc.t0
        if dt < 0:
            continue
        u = expm(k * dt)
        if kind == "sigma":
            ref = u @ vac @ u.T
            err = np.max(np.abs(values[i] - ref)) / max(1.0, np.max(np.abs(ref)))
        else:
            ref = purity_from_u(u, vac)
            err = abs(values[i] - ref) / ref
        worst = max(worst, err)
    _fail(worst < tol, "top-hat %s off expm by %.3g" % (kind, worst), out)
    return out


def check_decay_rate(t, purity, sc, t_lo, t_hi, rel=0.05):
    """ln gamma falls at |omega_1| (numpy eigenvalues of the frequency
    matrix) through [t_lo, t_hi] above the critical coupling."""
    out = []
    m = (t >= t_lo) & (t <= t_hi)
    _fail(np.count_nonzero(m) >= 10, "too few samples for the decay fit", out)
    if out:
        return out
    slope = np.polyfit(t[m], np.log(purity[m]), 1)[0]
    rate = sc.omega1_abs()
    err = abs(-slope - rate) / rate
    _fail(err < rel, "decay rate %.4g vs |omega1| %.4g" % (-slope, rate), out)
    return out


def check_summary(summary, sc, purity=None):
    """Summary fields against numpy and the CSV the same run wrote."""
    out = []
    # Compared as squares, which stay well conditioned at the critical point.
    rate = summary.get("omega1_abs")
    w1_sq, w2_sq = sc.omega_sq()
    _fail(
        rate is not None and abs(rate * rate - abs(w1_sq)) <= 1e-9 * w2_sq,
        "omega1_abs %r vs %r" % (rate, math.sqrt(abs(w1_sq))),
        out,
    )
    xi_c = sc.omega_s * sc.omega_e
    _fail(abs(summary.get("xi_c", np.nan) - xi_c) <= 1e-12 * xi_c, "xi_c", out)
    gp = sc.xi0 / math.sqrt(2.0 * xi_c * (sc.omega_s**2 + sc.omega_e**2))
    _fail(abs(summary.get("g_p", np.nan) - gp) <= 1e-12 * max(gp, 1e-300), "g_p", out)
    if purity is not None:
        _fail(summary.get("gamma_inf") == float(purity[-1]), "gamma_inf vs CSV", out)
        _fail(summary.get("gamma_min") == float(np.min(purity)), "gamma_min vs CSV", out)
    return out


# ---------------------------------------------------------------------------
# Markovianity
# ---------------------------------------------------------------------------


def _noise(xi, c11, c21):
    return -xi * np.array([[0.0, c11], [c11, 2.0 * c21]])


def _surrogate(name, s, b):
    if name == "unitary":
        return np.zeros((2, 2))
    if name == "drop-negative":
        lam, vec = np.linalg.eigh(b)
        return max(lam[1], 0.0) * np.outer(vec[:, 1], vec[:, 1])
    rate = -0.5 * np.trace(np.linalg.solve(s, b))
    return np.zeros((2, 2)) if rate > 0.0 else -rate * s


def bures_rate_fd(s, b, b_tilde, omega_s):
    """Bures distance after one step under B and under B~, divided by the
    step, in 50-digit arithmetic. The step moves sigma_S by about 1e-6 of
    itself, so the first-order error is about 1e-6 too."""
    ks = np.array([[0.0, 1.0], [-(omega_s**2), 0.0]])
    rate = (
        np.linalg.norm(np.linalg.solve(s, b_tilde - b))
        + np.linalg.norm(np.linalg.solve(s, b))
        + 1.0
        + omega_s**2
    )

    def det(a):
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]

    m = mpmath.matrix
    with mpmath.workdps(50):
        dt = mpmath.mpf(1e-6 / rate)
        s1 = m(s.tolist()) + dt * m((ks @ s + s @ ks.T + b).tolist())
        s2 = s1 + dt * m((b_tilde - b).tolist())
        lam = (det(s1) - 1) * (det(s2) - 1)
        fid = 2 / (mpmath.sqrt(det(s1 + s2) + lam) - mpmath.sqrt(lam))
        return float(mpmath.sqrt(max(2 * (1 - fid), 0)) / dt)


def check_markov(mrows, trows, sc, surrogate, stride=4, fd_points=24):
    """A markov CSV against the trajectory it was computed from (every
    stride-th trajectory row): noise eigenvalues from numpy, det B < 0 while
    coupled, CP flags of the surrogate, and the closed-form Bures velocity
    against a 50-digit finite difference."""
    out = []
    sub = trows[::stride]
    if len(sub) != len(mrows) or not np.array_equal(sub[:, 0], mrows[:, 0]):
        return ["markov rows do not match the trajectory samples"]
    _fail(np.array_equal(sub[:, 11], mrows[:, 1]), "markov purity vs trajectory", out)
    sigma = sigma_from_rows(sub)
    lam_gap = 0.0
    neg_gap = 0
    for i, row in enumerate(sub):
        b = _noise(row[12], row[7], row[9])
        lam = np.linalg.eigvalsh(b)
        lam_gap = max(lam_gap, np.max(np.abs(lam - mrows[i, 2:4])) / max(1.0, np.max(np.abs(lam))))
        if row[12] > 0.0 and abs(row[12] * row[7]) > 1e-12:
            neg_gap += not (mrows[i, 2] < 0.0 < mrows[i, 3])
    _fail(lam_gap < 1e-9, "noise eigenvalues off by %.3g" % lam_gap, out)
    _fail(neg_gap == 0, "det B >= 0 at %d coupled samples" % neg_gap, out)
    _fail(np.all(mrows[:, 6] == 1.0), "surrogate not CP at some sample", out)

    # Closed-form Bures velocity at decohering, measurably mixed points.
    # It is the purity-direction part of the speed: for drop-negative it
    # matches the full finite difference (as the acceptance suite requires,
    # to 1e-4); for the other surrogates it can only be smaller.
    candidates = [i for i in range(len(sub)) if sub[i, 11] < 0.999 and mrows[i, 4] > 1e-6]
    picks = candidates[:: max(1, len(candidates) // fd_points)][:fd_points]
    worst = 0.0
    for i in picks:
        s = sigma[i, :2, :2]
        b = _noise(sub[i, 12], sub[i, 7], sub[i, 9])
        bt = _surrogate(surrogate, s, b)
        v_fd = bures_rate_fd(s, b, bt, sc.omega_s)
        v = mrows[i, 4]
        worst = max(worst, (v - v_fd) / v if surrogate != "drop-negative" else abs(v_fd - v) / v)
    _fail(worst < 1e-4, "Bures velocity vs finite difference off by %.3g" % worst, out)
    if surrogate == "best":
        # The best surrogate cancels the velocity wherever it is feasible.
        worst = 0.0
        for i in range(len(sub)):
            s = sigma[i, :2, :2]
            b = _noise(sub[i, 12], sub[i, 7], sub[i, 9])
            if sub[i, 11] < 1.0 - 1e-6 and np.trace(np.linalg.solve(s, b)) > 0.0:
                worst = max(worst, mrows[i, 4])
        _fail(worst < 1e-8, "best-surrogate velocity %.3g where feasible" % worst, out)
    return out


def check_composition(chain, single, ends, sc, tol=1e-8, tol_state=1e-7):
    """Composed map pairs against one map over the joined interval; X
    against the free propagator expm(Omega H_S (t_b - t_a)); and the map
    carrying sigma_S(t_a) to sigma_S(t_b) of the trajectory that drove it.

    chain, single: (X, Y); ends: (t_a, t_b, sigma_S(t_a), sigma_S(t_b)).
    """
    out = []
    (x_c, y_c), (x_s, y_s) = chain, single
    t_a, t_b, s_a, s_b = ends
    gap = max(np.max(np.abs(x_c - x_s)), np.max(np.abs(y_c - y_s)))
    _fail(gap < tol, "composition gap %.3g" % gap, out)
    k = np.array([[0.0, 1.0], [-(sc.omega_s**2), 0.0]])
    gap = np.max(np.abs(x_c - expm(k * (t_b - t_a))))
    _fail(gap < tol, "X off the free propagator by %.3g" % gap, out)
    gap = np.max(np.abs(x_c @ s_a @ x_c.T + y_c - s_b)) / max(1.0, np.max(np.abs(s_b)))
    _fail(gap < tol_state, "map misses the driven state by %.3g" % gap, out)
    return out


# ---------------------------------------------------------------------------
# Late-time scans
# ---------------------------------------------------------------------------


def latetime_purity_ode(sc, rtol=1e-12):
    """Late-time purity from an integration of U' = Omega H(t) U made here,
    run until the coupling is below 1e-10 of the critical value."""
    tail = sc.tau * 0.5 * math.log(4.0 * sc.xi0 / (1e-10 * sc.omega_s * sc.omega_e))
    t_end = sc.t0 + max(tail, 0.0)

    def rhs(t, y):
        u = y.reshape(4, 4)
        return (OMEGA4 @ sc.hamiltonian(float(sc.xi(t))) @ u).ravel()

    step = min(0.05 * 2.0 * math.pi / sc.omega_e, sc.tau / 10.0)
    sol = solve_ivp(
        rhs, (sc.t_in, t_end), np.eye(4).ravel(), method="DOP853",
        rtol=rtol, atol=rtol * 1e-2, max_step=step,
    )
    return purity_from_u(sol.y[:, -1].reshape(4, 4), sc.vacuum())


def check_latetime_ode(value, sc, tol=1e-7):
    """A late-time purity against latetime_purity_ode."""
    ref = latetime_purity_ode(sc)
    if abs(value - ref) > tol:
        return ["late-time purity %.12g vs independent ODE %.12g" % (value, ref)]
    return []


def check_purities(values, tol_above):
    """Purities positive and at most 1 + tol_above."""
    out = []
    values = np.asarray(values)
    _fail(np.all(values > 0.0), "non-positive late-time purity", out)
    _fail(
        np.all(values <= 1.0 + tol_above),
        "late-time purity %.17g above one" % np.max(values),
        out,
    )
    return out


def centered_slopes(ratios, deficits):
    lr, ld = np.log(ratios), np.log(deficits)
    return (ld[2:] - ld[:-2]) / (lr[2:] - lr[:-2])


def check_slopes(ratios, deficits, mid, slopes, flagged, increasing=True):
    """Slopes recomputed from the deficits; with increasing=True the
    non-flagged magnitudes must grow strictly (no power law)."""
    out = []
    ref = centered_slopes(ratios, deficits)
    _fail(np.allclose(mid, ratios[1:-1], rtol=1e-12, atol=0), "slope abscissae", out)
    _fail(np.allclose(slopes, ref, rtol=1e-9, atol=1e-12), "slopes vs deficits", out)
    if increasing:
        mags = np.abs(np.asarray(slopes)[~np.asarray(flagged, dtype=bool)])
        _fail(len(mags) >= 2, "fewer than two resolved slopes", out)
        _fail(np.all(np.diff(mags) > 0), "slope magnitudes %s not increasing" % mags, out)
    return out


def check_threshold(res, bounds, min_r2=0.95):
    """Thresholds inside the bounds and a line fit, recomputed here, with
    positive slope and R^2 above min_r2."""
    out = []
    r = np.asarray(res["tau_over_t0"], dtype=float)
    thr = np.asarray(res["T_omega_thr"], dtype=float)
    _fail(np.all((thr >= bounds[0]) & (thr <= bounds[1])), "threshold outside bounds", out)
    slope, intercept = np.polyfit(r, thr, 1)
    resid = thr - (slope * r + intercept)
    ss_tot = np.sum((thr - thr.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 1.0
    _fail(abs(slope - res["slope"]) <= 1e-9 * abs(slope), "fit slope mismatch", out)
    _fail(abs(r2 - res["r_squared"]) <= 1e-9, "fit R^2 mismatch", out)
    _fail(slope > 0.0, "threshold slope %.3g not positive" % slope, out)
    _fail(r2 > min_r2, "threshold R^2 %.3g <= %.2f" % (r2, min_r2), out)
    return out


# ---------------------------------------------------------------------------
# Analytic layers
# ---------------------------------------------------------------------------


def purity_o2_grid(t, sc, n=1201):
    """1 minus the second-order double integral, evaluated on an n x n
    trapezoid grid over [t_in, t] with the full kernel."""
    lo = sc.t_in
    hi = min(t, sc.t0) if sc.profile == "isoso" else t
    if hi <= lo:
        return 1.0
    ts = np.linspace(lo, hi, n)
    if sc.profile == "isoso":
        lam = np.full(n, sc.xi0)  # the window edges have measure zero
    else:
        lam = sc.xi(ts)
    lam = lam / math.sqrt(sc.omega_s * sc.omega_e)
    lw = lam * np.full(n, ts[1] - ts[0])
    lw[0] *= 0.5
    lw[-1] *= 0.5
    total = 0.0
    for start in range(0, n, 200):  # row blocks keep the memory small
        rows = slice(start, start + 200)
        d = ts[rows, None] - ts[None, :]
        theta = np.where(d > 0, 1.0, np.where(d < 0, 0.0, 0.5))
        kern = (1.0 - 2.0 * theta) * np.cos((sc.omega_e - sc.omega_s) * d) + (
            1.0 + 2.0 * theta
        ) * np.cos((sc.omega_s + sc.omega_e) * d)
        total += float(lw[rows] @ kern @ lw)
    return 1.0 - 0.25 * total


def check_o2(rows, sc, picks=5, rel=1e-3):
    """Second-order purities against the numpy double integral."""
    out = []
    idx = np.unique(np.linspace(len(rows) // 4, len(rows) - 1, picks).astype(int))
    worst = 0.0
    for i in idx:
        t, g = rows[i]
        ref = purity_o2_grid(t, sc)
        worst = max(worst, abs((1.0 - g) - (1.0 - ref)) / max(abs(1.0 - ref), 1e-300))
    _fail(worst < rel, "second-order deficit off the double integral by %.3g" % worst, out)
    return out


def normal_frequencies(sc, t):
    """omega_1, omega_2 along t from numpy eigenvalues of the frequency
    matrix."""
    lam = np.array([np.linalg.eigvalsh(sc.frequency_matrix(x)) for x in sc.xi(t)])
    return np.sqrt(lam[:, 0]), np.sqrt(lam[:, 1])


def check_phases(phases, sc, t_end, n=20001, rel=1e-6):
    """Accumulated phases (t, W1, W2) against a trapezoid sum of the normal
    frequencies."""
    out = []
    ts = np.linspace(sc.t_in, t_end, n)
    w1, w2 = normal_frequencies(sc, ts)
    h = ts[1] - ts[0]
    c1 = np.concatenate([[0.0], np.cumsum(0.5 * h * (w1[1:] + w1[:-1]))])
    c2 = np.concatenate([[0.0], np.cumsum(0.5 * h * (w2[1:] + w2[:-1]))])
    worst = 0.0
    for t, p1, p2 in phases:
        r1, r2 = np.interp(t, ts, c1), np.interp(t, ts, c2)
        worst = max(worst, abs(p1 - r1) / max(r1, 1.0), abs(p2 - r2) / max(r2, 1.0))
    _fail(worst < rel, "phases off the trapezoid sum by %.3g" % worst, out)
    return out


def check_adiabatic(rows, sc, picks=21):
    """Leading-order purity from numpy eigenvectors of the frequency matrix;
    no purity above one; complete recoherence of LO + NLO once the coupling
    is off."""
    out = []
    out += check_purities(rows[:, 1], PURITY_ROUNDOFF)
    worst = 0.0
    for i in np.linspace(0, len(rows) - 1, picks).astype(int):
        t = rows[i, 0]
        lam, vec = np.linalg.eigh(sc.frequency_matrix(float(sc.xi(t))))
        w1, w2 = np.sqrt(lam)
        s2t = 2.0 * vec[0, 0] * vec[1, 0]  # sin 2 theta
        ref = (1.0 - 0.25 * s2t * s2t * (2.0 - w1 / w2 - w2 / w1)) ** -0.5
        worst = max(worst, abs(rows[i, 1] - ref))
    _fail(worst < 1e-9, "LO purity off by %.3g" % worst, out)
    if rows.shape[1] > 2:
        late = abs(rows[-1, 1] + rows[-1, 2] - 1.0)
        _fail(late < 1e-8, "no recoherence at finite order: %.3g" % late, out)
    return out


def check_phase_diagram(text, w_grid, psi_grid):
    """Cells, g_p and near-critical flags recomputed, and labels in the
    family their (w, psi) cell belongs to."""
    out = []
    lines = text.splitlines()
    _fail(lines[0] == "w,psi,label,perturbative,g_p,near_critical", "header", out)
    rows = [line.split(",") for line in lines[1:]]
    _fail(len(rows) == len(w_grid) * len(psi_grid), "cell count", out)
    for (ws, ps, label, pert, gps, near), (w, psi) in zip(
        rows, ((w, psi) for w in w_grid for psi in psi_grid)
    ):
        w_, psi_ = float(ws), float(ps)
        gp = psi * math.sqrt(w / (2.0 * (1.0 + w * w)))
        family = "U" if psi < 0.5 else ("C" if psi <= 2.0 else "O")
        split = "1" if w < 0.3 else "2"
        ok = (
            w_ == w
            and psi_ == psi
            and abs(float(gps) - gp) <= 1e-12 * gp
            and label.startswith(family + split)
            and int(pert) == int(gp < 0.1)
            and int(near) == int(abs(psi - 1.0) < 0.1)
        )
        if not ok:
            out.append("phase-diagram cell (%s, %s) wrong: %s" % (ws, ps, label))
            break
    return out
