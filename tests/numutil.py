"""Shared numeric helpers for the test suite."""

import numpy as np

#: Unit round-off of the extended-precision accumulator.
LD_EPS = float(np.finfo(np.longdouble).eps)


def det_sigma_via_propagator(u, rtol):
    """Full-state determinant det sigma = (det U)^2 with a measurability
    bound.

    The determinant of the evolved covariance equals the squared propagator
    determinant (the vacuum determinant is one).  det U is conditioned like
    ||U||^2 -- much better than det sigma's ||sigma||^2 ~ ||U||^4 -- but
    deep in the supercritical regime even that amplification exceeds the
    target tolerance; the returned bound estimates the attainable accuracy
    from the solver tolerance.

    Returns:
        (det_sigma, bound): the claim |det_sigma - 1| < tol is only
        testable when bound < tol.
    """
    norm = max(1.0, float(np.max(np.abs(u))))
    bound = norm * norm * 20.0 * rtol
    det = float(np.linalg.det(u))
    return det * det, bound


def dop853_propagators(p, ts, rtol=1e-12):
    """Propagators U(t) from t_in at the increasing times ts, integrated
    with scipy's DOP853 at rtol (atol = rtol / 100) as an oracle for the
    Magnus integrator.

    The generator Omega H(xi) is built here from the Hamiltonian's
    quadratic form; only the profile xi(t) comes from the package.  Smooth
    profiles are integrated piecewise across their switch regions
    (+-t0 -+ 10 tau) with steps capped at tau / 4 there, and at a twentieth
    of the fastest free period elsewhere.
    """
    from scipy.integrate import solve_ivp

    from oscpurity.model import SMOOTH, coupling_xi

    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega4 = np.kron(np.eye(2), omega)

    def rhs(t, y):
        xi = float(coupling_xi(float(t), p))
        h = np.array(
            [
                [p.omega_s**2, 0.0, xi, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [xi, 0.0, p.omega_e**2, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        return (omega4 @ h @ y.reshape(4, 4)).ravel()

    ts = np.asarray(ts, dtype=float)
    edges = [p.t_in, ts[-1]]
    if p.profile == SMOOTH:
        edges += [s * p.t0 + d * 10.0 * p.tau for s in (-1, 1) for d in (-1, 1)]
    edges = sorted(e for e in set(edges) if p.t_in <= e <= ts[-1])
    free_step = 0.05 * 2.0 * np.pi / max(p.omega_s, p.omega_e, np.sqrt(p.xi0))
    y = np.eye(4).ravel()
    out = np.empty((len(ts), 4, 4))
    for lo, hi in zip(edges[:-1], edges[1:]):
        switch = p.profile == SMOOTH and abs(abs(0.5 * (lo + hi)) - p.t0) < 10.0 * p.tau
        cap = min(free_step, p.tau / 4.0) if switch else free_step
        inside = (ts >= lo) & (ts <= hi)
        sol = solve_ivp(
            rhs, (lo, hi), y, method="DOP853", rtol=rtol, atol=rtol * 1e-2,
            max_step=cap, dense_output=True,
        )
        assert sol.success, sol.message
        if np.any(inside):
            out[inside] = sol.sol(ts[inside]).T.reshape(-1, 4, 4)
        y = sol.y[:, -1]
    return out


def o2_moments_qawo(p, lo, hi, q=None):
    """Cosine and sine moments of lambda at the sum frequency over [lo, hi]
    by scipy's QAWO rule (one adaptive call per weight), as an oracle for
    the panel quadrature of `perturbation`.

    Raises:
        AssertionError: if QUADPACK's error estimate fails the acceptance
            rule 100 max(abs_tol, rel_tol |moment|).
    """
    from scipy.integrate import quad

    from oscpurity.perturbation import QuadratureConfig, coupling_lambda

    q = q or QuadratureConfig()
    out = []
    for weight in ("cos", "sin"):
        val, err = quad(
            lambda u: coupling_lambda(u, p),
            lo,
            hi,
            weight=weight,
            wvar=p.omega_s + p.omega_e,
            epsabs=q.abs_tol,
            epsrel=q.rel_tol,
            limit=max(50, 2 ** min(q.max_depth, 12)),
        )
        assert err <= max(q.abs_tol, q.rel_tol * abs(val)) * 100, err
        out.append(val)
    return np.array(out)


def purity_o2_qawo(t, p, split_at=()):
    """Second-order purity 1 - (C^2 + S^2)/2 at one time t from QAWO moments
    over [t_in, t], integrated piecewise between the given split points that
    fall inside it."""
    pts = [p.t_in] + sorted(s for s in split_at if p.t_in < s < t) + [t]
    m = sum(o2_moments_qawo(p, a, b) for a, b in zip(pts[:-1], pts[1:]))
    return 1.0 - 0.5 * float(m @ m)


def phase_system_rk45(p, t_end=None, rtol=1e-10, atol=1e-12):
    """The phases and NLO moments as one 8-unknown ODE integrated by scipy's
    RK45 (steps capped at an eighth of the fastest period), as an oracle for
    the Chebyshev panel quadrature of `adiabatic.accumulate_phases`.

    Returns:
        (phases, memory_integrals): functions of one time t in [t_in, t_end]
        with the meaning of the PhaseAccumulator methods.
    """
    from scipy.integrate import solve_ivp

    from oscpurity.model import adiabatic_frame, frame_from_xi

    def rhs(t, y):
        fr = adiabatic_frame(t, p)
        w1, w2 = np.sqrt(fr.omega1_sq), fr.omega2
        ratio = np.sqrt(w1 / w2)
        f_th = fr.theta_dot * (ratio + 1.0 / ratio)
        phase = y[0] + y[1]
        return [
            w1,
            w2,
            2.0 * fr.beta1 * np.cos(2 * y[0]),
            2.0 * fr.beta1 * np.sin(2 * y[0]),
            2.0 * fr.beta2 * np.cos(2 * y[1]),
            2.0 * fr.beta2 * np.sin(2 * y[1]),
            f_th * np.cos(phase),
            f_th * np.sin(phase),
        ]

    t_end = -p.t_in if t_end is None else t_end
    max_step = (2.0 * np.pi / frame_from_xi(p.xi0, p).omega2) / 8.0
    sol = solve_ivp(
        rhs, (p.t_in, t_end), np.zeros(8), method="RK45", rtol=rtol, atol=atol,
        max_step=max_step, dense_output=True,
    )
    assert sol.success, sol.message

    def phases(t):
        y = sol.sol(t)
        return float(y[0]), float(y[1])

    def memory_integrals(t):
        y = sol.sol(t)
        w1, w2 = y[0], y[1]
        return (
            float(np.cos(2 * w1) * y[2] + np.sin(2 * w1) * y[3]),
            float(np.cos(2 * w2) * y[4] + np.sin(2 * w2) * y[5]),
            float(np.cos(w1 + w2) * y[6] + np.sin(w1 + w2) * y[7]),
        )

    return phases, memory_integrals


def map_pair_rk45(p, traj, t_a, t_b, rtol=1e-12, atol=1e-14):
    """The reduced-map pair (X, Y) over [t_a, t_b] from scipy's RK45 on
    X' = Omega H_S X, Y' = Omega H_S Y + Y H_S Omega^T + B(t) (X(t_a) = 1,
    Y(t_a) = 0), with B(t) from the trajectory's arbitrary-time states, as an
    oracle for the quadrature of `markov.map_pair_evolve`."""
    from scipy.integrate import solve_ivp

    from oscpurity.markov import noise_B

    k = np.array([[0.0, 1.0], [-(p.omega_s**2), 0.0]])

    def rhs(t, y):
        x, ym = y[:4].reshape(2, 2), y[4:].reshape(2, 2)
        b = noise_B(traj.state_at(t), p).B
        return np.concatenate([(k @ x).ravel(), (k @ ym + ym @ k.T + b).ravel()])

    y0 = np.concatenate([np.eye(2).ravel(), np.zeros(4)])
    sol = solve_ivp(
        rhs, (t_a, t_b), y0, method="RK45", rtol=rtol, atol=atol,
        max_step=(t_b - t_a) / 16.0,
    )
    assert sol.success, sol.message
    return sol.y[:4, -1].reshape(2, 2), sol.y[4:, -1].reshape(2, 2)


def cutoff_time_brentq(p, threshold):
    """First t >= t0 where the smooth profile's xi(t) falls to threshold xi_c,
    by scipy's brentq on ln(xi / target) with xi evaluated to 50 digits
    (mpmath), so that the root is not limited by the cancellation in
    1 + tanh tanh far out in the tail."""
    import mpmath
    from scipy.optimize import brentq

    target = threshold * p.xi_c

    def log_ratio(t):
        with mpmath.workdps(50):
            t0, tau, t = mpmath.mpf(p.t0), mpmath.mpf(p.tau), mpmath.mpf(t)
            shape = 1 + mpmath.tanh((t0 + t) / tau) * mpmath.tanh((t0 - t) / tau)
            xi = p.xi0 * shape / (1 + mpmath.tanh(t0 / tau) ** 2)
            return float(mpmath.log(xi / target))

    if log_ratio(p.t0) <= 0.0:
        return p.t0
    hi = p.t0 + p.tau
    while log_ratio(hi) > 0.0:
        hi = p.t0 + 2.0 * (hi - p.t0)
    return brentq(log_ratio, p.t0, hi, xtol=1e-300, rtol=8.9e-16, maxiter=500)


def spherical_jn_mp(n, x):
    """Spherical Bessel functions j_0 .. j_{n-1} at the floats x, to 50
    digits (mpmath), as an (len(x), n) array."""
    import mpmath

    out = np.zeros((len(x), n))
    with mpmath.workdps(50):
        for i, xv in enumerate(x):
            for k in range(n):
                if xv == 0.0:
                    out[i, k] = 1.0 if k == 0 else 0.0
                else:
                    z = mpmath.mpf(xv)
                    out[i, k] = float(mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(k + 0.5, z))
    return out
