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
