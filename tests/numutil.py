"""Shared numeric helpers for the test suite: independent references built
from scipy and mpmath, small matrix helpers that serve as references, the
unreduced second-order kernel, the per-panel Filon weights that the
per-width ones replaced, the per-segment refinement loop of the batched
integrator's mirrored step grid, the full-window march that the mirrored
one replaced, the doubling ladder of Richardson levels that the predicted
levels replaced, the bisection threshold scan on dense samples that the
bracketed scan on step nodes replaced, the per-row CSV writer that the
numpy formatter replaced, the generator terms K0, K1 that the closed-form
Magnus exponent replaced, the complex Bogoliubov route of the top-hat
purity that the real normal-mode rows replaced, and the trajectory,
reduced-map and top-hat diagnostics that only the tests evaluate (purity at
arbitrary times, environment purity, purity rate, CP witness, fidelity,
Bures distance, vacuum correlators, in-window covariance, decoherence
rate)."""

import math
from dataclasses import dataclass

import numpy as np

from oscpurity.errors import OscPurityError, StepFailure
from oscpurity.symplectic import cauchy_binet, det2

#: Unit round-off of the extended-precision accumulator.
LD_EPS = float(np.finfo(np.longdouble).eps)

# Determinants in [1 - DET_CLAMP, 1) are clamped to 1 before the square root;
# anything below 1 - DET_TOL is treated as unphysical.
DET_CLAMP = 1e-9
DET_TOL = 1e-6

class NonPhysicalState(OscPurityError):
    """A covariance block violates the uncertainty bound beyond tolerance."""


#: Two-mode symplectic form, block-diagonal in (x_S, p_S, x_E, p_E) ordering.
OMEGA4 = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


def inv2(m):
    """Closed-form inverse (adjugate over determinant) of a 2x2 matrix, or of
    a (..., 2, 2) stack."""
    adj = np.stack([m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0]], -1)
    return adj.reshape(m.shape) / det2(m)[..., None, None]


def purity_from_block(sigma_s):
    """Purity of a single-mode Gaussian state from its covariance block.

    Args:
        sigma_s: symmetric 2x2 covariance block.

    Returns:
        1/sqrt(det sigma_s), clamped so that round-off cannot push the
        result above 1.

    Raises:
        NonPhysicalState: if det sigma_s < 1 - 1e-6.
    """
    d = det2(sigma_s)
    if d < 1.0 - DET_TOL:
        raise NonPhysicalState(
            "covariance block determinant %.6g violates the uncertainty bound" % d
        )
    if d < 1.0:
        d = 1.0
    return 1.0 / np.sqrt(d)


def frobenius_norm(m):
    """Frobenius norm sqrt(sum m_ij^2) of a real matrix."""
    return float(np.sqrt(np.sum(np.asarray(m) ** 2)))


def check_gaussian_valid(sigma):
    """Physicality diagnostics for a two-mode covariance matrix.

    Args:
        sigma: symmetric 4x4 covariance matrix.

    Returns:
        dict with keys:
            det_sigma: determinant of the full matrix,
            nu_s, nu_e: per-mode symplectic eigenvalues sqrt(det sigma_I),
            passed: True if both nu_I >= 1 - 1e-9.
    """
    sigma = np.asarray(sigma)
    det_sigma = float(np.linalg.det(sigma))
    det_s = det2(sigma[0:2, 0:2])
    det_e = det2(sigma[2:4, 2:4])
    nu_s = float(np.sqrt(max(det_s, 0.0))) if det_s > 0 else float("nan")
    nu_e = float(np.sqrt(max(det_e, 0.0))) if det_e > 0 else float("nan")
    passed = bool(nu_s >= 1.0 - DET_CLAMP and nu_e >= 1.0 - DET_CLAMP)
    return {
        "det_sigma": det_sigma,
        "nu_s": nu_s,
        "nu_e": nu_e,
        "passed": passed,
    }


def generator_terms(p):
    """Constant parts (K0, K1) of the generator K(xi) = Omega H(xi) = K0 +
    xi K1 of U' = K U, where H is the quadratic form of the joint
    Hamiltonian diag(w_S^2, 1, w_E^2, 1) plus xi in the (x_S, x_E) entries:
    the matrices whose commutators `transport._exponents` writes out."""
    k0, k1 = np.zeros((4, 4)), np.zeros((4, 4))
    k0[0, 1] = k0[2, 3] = 1.0
    k0[1, 0] = -p.omega_s**2
    k0[3, 2] = -p.omega_e**2
    k1[1, 2] = k1[3, 0] = -1.0
    return k0, k1


def adiabatic_frame(t, p):
    """Normal-mode frame at one time t along the coupling profile."""
    from oscpurity.model import SMOOTH, coupling_xi, coupling_xi_dot, frame_from_xi

    xi = float(coupling_xi(t, p))
    xi_dot = float(coupling_xi_dot(t, p)) if p.profile == SMOOTH else 0.0
    return frame_from_xi(xi, p, xi_dot)


def predicted_level(m, err, tol):
    """The step count that `transport._solve` evaluates after a level of m
    steps with the Richardson error estimate err fails the tolerance tol:
    the count whose sixth-order error model predicts tol / 10, at most 8 m,
    or 2 m without a finite estimate."""
    grow = (err / (tol / 10.0)) ** (1.0 / 6.0) if np.isfinite(err) else 2.0
    return math.ceil(m * min(grow, 8.0))


def ladder_level(m, err, tol):
    """The doubling ladder n0, 2 n0, 4 n0, ... that the predicted level
    replaced, kept as the accuracy reference: 2 m whatever the estimate."""
    return 2 * m


def solve_per_segment(p, cfg, keep_nodes, next_level=predicted_level):
    """The integrator's mirrored step grid refined one segment at a time, one
    exponent call per chunk of each level, as an oracle for the batched
    refinement of `transport._solve`: the segments of [0, -t_in] are stepped
    and mirrored onto [t_in, 0].  A level of n steps after one of m is
    accepted when |P_n - P_m| / ((n / m)^6 - 1) meets the tolerance, and a
    failing level of m steps is followed by next_level(m, err, tol) steps.

    Returns:
        (U(-t_in), step_t, nodes, levels): with keep_nodes the step node
        times and propagators from t_in (else None), and the number of
        levels each segment evaluated.
    """
    from oscpurity import transport as tr

    def level(t_lo, t_hi, n):
        h = (t_hi - t_lo) / n
        total, pieces = tr._EYE, []
        for start in range(0, n, tr._CHUNK):
            idx = np.arange(start, min(n, start + tr._CHUNK))
            pieces.append(tr._expm(tr._exponents(t_lo + h * idx, np.full(len(idx), h), p)))
            total = tr._product(pieces[-1]) @ total
        return total, pieces

    def segment(t_lo, t_hi, n, central):
        # The central segment's test covers its mirror too.
        name = (-t_hi, t_hi) if central else (t_lo, t_hi)
        if n > tr.MAX_STEPS:
            raise StepFailure("[%g, %g] needs more than %d steps" % (name + (tr.MAX_STEPS,)))
        coarse, m, levels = None, None, 0
        while True:
            fine, pieces = level(t_lo, t_hi, n)
            levels += 1
            est = fine @ tr._mirror(fine) if central else fine
            if not np.all(np.isfinite(est)):
                raise StepFailure("propagator overflow on [%g, %g]" % name)
            tol = cfg.atol + cfg.rtol * np.max(np.abs(est))
            err = np.max(np.abs(est - coarse)) / ((n / m) ** 6 - 1) if m else np.inf
            if err <= tol:
                return fine, pieces, n, levels
            step = next_level(n, err, tol)
            if step > tr.MAX_STEPS:
                raise StepFailure(
                    "no convergence on [%g, %g] within %d steps" % (name + (tr.MAX_STEPS,))
                )
            coarse, m, n = est, n, step

    done = [
        (lo, hi) + segment(lo, hi, n, k == 0)
        for k, (lo, hi, n) in enumerate(tr._start_segments(p, 0.0, -p.t_in))
    ]
    levels = [d[-1] for d in done]
    if not keep_nodes:
        w = tr._EYE
        for d in done:
            w = d[2] @ w
        return w @ tr._mirror(w), None, None, levels
    steps = np.concatenate([np.concatenate(d[3]) for d in done])
    times = []
    for lo, hi, _, _, n, _ in done:
        times.append(lo + (hi - lo) / n * np.arange(1, n + 1))
        times[-1][-1] = hi
    # The mirrored half: nodes at minus the step starts of t >= 0, steps
    # mirrored in reverse order.
    half_t = np.concatenate(times)
    times.insert(0, np.append(-half_t[-2::-1], 0.0))
    e = np.concatenate([tr._mirror(steps[::-1]), steps])
    props = [tr._EYE[None]]
    for lo in range(0, len(e), tr._CHUNK):
        props.append(tr._prefix(e[lo : lo + tr._CHUNK]) @ props[-1][-1])
    return props[-1][-1], np.concatenate([[p.t_in]] + times), np.concatenate(props), levels


def solve_full_window(p, cfg, keep_nodes, next_level=predicted_level):
    """The integrator as it was before it mirrored t >= 0 onto t < 0: every
    segment of the whole window [t_in, -t_in] stepped and refined one at a
    time, with the levels of solve_per_segment, as an oracle for the
    mirrored march of `transport._solve`.  The central segment [-b, b] is
    stepped whole, but its levels are twice those of its half [0, b].

    Returns:
        (U(-t_in), step_t, nodes, levels): with keep_nodes the step node
        times and propagators from t_in (else None), and the number of
        levels each segment evaluated.
    """
    from oscpurity import transport as tr

    def level(t_lo, t_hi, n, keep):
        h = (t_hi - t_lo) / n
        total, nodes = tr._EYE, []
        for start in range(0, n, tr._CHUNK):
            idx = np.arange(start, min(n, start + tr._CHUNK))
            e = tr._expm(tr._exponents(t_lo + h * idx, np.full(len(idx), h), p))
            if keep:
                nodes.append(tr._prefix(e) @ total)
                total = nodes[-1][-1]
            else:
                total = tr._product(e) @ total
        if not np.all(np.isfinite(total)):
            raise StepFailure("propagator overflow on [%g, %g]" % (t_lo, t_hi))
        return total, (np.concatenate(nodes) if keep else None)

    def segment(t_lo, t_hi, n):
        if n > tr.MAX_STEPS:
            raise StepFailure(
                "[%g, %g] needs more than %d steps" % (t_lo, t_hi, tr.MAX_STEPS)
            )
        coarse, _ = level(t_lo, t_hi, n, False)
        m, n, levels = n, 2 * n, 1
        half = 2 if t_lo == -t_hi else 1
        while n <= tr.MAX_STEPS:
            fine, nodes = level(t_lo, t_hi, n, keep_nodes)
            levels += 1
            tol = cfg.atol + cfg.rtol * np.max(np.abs(fine))
            err = np.max(np.abs(fine - coarse)) / ((n / m) ** 6 - 1)
            if err <= tol:
                return fine, nodes, n, levels
            coarse, m, n = fine, n, half * next_level(n // half, err, tol)
        raise StepFailure(
            "no convergence on [%g, %g] within %d steps" % (t_lo, t_hi, tr.MAX_STEPS)
        )

    u = np.eye(4)
    times, props, levels = [np.array([p.t_in])], [u[None]], []
    for t_lo, t_hi, n in tr._start_segments(p, p.t_in, -p.t_in):
        seg, nodes, n, count = segment(t_lo, t_hi, n)
        levels.append(count)
        if keep_nodes:
            times.append(t_lo + (t_hi - t_lo) / n * np.arange(1, n + 1))
            times[-1][-1] = t_hi
            props.append(nodes @ u)
            u = props[-1][-1]
        else:
            u = seg @ u
    if not keep_nodes:
        return u, None, None, levels
    return u, np.concatenate(times), np.concatenate(props), levels


def purity_at(traj, t):
    """System purity of a Trajectory at an arbitrary time, or at an array of
    times, from its propagator there."""
    from oscpurity.transport import purity_from_propagator

    return purity_from_propagator(traj.propagator_at(t), traj.params)


def environment_purity(u, p):
    """Environment purity 1/sqrt(det sigma_E) of one propagator or a
    (N, 4, 4) stack: the Cauchy-Binet sum of the environment rows of
    L = U diag(sqrt(vacuum)).  The joint state is pure, so it equals the
    system purity."""
    from oscpurity.model import vacuum_root

    l = np.asarray(u) * vacuum_root(p)
    return 1.0 / np.sqrt(cauchy_binet(l[..., 2, :], l[..., 3, :]))


def sample_purities(p, cfg):
    """System purity at the dense samples of `transport.integrate`: the probe
    the threshold scan used before it read the step nodes."""
    from oscpurity.transport import integrate

    return integrate(p, cfg).purity_s


def threshold_scan_bisection(
    p_base,
    tau_over_t0_grid,
    t_omega_bounds=(0.1, 30.0),
    criterion=0.01,
    cfg=None,
    rel_resolution=0.01,
    purities=sample_purities,
):
    """The threshold scan that `adiabatic.recoherence_threshold_scan`
    replaced, as its oracle: every probe (by default) a dense `integrate`,
    every switch rate bracketed from the bounds or from the previous
    threshold (prev / 2, prev * 4) and bisected in log T_omega.  purities(p,
    cfg) gives the system purities a probe reads its smallest and its last
    from.

    Returns:
        dict with per-point thresholds and the least-squares line fit
        (slope, intercept, r_squared) of T_omega_thr versus tau/t0.
    """
    from oscpurity.errors import ConfigError, NoThreshold
    from oscpurity.model import IntegratorConfig, ScenarioParams

    if len(tau_over_t0_grid) < 2:
        raise ConfigError("the threshold line fit needs at least two tau/t0 points")
    if cfg is None:
        # The threshold only needs deficits to one part in 1e-5 or so.
        cfg = IntegratorConfig(rtol=1e-7, atol=1e-9)
    psi = p_base.psi
    results = []
    prev_thr = None
    for ratio in tau_over_t0_grid:
        tau = ratio * p_base.t0

        def recoheres(t_omega):
            omega_e = p_base.omega_s * (1.0 + 1.0 / t_omega)
            p = ScenarioParams.from_psi(
                p_base.omega_s, omega_e, psi, p_base.t0, tau, p_base.profile
            )
            gamma = purities(p, cfg)
            gamma_min = float(np.min(gamma))
            gamma_inf = float(gamma[-1])
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


def write_csv_per_row(f, header, columns, formats=None):
    """`output.write_csv` to the text stream f, as one Python %-template per
    row over columns converted with .tolist() 256 rows at a time: the
    bit-for-bit reference of the numpy formatter."""
    template = ",".join(formats or ["%.16e"] * len(columns)) + "\n"
    columns = [np.asarray(c) for c in columns]
    f.write(header + "\n")
    for lo in range(0, min(map(len, columns)), 256):
        rows = zip(*(c[lo : lo + 256].tolist() for c in columns))
        f.writelines(template % row for row in rows)


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


def o2_integrand(tp, tpp, p):
    """Symmetrized second-order integrand (value of the double-integral
    kernel at (t', t''), including the 1/4 prefactor), the unreduced form
    behind `perturbation.purity_o2_quadrature`, for direct grid checks."""
    from oscpurity.perturbation import coupling_lambda

    theta = np.where(tp > tpp, 1.0, np.where(tp < tpp, 0.0, 0.5))
    lam = coupling_lambda(tp, p) * coupling_lambda(tpp, p)
    diff = (p.omega_e - p.omega_s) * (tp - tpp)
    tot = (p.omega_s + p.omega_e) * (tp - tpp)
    return 0.25 * lam * (
        (1.0 - 2.0 * theta) * np.cos(diff) + (1.0 + 2.0 * theta) * np.cos(tot)
    )


def filon_per_panel(lo, hi, p):
    """`perturbation._filon` with the Filon weights computed panel by panel,
    as the rule was before they were shared between panels of one width."""
    from oscpurity.perturbation import _RULES, coupling_lambda, spherical_jn_orders

    om = p.omega_s + p.omega_e
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    phase = half * np.exp(1j * om * mid)
    out = []
    for x, table in _RULES:
        lam = coupling_lambda(mid[:, None] + half[:, None] * x, p)
        weights = spherical_jn_orders(len(x), om * half) @ table.T
        out.append(phase * np.sum(lam * weights, axis=1))
    return out


def o2_moments_qawo(p, lo, hi):
    """Cosine and sine moments of lambda at the sum frequency over [lo, hi]
    by scipy's QAWO rule (one adaptive call per weight), as an oracle for
    the panel quadrature of `perturbation`, at its tolerances.

    Raises:
        AssertionError: if QUADPACK's error estimate fails the acceptance
            rule 100 max(ABS_TOL, REL_TOL |moment|).
    """
    from scipy.integrate import quad

    from oscpurity.model import MAX_DEPTH
    from oscpurity.perturbation import ABS_TOL, REL_TOL, coupling_lambda

    out = []
    for weight in ("cos", "sin"):
        val, err = quad(
            lambda u: coupling_lambda(u, p),
            lo,
            hi,
            weight=weight,
            wvar=p.omega_s + p.omega_e,
            epsabs=ABS_TOL,
            epsrel=REL_TOL,
            limit=max(50, 2 ** min(MAX_DEPTH, 12)),
        )
        assert err <= max(ABS_TOL, REL_TOL * abs(val)) * 100, err
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

    from oscpurity.model import frame_from_xi

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
        b = noise_B(t, traj.sigma_at(t), p)
        return np.concatenate([(k @ x).ravel(), (k @ ym + ym @ k.T + b).ravel()])

    y0 = np.concatenate([np.eye(2).ravel(), np.zeros(4)])
    sol = solve_ivp(
        rhs, (t_a, t_b), y0, method="RK45", rtol=rtol, atol=atol,
        max_step=(t_b - t_a) / 16.0,
    )
    assert sol.success, sol.message
    return sol.y[:4, -1].reshape(2, 2), sol.y[4:, -1].reshape(2, 2)


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


def purity_rate(sigma_s, gamma, b):
    """Purity velocity gamma_dot = -(gamma/2) Tr(sigma_S^{-1} B) at purity
    gamma = det(sigma_S)^{-1/2}, for one block or a stack."""
    from oscpurity.markov import _trace_adj

    return -0.5 * gamma * gamma * gamma * _trace_adj(sigma_s, b)


def cp_check(pair, tol=1e-10):
    """Complete-positivity witness of a finite map pair.

    Returns:
        (is_cp, witness): is_cp is True when the smallest eigenvalue of the
        Hermitian matrix Y - (i/2) Omega + (i/2) X Omega X^T is above -tol.
    """
    from oscpurity.symplectic import OMEGA2

    m = pair.Y - 0.5j * OMEGA2 + 0.5j * (pair.X @ OMEGA2 @ pair.X.T)
    witness = float(np.linalg.eigvalsh(m)[0])
    return witness >= -tol, witness


def gaussian_fidelity(sigma1, sigma2):
    """Uhlmann fidelity of two single-mode Gaussian states.

    F = 2 / [sqrt(det(s1 + s2) + Delta) - sqrt(Delta)] with
    Delta = (det s1 - 1)(det s2 - 1).

    Raises:
        NonPhysicalState: if either determinant is below 1 - 1e-6.
    """
    dets = [det2(s) for s in (sigma1, sigma2)]
    for d in dets:
        if d < 1.0 - DET_TOL:
            raise NonPhysicalState("covariance block determinant %.6g < 1" % d)
    d1, d2 = (max(d, 1.0) for d in dets)
    delta = (d1 - 1.0) * (d2 - 1.0)
    total = det2(sigma1 + sigma2)
    return 2.0 / (np.sqrt(total + delta) - np.sqrt(delta))


def bures_distance(sigma1, sigma2):
    """Bures distance sqrt(2 (1 - F)) of two single-mode Gaussian states."""
    f = gaussian_fidelity(sigma1, sigma2)
    return float(np.sqrt(max(2.0 * (1.0 - f), 0.0)))


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


def bogoliubov_coeffs(p):
    """Bogoliubov coefficients from operator continuity at the window edge.

    Args:
        p: ScenarioParams (xi0 is the plateau coupling; t0 the half-window).

    Returns:
        BogoliubovSet.

    Raises:
        CriticalPoint: if xi0 is within the guard band of the critical value.
    """
    from oscpurity.isoso import _frame_at_peak

    fr = _frame_at_peak(p)
    theta = fr.theta
    c, s = np.cos(theta), np.sin(theta)
    trig = {(1, "S"): c, (1, "E"): -s, (2, "S"): s, (2, "E"): c}
    mode_abs = {1: np.sqrt(abs(fr.omega1_sq)), 2: fr.omega2}
    # (-i)^delta: relative phase between position and momentum quadratures
    # of an imaginary-frequency mode (delta = 1 where omega1^2 < 0).
    delta_flag = int(fr.omega1_sq < 0)
    phase = {1: (-1j) ** delta_flag, 2: 1.0 + 0.0j}
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
    return BogoliubovSet(matrix=m, delta_flag=delta_flag)


def _mode_vectors(dt, fr):
    """Coefficient vectors expressing x_S and p_S over v at the times dt
    since the window start (a float, or an array: (..., 4) results)."""
    z1 = np.sqrt(complex(fr.omega1_sq))  # i |omega1| where omega1^2 < 0
    w1a, w2 = abs(z1), fr.omega2
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
    from oscpurity.isoso import _frame_at_peak

    f, g = _mode_vectors(t + p.t0, _frame_at_peak(p))
    m = bogoliubov_coeffs(p).matrix
    return f @ m, g @ m


def _real_row(phi):
    """(Re, Im) of the a_S and a_E coefficients: the real quadrature factor."""
    a_s, a_e = phi[..., 0], phi[..., 1]
    return np.stack([a_s.real, a_s.imag, a_e.real, a_e.imag], axis=-1)


def bogoliubov_purity(t, p):
    """Top-hat purity by the Bogoliubov route: 1/sqrt(4 det) of the Gram
    matrix of the real quadrature factors (Cauchy-Binet), at times t
    (a float or an array) inside the window [-t0, t0]."""
    phi_x, phi_p = _quadrature_rows(np.asarray(t, dtype=float), p)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return 1.0 / np.sqrt(4.0 * cauchy_binet(_real_row(phi_x), _real_row(phi_p)))


def b_correlators(bset):
    """Vacuum two-point functions C[i, j] = <v_i v_j> of the top-hat normal
    modes v = (b1, b2, bbar1, bbar2): the Bogoliubov matrix contracted
    against the free-vacuum correlators <a_I a_J^dag> = delta_IJ."""
    n = np.zeros((4, 4), dtype=complex)
    n[0, 2] = n[1, 3] = 1.0
    return bset.matrix @ n @ bset.matrix.T


def isoso_sigma_s(t, p):
    """System covariance block (2<x^2>, <xp+px>, 2<p^2>) inside the top-hat
    window at one time t in [-t0, t0], by the Bogoliubov route."""
    phi_x, phi_p = _quadrature_rows(t, p)
    x2 = abs(phi_x[0]) ** 2 + abs(phi_x[1]) ** 2
    p2 = abs(phi_p[0]) ** 2 + abs(phi_p[1]) ** 2
    xp = (phi_x[0] * np.conj(phi_p[0]) + phi_x[1] * np.conj(phi_p[1])).real
    return np.array([[2.0 * x2, 2.0 * xp], [2.0 * xp, 2.0 * p2]])


def decoherence_rate(p):
    """Late-time exponential decay rate |omega1| of the top-hat window, or
    None below criticality."""
    from oscpurity.model import frame_from_xi

    if p.xi0 <= p.xi_c:
        return None
    return float(np.sqrt(-frame_from_xi(p.xi0, p).omega1_sq))
