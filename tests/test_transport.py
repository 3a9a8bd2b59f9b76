"""Tests for the full-system transport integrator.

Two independent oracles: the constant-coupling propagator in closed form
(rotate to the normal-mode frame, evolve each mode with the exact 2x2
cos/cosh propagator, rotate back), valid for the top-hat profile; and
scipy's DOP853 at rtol 1e-12 (tests/numutil.py) for smooth profiles.
"""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numutil import (
    OMEGA4,
    decoherence_rate,
    det_sigma_via_propagator,
    dop853_propagators,
    environment_purity,
    generator_terms,
    ladder_level,
    purity_at,
    purity_from_block,
    solve_full_window,
    solve_per_segment,
)

from oscpurity import markov, output, transport
from oscpurity.errors import ConfigError, StepFailure
from oscpurity.model import (
    ISOSO,
    SMOOTH,
    IntegratorConfig,
    ScenarioParams,
    coupling_xi,
    frame_from_xi,
    switch_segments,
)
from oscpurity.presets import PRESETS
from oscpurity.transport import (
    default_sample_dt,
    integrate,
    propagate,
    purity_from_propagator,
    sigma_from_propagator,
)


def make_params(omega_e=2.0, psi=0.9, t0=10.0, tau=1.0, profile="smooth"):
    return ScenarioParams.from_psi(1.0, omega_e, psi, t0, tau, profile)


def vacuum(p):
    """Vacuum covariance diag(1/w_S, w_S, 1/w_E, w_E)."""
    return np.diag([1.0 / p.omega_s, p.omega_s, 1.0 / p.omega_e, p.omega_e])


def csv_text(traj):
    buf = io.StringIO()
    output.write_trajectory(buf, traj)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Closed-form constant-coupling oracle
# ---------------------------------------------------------------------------


def rot4(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [c, 0.0, -s, 0.0],
            [0.0, c, 0.0, -s],
            [s, 0.0, c, 0.0],
            [0.0, s, 0.0, c],
        ]
    )


def ublock(w2, dt):
    if w2 > 0:
        w = np.sqrt(w2)
        return np.array(
            [[np.cos(w * dt), np.sin(w * dt) / w], [-w * np.sin(w * dt), np.cos(w * dt)]]
        )
    if w2 < 0:
        k = np.sqrt(-w2)
        return np.array(
            [
                [np.cosh(k * dt), np.sinh(k * dt) / k],
                [k * np.sinh(k * dt), np.cosh(k * dt)],
            ]
        )
    return np.array([[1.0, dt], [0.0, 1.0]])


def oracle_propagator(t, p):
    """Exact top-hat propagator from t = -t0."""
    fr = frame_from_xi(p.xi0, p)
    dt = t + p.t0
    r = rot4(fr.theta)
    blk = np.zeros((4, 4))
    blk[:2, :2] = ublock(fr.omega1_sq, dt)
    blk[2:, 2:] = ublock(fr.omega2_sq, dt)
    return r.T @ blk @ r


def oracle_sigma(t, p):
    u = oracle_propagator(t, p)
    s0 = np.diag([1.0 / p.omega_s, p.omega_s, 1.0 / p.omega_e, p.omega_e])
    return u @ s0 @ u.T


# ---------------------------------------------------------------------------
# Basics
# ---------------------------------------------------------------------------


def test_vacuum_initial():
    p = make_params(t0=1.0)
    traj = integrate(p, IntegratorConfig())
    assert traj.t[0] == pytest.approx(p.t_in)
    assert np.allclose(
        traj.sigma[0], np.diag([1.0, 1.0, 0.5, 2.0])
    )


def hamiltonian(xi, p):
    """Quadratic form of the joint Hamiltonian, built independently."""
    return np.array(
        [
            [p.omega_s**2, 0.0, xi, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [xi, 0.0, p.omega_e**2, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def test_generator_layout():
    p = make_params()
    k0, k1 = generator_terms(p)
    assert np.array_equal(k0 + 0.7 * k1, OMEGA4 @ hamiltonian(0.7, p))
    assert np.array_equal(k0, OMEGA4 @ hamiltonian(0.0, p))


def test_generator_matches_transport_equation():
    # U' = K U carries sigma = U sigma0 U^T along
    # sigma' = Omega H sigma - sigma H Omega.
    p = make_params()
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    sigma = a @ a.T + np.eye(4)
    k0, k1 = generator_terms(p)
    k = k0 + float(p.xi0) * k1
    h = hamiltonian(float(p.xi0), p)
    expected = OMEGA4 @ h @ sigma - sigma @ h @ OMEGA4
    assert np.allclose(k @ sigma + sigma @ k.T, expected, atol=1e-12)


def test_zero_coupling_keeps_vacuum():
    p = ScenarioParams(1.0, 2.0, 0.0, 10.0, 1.0)
    traj = integrate(p, IntegratorConfig())
    assert np.allclose(traj.sigma[-1], traj.sigma[0], atol=1e-8)
    assert traj.purity_s[-1] == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# Against the closed-form oracle (top-hat)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("psi", [0.3, 0.9, 1.1])
def test_integrator_matches_oracle(psi):
    p = make_params(psi=psi, profile=ISOSO)
    traj = integrate(p, IntegratorConfig())
    for t in np.linspace(-9.5, 9.5, 9):
        ref = oracle_sigma(t, p)
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(traj.sigma_at(t) - ref)) / scale < 1e-7
        uref = oracle_propagator(t, p)
        uscale = max(1.0, np.max(np.abs(uref)))
        assert np.max(np.abs(traj.propagator_at(t) - uref)) / uscale < 1e-7


def test_purity_matches_oracle_blocks():
    p = make_params(psi=0.9, profile=ISOSO)
    traj = integrate(p, IntegratorConfig())
    for t in np.linspace(-9.0, 9.0, 7):
        ref = purity_from_block(oracle_sigma(t, p)[0:2, 0:2])
        assert purity_at(traj, t) == pytest.approx(ref, abs=1e-7)


def test_deep_supercritical_purity_stays_finite():
    # Far beyond the critical coupling the covariance entries overflow any
    # naive determinant; the propagator route must stay accurate.
    p = make_params(psi=2.5, profile=ISOSO)
    traj = integrate(p, IntegratorConfig())
    gamma = purity_at(traj, p.t0)
    assert 0.0 < gamma < 1e-8
    # Purity decays like exp(-|omega1| dt) deep in the window: check the
    # fitted slope of ln gamma over the second half.
    ts = np.linspace(2.0, 9.0, 15)
    lg = np.log(purity_at(traj, ts))
    slope = np.polyfit(ts, lg, 1)[0]
    assert slope == pytest.approx(-decoherence_rate(p), rel=0.05)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile", ["smooth", "isoso"])
def test_global_purity_and_symmetry(profile):
    p = make_params(psi=1.1, t0=5.0, profile=profile)
    traj = integrate(p, IntegratorConfig())
    measured = 0
    for i in range(0, len(traj.t), 50):
        sigma = traj.sigma[i]
        assert np.allclose(sigma, sigma.T, atol=1e-9)
        det, bound = det_sigma_via_propagator(traj.propagator[i], 1e-10)
        if bound < 1e-8:
            assert det == pytest.approx(1.0, abs=1e-8)
            measured += 1
    assert measured > 0
    # Joint state is pure, so both reduced purities coincide.
    purity_e = environment_purity(traj.propagator, p)
    assert np.max(np.abs(traj.purity_s - purity_e)) < 1e-8


def test_propagator_is_symplectic():
    p = make_params(psi=0.9, t0=5.0)
    traj = integrate(p, IntegratorConfig())
    for i in range(0, len(traj.t), 100):
        u = traj.propagator[i]
        assert np.allclose(u @ OMEGA4 @ u.T, OMEGA4, atol=1e-8)


def test_sigma_at_derives_sigma_from_propagator():
    p = make_params(t0=2.0)
    traj = integrate(p, IntegratorConfig())
    sigma = traj.sigma_at(0.0)
    u = traj.propagator_at(0.0)
    assert np.array_equal(sigma, sigma.T)
    ref = u @ vacuum(p) @ u.T
    assert np.allclose(sigma, ref, rtol=1e-13, atol=1e-13)


def test_repeated_queries_return_independent_copies():
    # Callers own what they get, at a step node as well as between nodes.
    traj = integrate(make_params(t0=2.0), IntegratorConfig())
    for t in (traj.t[0], 0.3):
        first = traj.propagator_at(t)
        first[:] = 0.0
        again = traj.propagator_at(t)
        assert np.any(again != 0.0)
        assert np.array_equal(again, traj.propagator_at(t))
    assert np.array_equal(traj.propagator_at(traj.t[0]), np.eye(4))


# ---------------------------------------------------------------------------
# Sampling, CSV
# ---------------------------------------------------------------------------


def test_sample_cadence_default():
    p = make_params(t0=2.0)
    cfg = IntegratorConfig()
    traj = integrate(p, cfg)
    dt = np.diff(traj.t)
    assert np.max(dt) <= default_sample_dt(p) * 1.5


def test_csv_layout_and_determinism():
    p = make_params(t0=1.0)
    cfg = IntegratorConfig()
    s1 = csv_text(integrate(p, cfg))
    s2 = csv_text(integrate(p, cfg))
    assert s1 == s2
    lines = s1.splitlines()
    assert lines[0] == "t,s11,s12,s22,e11,e12,e22,c11,c12,c21,c22,purity_s,xi"
    fields = lines[1].split(",")
    assert len(fields) == 13
    for field in fields:
        float(field)  # parses as a number
        assert "e" in field  # scientific notation


def test_isoso_reference_run_matches_analytic_window():
    p = make_params(psi=0.9, profile=ISOSO)
    traj = integrate(dataclasses.replace(p, profile=SMOOTH, tau=1e-4 * p.t0), IntegratorConfig())
    # The steep-switch reference stays close to the exact top-hat propagator.
    for t in (-5.0, 0.0, 5.0):
        ref = purity_from_block(oracle_sigma(t, p)[0:2, 0:2])
        assert purity_at(traj, t) == pytest.approx(ref, abs=5e-3)


def test_purity_from_propagator_identity():
    p = make_params()
    u = np.eye(4)
    assert purity_from_propagator(u, p) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Propagator-only state: invariants on random scenarios
# ---------------------------------------------------------------------------

#: Documented invariant bound at rtol = 1e-10: |U^T Omega U - Omega|,
#: |det sigma - 1| and |gamma_S - gamma_E| stay below INVARIANT_RTOLS * rtol *
#: max(1, |U|)^2 for w in [0.1, 0.95], tau in [0.1, 1], t0 = 1.  Every
#: Magnus step is the exponential of a Hamiltonian matrix, so only round-off
#: breaks the invariants.
INVARIANT_RTOLS = 1.0


def loop_purity(u, p, rows):
    """Per-matrix reference: Cauchy-Binet sum written out term by term."""
    l = u * np.sqrt([1.0 / p.omega_s, p.omega_s, 1.0 / p.omega_e, p.omega_e])
    r0, r1 = rows
    total = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            minor = l[r0, i] * l[r1, j] - l[r0, j] * l[r1, i]
            total += minor * minor
    return 1.0 / np.sqrt(total)


scenarios = st.tuples(
    st.floats(0.1, 0.95),
    st.one_of(st.floats(0.1, 0.95), st.floats(1.05, 1.6)),
    st.floats(0.1, 1.0),
)


@settings(max_examples=6, deadline=None)
@given(scenarios)
def test_propagator_state_invariants(case):
    w, psi, tau = case
    p = ScenarioParams.from_psi(1.0, 1.0 / w, psi, 1.0, tau)
    cfg = IntegratorConfig()
    traj = integrate(p, cfg)
    u = traj.propagator
    purity_e = environment_purity(u, p)
    vac = vacuum(p)
    for i in range(0, len(traj.t), 25):
        ref = u[i] @ vac @ u[i].T
        assert np.allclose(traj.sigma[i], ref, rtol=1e-13, atol=1e-13)
        for rows, purity in (((0, 1), traj.purity_s), ((2, 3), purity_e)):
            assert purity[i] == pytest.approx(loop_purity(u[i], p, rows), rel=1e-13)
    norm = np.maximum(1.0, np.max(np.abs(u), axis=(1, 2)))
    scale = INVARIANT_RTOLS * cfg.rtol * norm**2
    sympl = np.max(np.abs(np.swapaxes(u, 1, 2) @ OMEGA4 @ u - OMEGA4), axis=(1, 2))
    assert np.all(sympl < scale)
    assert np.all(np.abs(np.linalg.det(traj.sigma) - 1.0) < scale)
    assert np.all(np.abs(traj.purity_s - purity_e) < scale)


@settings(max_examples=4, deadline=None)
@given(scenarios)
def test_propagate_end_point_matches_integrate(case):
    w, psi, tau = case
    p = ScenarioParams.from_psi(1.0, 1.0 / w, psi, 1.0, tau)
    cfg = IntegratorConfig()
    traj = integrate(p, cfg)
    gamma_end = purity_from_propagator(propagate([p], cfg)[0], p)
    assert gamma_end == pytest.approx(traj.purity_s[-1], abs=10 * cfg.rtol)


@pytest.mark.parametrize("t_omega, tau", [(0.25, 1.6), (0.4, 0.8), (0.8, 1.6)])
def test_node_purities_are_the_step_node_purities(t_omega, tau):
    # One purity per step node of integrate's grid, the last at the end
    # point, so the late-time purity is the last sample's bit for bit; the
    # smallest deficit over the nodes is within 0.5% of the one over the
    # samples (scenarios of the threshold scan, at its tolerances).
    p = ScenarioParams.from_psi(1.0, 1.0 + 1.0 / t_omega, 0.9, 1.0, tau)
    cfg = IntegratorConfig(rtol=1e-7, atol=1e-9)
    gamma = transport.node_purities([p], cfg)[0]
    traj = integrate(p, cfg)
    assert np.array_equal(gamma, purity_at(traj, traj.step_t))
    assert gamma[-1] == traj.purity_s[-1]
    assert 1.0 - np.min(gamma) == pytest.approx(1.0 - np.min(traj.purity_s), rel=5e-3)


def test_sigma_from_propagator_stack_matches_single():
    p = make_params(psi=1.1, t0=2.0)
    traj = integrate(p, IntegratorConfig())
    stack = sigma_from_propagator(traj.propagator, p)
    for i in (0, len(traj.t) // 2, len(traj.t) - 1):
        assert np.array_equal(stack[i], sigma_from_propagator(traj.propagator[i], p))


# ---------------------------------------------------------------------------
# The Magnus integrator: its pieces, the DOP853 oracle, and its limits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p",
    [
        pytest.param(make_params(omega_e=2.3, psi=0.9), id="subcritical"),
        pytest.param(make_params(omega_e=100.0, psi=0.9), id="ratio-100"),
        pytest.param(make_params(psi=1.5), id="supercritical"),
        pytest.param(make_params(psi=0.97, t0=3.0, tau=1e-3), id="fast-switch"),
        pytest.param(make_params(psi=1.1, t0=3.0, profile=ISOSO), id="top-hat"),
    ],
)
def test_magnus_exponent_matches_textbook_formula(p):
    # Omega^[6] at the Gauss nodes (Blanes, Casas, Oteo & Ros 2009), built
    # literally from A_i = K0 + xi_i K1, against the closed form, over the
    # window and the switch regions and for steps from 1e-3 to 0.3.  The
    # closed form is Hamiltonian, om^T J + J om = 0, and traceless exactly.
    k0, k1 = generator_terms(p)

    def comm(x, y):
        return x @ y - y @ x

    t0 = np.concatenate([np.linspace(p.t_in, -p.t_in, 9), [-p.t0, p.t0 - 0.1]])
    for h in (1e-3, 0.01, 0.1, 0.3):
        got = transport._exponents(t0, np.full(len(t0), h), p)
        xis = coupling_xi(t0[:, None] + h * transport._GAUSS, p)
        for om, (a1, a2, a3) in zip(got, ((k0 + x * k1 for x in row) for row in xis)):
            alpha1 = h * a2
            alpha2 = np.sqrt(15.0) * h / 3.0 * (a3 - a1)
            alpha3 = 10.0 * h / 3.0 * (a3 - 2.0 * a2 + a1)
            c1 = comm(alpha1, alpha2)
            c2 = -comm(alpha1, 2.0 * alpha3 + c1) / 60.0
            ref = alpha1 + alpha3 / 12.0 + comm(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0
            assert np.max(np.abs(om - ref)) <= 4e-16 * np.max(np.abs(ref))
            assert np.array_equal(om.T @ OMEGA4, -(OMEGA4 @ om))
            assert np.trace(om) == 0.0


@pytest.mark.parametrize("scale, rel", [(0.05, 1e-15), (1.0, 1e-14), (30.0, 1e-13)])
def test_step_exponential_matches_expm(scale, rel):
    # Random Hamiltonian matrices Omega H (H symmetric), each alone and as
    # one stack, against a 50-digit exponential; the large scale exercises
    # scaling and squaring (results up to ~1e53).
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(7)
    stack = []
    for _ in range(5):
        a = rng.normal(size=(4, 4))
        stack.append(scale * OMEGA4 @ (a + a.T))
    stack = np.array(stack)
    ref = np.array(
        [np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(), dtype=float) for m in stack]
    )
    tol = rel * np.max(np.abs(ref), axis=(1, 2))
    batched = transport._expm(stack)
    for i, m in enumerate(stack):
        assert np.max(np.abs(transport._expm(m[None])[0] - ref[i])) < tol[i]
        assert np.max(np.abs(batched[i] - ref[i])) < tol[i]


ORACLE_CASES = [
    pytest.param(ScenarioParams.from_psi(1.0, 2.0, 0.9, 2.0, 0.5), id="subcritical"),
    pytest.param(ScenarioParams.from_psi(1.0, 2.0, 1.4, 2.0, 0.5), id="supercritical"),
    # The near-top-hat limit tau = 1e-4 t0 of a t0 = 2 top-hat scenario.
    pytest.param(make_params(psi=0.9, t0=2.0, tau=2e-4), id="near-top-hat"),
]


@pytest.mark.parametrize("p", ORACLE_CASES)
def test_magnus_matches_dop853_oracle(p):
    cfg = IntegratorConfig()
    traj = integrate(p, cfg)
    # Samples, arbitrary times (almost surely off the step grid) and the end
    # point, all against DOP853 at rtol 1e-12.
    rng = np.random.default_rng(11)
    idx = np.unique(rng.integers(0, len(traj.t), 12))
    t_any = np.sort(rng.uniform(p.t_in, -p.t_in, 12))
    ts = np.unique(np.concatenate([traj.t[idx], t_any, [-p.t_in]]))
    ref = dict(zip(ts, dop853_propagators(p, ts)))

    def check(u, t):
        scale = max(1.0, np.max(np.abs(ref[t])))
        assert np.max(np.abs(u - ref[t])) < 100.0 * cfg.rtol * scale, t

    for i in idx:
        check(traj.propagator[i], traj.t[i])
    for t in t_any:
        check(traj.propagator_at(t), t)
    check(propagate([p], cfg)[0], -p.t_in)


def test_integrator_is_exact_for_constant_coupling():
    # A top-hat segment has constant xi, so the first doubling already
    # agrees to round-off and the propagator is exact.
    p = make_params(psi=1.1, t0=3.0, profile=ISOSO)
    u = propagate([p], IntegratorConfig(rtol=1e-14, atol=0.0))[0]
    ref = oracle_propagator(p.t0, p)
    assert np.max(np.abs(u - ref)) < 1e-12 * np.max(np.abs(ref))


def test_cost_follows_tolerance():
    # The tolerance, not a fixed fraction of the period, sets the step grid:
    # a loose run keeps at most half the nodes of a tight one, and each run's
    # purity series stays within its rtol of an rtol 1e-14 run.
    p = make_params(psi=0.78, t0=2.0, tau=0.5)
    ref = integrate(p, IntegratorConfig(rtol=1e-14, atol=0.0))
    nodes = {}
    for rtol in (1e-7, 1e-10, 1e-12):
        traj = integrate(p, IntegratorConfig(rtol=rtol, atol=1e-2 * rtol))
        nodes[rtol] = len(traj.step_t)
        if rtol > 1e-12:
            np.testing.assert_allclose(traj.purity_s, ref.purity_s, rtol=rtol, atol=0.0)
    assert nodes[1e-7] <= nodes[1e-12] / 2, nodes


@pytest.mark.parametrize("profile", ["smooth", ISOSO])
def test_accepted_steps_are_at_most_half_the_start_cap(profile):
    # The first level is only the coarse estimate, so every accepted step is
    # at most half of the start grid's cap, a fifth of the fastest period,
    # even at a tolerance that the start grid would meet.
    p = make_params(t0=3.0, tau=0.5, profile=profile)
    traj = integrate(p, IntegratorConfig(rtol=1e-2, atol=1e-2))
    cap = 0.2 * 2.0 * np.pi / p.omega2_peak
    assert np.diff(traj.step_t).max() <= 0.5 * cap * (1.0 + 1e-12)


REFINEMENT_CASES = [
    pytest.param(make_params(t0=10.0, tau=0.5), IntegratorConfig(), False, id="smooth"),
    pytest.param(make_params(profile=ISOSO), IntegratorConfig(), False, id="top-hat"),
    # The plateau's fine level (4450 steps) spans two chunks.
    pytest.param(
        make_params(t0=640.0, tau=0.5), IntegratorConfig(), False, id="long-plateau"
    ),
    # The last segment converges a pass before the others, which take two
    # predicted levels after the first pass.
    pytest.param(
        make_params(t0=5.0, tau=1.0),
        IntegratorConfig(rtol=1e-15, atol=0.0),
        True,
        id="mixed-levels",
    ),
]


@pytest.mark.parametrize("p, cfg, mixed", REFINEMENT_CASES)
def test_batched_refinement_matches_per_segment_loop(p, cfg, mixed):
    # All segments refined together give the step grid and the node
    # propagators of one segment at a time, bit for bit.
    _, step_t, nodes, levels = solve_per_segment(p, cfg, keep_nodes=True)
    assert (len(set(levels)) > 1) == mixed, levels
    traj = integrate(p, cfg)
    np.testing.assert_array_equal(traj.step_t, step_t)
    np.testing.assert_array_equal(traj.step_u, nodes)
    # The samples are queries on the nodes, like any later query.
    np.testing.assert_array_equal(traj.propagator, traj.propagator_at(traj.t))
    stride = markov.SERIES_STRIDE
    np.testing.assert_array_equal(
        traj.propagator[::stride], traj.propagator_at(traj.t[::stride])
    )
    end, _, _, _ = solve_per_segment(p, cfg, keep_nodes=False)
    np.testing.assert_array_equal(propagate([p], cfg)[0], end)


MIRROR_CASES = [
    pytest.param(ScenarioParams.from_psi(1.0, 2.0, 0.9, 2.0, 0.5), id="subcritical"),
    pytest.param(ScenarioParams.from_psi(1.0, 2.0, 1.0, 2.0, 0.5), id="critical"),
    # fig2's deepest scenario, where U grows to ~1e7 over the plateau.
    pytest.param(ScenarioParams.from_psi(1.0, 2.0, 1.5, 10.0, 1.0), id="supercritical"),
    pytest.param(make_params(psi=1.1, t0=3.0, profile=ISOSO), id="top-hat"),
]


@pytest.mark.parametrize("p", MIRROR_CASES)
def test_mirrored_march_matches_full_window_oracle(p):
    # Stepping t >= 0 and mirroring it onto t < 0 gives the propagators of
    # stepping the whole window to within the tolerance, at the end point,
    # at the samples and, as purities, at the step nodes; every node of
    # t <= 0 stays unimodular and symplectic to round-off.
    cfg = IntegratorConfig()
    ref_end, ref_t, ref_u, _ = solve_full_window(p, cfg, keep_nodes=True)
    oracle = transport.Trajectory(ref_t, p, ref_t, ref_u)

    def close(u, ref):
        scale = np.maximum(1.0, np.max(np.abs(ref), axis=(-2, -1)))
        assert np.all(np.max(np.abs(u - ref), axis=(-2, -1)) <= cfg.rtol * scale)

    close(propagate([p], cfg)[0], ref_end)
    traj = integrate(p, cfg)
    assert traj.step_t[0] == p.t_in and np.all(np.diff(traj.step_t) > 0)
    close(traj.propagator, oracle.propagator_at(traj.t))
    gamma = transport.node_purities([p], cfg)[0]
    ref_gamma = purity_from_propagator(oracle.propagator_at(traj.step_t), p)
    np.testing.assert_allclose(gamma, ref_gamma, rtol=0.0, atol=cfg.rtol)
    u = traj.step_u[traj.step_t <= 0.0]
    bound = 1e-12 * np.maximum(1.0, np.max(np.abs(u), axis=(1, 2))) ** 2
    assert np.all(np.abs(np.linalg.det(u) - 1.0) <= bound)
    gap = np.swapaxes(u, 1, 2) @ OMEGA4 @ u - OMEGA4
    assert np.all(np.max(np.abs(gap), axis=(1, 2)) <= bound)


@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
@pytest.mark.parametrize(
    "p",
    [
        pytest.param(PRESETS["fig2"][1][3], id="fig2-psi-1.5"),
        pytest.param(PRESETS["fig14c"][1][0], id="fig14c"),
    ],
)
def test_predicted_levels_meet_the_tolerance_of_the_ladder(p, rtol):
    # The grid of the predicted levels is coarser than the doubling ladder's,
    # yet its samples lie within the tolerance of a ladder reference solved
    # at a thousandth of it.
    cfg = IntegratorConfig(rtol=rtol, atol=1e-2 * rtol)
    tight = IntegratorConfig(rtol=1e-3 * rtol, atol=1e-5 * rtol)
    _, ref_t, ref_u, _ = solve_per_segment(p, tight, keep_nodes=True, next_level=ladder_level)
    traj = integrate(p, cfg)
    ref = transport.Trajectory(ref_t, p, ref_t, ref_u).propagator_at(traj.t)
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=(1, 2)))
    assert np.all(np.max(np.abs(traj.propagator - ref), axis=(1, 2)) <= rtol * scale)


def test_mirror_halves_the_step_exponentials(monkeypatch):
    # A fixed-window propagate computes at most 55% of the Magnus
    # exponentials of stepping the whole window, and integrate keeps the
    # whole window's accepted grids on test_cost_follows_tolerance's
    # scenario.
    p = make_params(psi=0.78, t0=2.0, tau=0.5)
    counted = []
    expm = transport._expm

    def counting(om):
        counted.append(len(om))
        return expm(om)

    monkeypatch.setattr(transport, "_expm", counting)
    cfg = IntegratorConfig()
    propagate([p], cfg)
    mirrored = sum(counted)
    counted.clear()
    solve_full_window(p, cfg, keep_nodes=False)
    assert mirrored <= 0.55 * sum(counted), (mirrored, sum(counted))
    for rtol in (1e-7, 1e-10, 1e-12):
        cfg = IntegratorConfig(rtol=rtol, atol=1e-2 * rtol)
        _, ref_t, _, _ = solve_full_window(p, cfg, keep_nodes=True)
        assert len(integrate(p, cfg).step_t) == len(ref_t), rtol


def test_stepper_calls_per_level(monkeypatch):
    # Three segments of t >= 0 that converge at the first doubling and fit
    # one chunk: the one pass evaluates the coarse and the fine level in one
    # _expm batch, and the samples are one more; the fine level steps half
    # of the window, the other half being its mirror.
    p = make_params(t0=10.0, tau=0.5)
    calls = []
    expm = transport._expm

    def counted(om):
        calls.append(len(om))
        return expm(om)

    monkeypatch.setattr(transport, "_expm", counted)
    assert len(switch_segments(p, 0.0, -p.t_in, np.inf, switch_cap=p.tau / 20)) == 3
    traj = integrate(p, IntegratorConfig())
    assert len(calls) == 2
    assert 4 * calls[0] == 3 * (len(traj.step_t) - 1) <= 4 * transport._CHUNK
    calls.clear()
    propagate([p], IntegratorConfig())
    assert len(calls) == 1
    # Levels longer than a chunk still go in batches of at most one chunk.
    calls.clear()
    integrate(make_params(t0=200.0, tau=5.0), IntegratorConfig())
    assert sum(calls) > 2 * transport._CHUNK >= 2 * max(calls)


def test_series_derived_on_demand(monkeypatch):
    derived = []
    sigma = transport.sigma_from_propagator

    def counted(u, p):
        derived.append(len(u))
        return sigma(u, p)

    monkeypatch.setattr(transport, "sigma_from_propagator", counted)
    traj = integrate(make_params(t0=2.0), IntegratorConfig())
    assert traj.purity_s[-1] > 0.0
    assert derived == []
    first = traj.sigma
    assert traj.sigma is first
    assert derived == [len(traj.t)]


def test_step_failures_match_per_segment_loop(monkeypatch):
    # The budget failure names the same segment as the per-segment loop.
    monkeypatch.setattr(transport, "MAX_STEPS", 64)
    p, cfg = make_params(t0=1.0), IntegratorConfig(rtol=1e-15, atol=0.0)
    with pytest.raises(StepFailure) as ref:
        solve_per_segment(p, cfg, keep_nodes=True)
    with pytest.raises(StepFailure) as got:
        integrate(p, cfg)
    assert str(got.value) == str(ref.value)


#: Scenarios solved in one call, with their shared config: a fig12-type tau
#: grid at its tight tolerances, and a threshold scan's predicted bracket
#: pair (T_omega a factor sqrt(1.1) either side of 0.6).
BATCH_CASES = {
    "tau-grid": (
        [make_params(t0=0.5, tau=tau) for tau in 2.0 * np.geomspace(1.0, 1.75, 4)],
        IntegratorConfig(rtol=1e-12, atol=1e-14),
    ),
    "bracket-pair": (
        [make_params(omega_e=1.0 + 1.0 / t, t0=1.0) for t in 0.6 * 1.1 ** np.array([-0.5, 0.5])],
        IntegratorConfig(rtol=1e-7, atol=1e-9),
    ),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_scenarios_solved_together_match_each_solved_alone(case, monkeypatch):
    # Each scenario's end point and node purities are those of solving it
    # alone and of the per-segment loop, bit for bit, and every refinement
    # pass over all scenarios is one _expm batch (each fits one chunk), the
    # first evaluating two levels.
    ps, cfg = BATCH_CASES[case]
    calls = []
    expm = transport._expm

    def counted(om):
        calls.append(len(om))
        return expm(om)

    monkeypatch.setattr(transport, "_expm", counted)
    together = propagate(ps, cfg)
    passes = len(calls)
    levels = []
    for p, u in zip(ps, together):
        end, _, _, seg_levels = solve_per_segment(p, cfg, keep_nodes=False)
        levels += seg_levels
        np.testing.assert_array_equal(u, end)
        np.testing.assert_array_equal(u, propagate([p], cfg)[0])
    assert passes == max(levels) - 1
    for p, gamma in zip(ps, transport.node_purities(ps, cfg)):
        np.testing.assert_array_equal(gamma, transport.node_purities([p], cfg)[0])
    # A list longer than a group is solved group after group, to the same bits.
    monkeypatch.setattr(transport, "_GROUP", len(ps) - 1)
    for u, v in zip(propagate(ps, cfg), together):
        np.testing.assert_array_equal(u, v)


def test_predicted_levels_cut_the_tau_grid_exponentials(monkeypatch):
    # The fig12-type tau grid at rtol 1e-12 took 7,085 exponentials in four
    # passes on the doubling ladder; the predicted levels converge in two.
    ps, cfg = BATCH_CASES["tau-grid"]
    calls = []
    expm = transport._expm

    def counted(om):
        calls.append(len(om))
        return expm(om)

    monkeypatch.setattr(transport, "_expm", counted)
    propagate(ps, cfg)
    assert sum(calls) <= 0.7 * 7085 and len(calls) <= 2, calls


def test_expm_of_a_stack_is_each_matrix_alone():
    # A stack that mixes a matrix needing squarings with small ones gives
    # every matrix its exponential alone, bit for bit.
    rng = np.random.default_rng(3)
    stack = []
    for scale in (1e-4, 30.0, 0.01, 0.3, 2.0):
        a = rng.normal(size=(4, 4))
        stack.append(scale * OMEGA4 @ (a + a.T))
    batched = transport._expm(np.array(stack))
    for m, e in zip(stack, batched):
        np.testing.assert_array_equal(e, transport._expm(m[None])[0])


@pytest.mark.parametrize("first", ["converges", "fails"])
def test_batch_failure_is_the_serial_loops(first, monkeypatch):
    # A batch whose second scenario fails raises the message of solving the
    # scenarios one after the other: the second's behind a top-hat that
    # converges, the first's when both fail, also when each is its own group.
    monkeypatch.setattr(transport, "MAX_STEPS", 64)
    cfg = IntegratorConfig(rtol=1e-15, atol=0.0)
    head = {
        "converges": make_params(psi=1.1, t0=1.0, profile=ISOSO),
        "fails": make_params(psi=0.78, t0=0.3, tau=0.2),
    }[first]
    ps = [head, make_params(psi=0.78, t0=1.0)]
    with pytest.raises(StepFailure) as ref:
        for p in ps:
            solve_per_segment(p, cfg, keep_nodes=True)
    for group in (2, 1):
        monkeypatch.setattr(transport, "_GROUP", group)
        for solve in (propagate, transport.node_purities):
            with pytest.raises(StepFailure) as got:
                solve(ps, cfg)
            assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("order", [("late", "now"), ("now", "late")])
def test_batch_raises_the_first_failure_in_list_order(order, monkeypatch):
    # late fails after two refinement passes and now before any: every
    # segment settles before the batch raises, and the failure raised is the
    # first in list order, not the first to happen.
    monkeypatch.setattr(transport, "MAX_STEPS", 1024)
    cfg = IntegratorConfig(rtol=1e-15, atol=0.0)
    scenarios = {
        "late": make_params(psi=0.78, t0=1.0),
        "now": make_params(psi=0.78, t0=1000.0),
    }
    messages = {
        "late": "no convergence on [-9, 9] within 1024 steps",
        "now": "[-990, 990] needs more than 1024 steps",
    }
    for solve in (propagate, transport.node_purities):
        with pytest.raises(StepFailure) as got:
            solve([scenarios[name] for name in order], cfg)
        assert str(got.value) == messages[order[0]]


def test_no_convergence_within_budget_is_step_failure(monkeypatch):
    monkeypatch.setattr(transport, "MAX_STEPS", 64)
    with pytest.raises(StepFailure):
        integrate(make_params(t0=1.0), IntegratorConfig(rtol=1e-15, atol=0.0))


@pytest.mark.parametrize(
    "field, value",
    [
        ("rtol", 0.0),
        ("rtol", -1.0),
        ("rtol", float("nan")),
        ("rtol", float("inf")),
        ("atol", -1e-12),
        ("atol", float("nan")),
        ("atol", float("inf")),
        ("sample_dt", 0.0),
        ("sample_dt", -1.0),
        ("sample_dt", float("nan")),
        ("sample_dt", float("inf")),
    ],
)
def test_integrator_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError):
        IntegratorConfig(**{field: value})
    with pytest.raises(ConfigError):
        dataclasses.replace(IntegratorConfig(), **{field: value})
