"""Tests for the full-system transport integrator.

Two independent oracles: the constant-coupling propagator in closed form
(rotate to the normal-mode frame, evolve each mode with the exact 2x2
cos/cosh propagator, rotate back), valid for the top-hat profile; and
scipy's DOP853 at rtol 1e-12 (tests/numutil.py) for smooth profiles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numutil import cutoff_time_brentq, det_sigma_via_propagator, dop853_propagators

from oscpurity import transport
from oscpurity.errors import ConfigError, StepFailure
from oscpurity.model import ISOSO, ScenarioParams, frame_from_xi
from oscpurity.symplectic import OMEGA4, purity_from_block
from oscpurity.transport import (
    IntegratorConfig,
    default_sample_dt,
    generator_terms,
    integrate,
    isoso_reference_run,
    propagate,
    purity_from_propagator,
    sigma_from_propagator,
    vacuum_initial,
)


def make_params(omega_e=2.0, psi=0.9, t0=10.0, tau=1.0, profile="smooth"):
    return ScenarioParams.from_psi(1.0, omega_e, psi, t0, tau, profile)


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
    p = make_params()
    state = vacuum_initial(p)
    assert state.t == pytest.approx(p.t_in)
    assert np.allclose(
        state.sigma, np.diag([1.0, 1.0, 0.5, 2.0])
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
        assert traj.purity_at(t) == pytest.approx(ref, abs=1e-7)


def test_deep_supercritical_purity_stays_finite():
    # Far beyond the critical coupling the covariance entries overflow any
    # naive determinant; the propagator route must stay accurate.
    p = make_params(psi=2.5, profile=ISOSO)
    traj = integrate(p, IntegratorConfig())
    fr = frame_from_xi(p.xi0, p)
    gamma = traj.purity_at(p.t0)
    assert 0.0 < gamma < 1e-8
    # Purity decays like exp(-|omega1| dt) deep in the window: check the
    # fitted slope of ln gamma over the second half.
    ts = np.linspace(2.0, 9.0, 15)
    lg = np.log([traj.purity_at(t) for t in ts])
    slope = np.polyfit(ts, lg, 1)[0]
    assert slope == pytest.approx(-fr.omega1_abs, rel=0.05)


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
    assert np.max(np.abs(traj.purity_s - traj.purity_e)) < 1e-8


def test_propagator_is_symplectic():
    p = make_params(psi=0.9, t0=5.0)
    traj = integrate(p, IntegratorConfig())
    for i in range(0, len(traj.t), 100):
        u = traj.propagator[i]
        assert np.allclose(u @ OMEGA4 @ u.T, OMEGA4, atol=1e-8)


def test_state_at_derives_sigma_from_propagator():
    p = make_params(t0=2.0)
    traj = integrate(p, IntegratorConfig())
    state = traj.state_at(0.0)
    u = traj.propagator_at(0.0)
    assert state.t == 0.0
    assert np.array_equal(state.sigma, state.sigma.T)
    ref = u @ vacuum_initial(p).sigma @ u.T
    assert np.allclose(state.sigma, ref, rtol=1e-13, atol=1e-13)
    assert traj.purity_at(0.0) == purity_from_propagator(u, p)


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
# Sampling, end policies, CSV
# ---------------------------------------------------------------------------


def test_sample_cadence_default():
    p = make_params(t0=2.0)
    cfg = IntegratorConfig()
    traj = integrate(p, cfg)
    dt = np.diff(traj.t)
    assert np.max(dt) <= default_sample_dt(p) * 1.5


def test_cutoff_policy_stops_at_threshold():
    p = make_params(t0=2.0, tau=1.0)
    cut = integrate(p, IntegratorConfig(t_end_policy="cutoff"))
    from oscpurity.model import coupling_xi

    assert cut.t_end > p.t0
    assert coupling_xi(cut.t_end, p) / p.xi_c == pytest.approx(1e-10, rel=0.01)


@pytest.mark.parametrize("ratio", [1e-3, 1.0, 50.0, 1e3])
@pytest.mark.parametrize("threshold", [1e-10, 1e-3, 0.3])
def test_cutoff_time_matches_brentq_oracle(ratio, threshold):
    # t0/tau = 50 and 1e3 put cosh(2 t0/tau) past the float range.
    p = make_params(t0=1.0, tau=1.0 / ratio)
    cfg = IntegratorConfig(t_end_policy="cutoff", cutoff_threshold=threshold)
    ref = cutoff_time_brentq(p, threshold)
    assert abs(transport._resolve_t_end(p, cfg) - ref) <= 4e-16 * ref


def test_csv_layout_and_determinism():
    p = make_params(t0=1.0)
    cfg = IntegratorConfig()
    s1 = integrate(p, cfg).to_csv_string()
    s2 = integrate(p, cfg).to_csv_string()
    assert s1 == s2
    lines = s1.splitlines()
    assert lines[0] == "t,s11,s12,s22,e11,e12,e22,c11,c12,c21,c22,purity_s,xi"
    fields = lines[1].split(",")
    assert len(fields) == 13
    for field in fields:
        float(field)  # parses as a number
        assert "e" in field  # scientific notation


def test_to_csv_writes_file(tmp_path):
    p = make_params(t0=1.0)
    traj = integrate(p, IntegratorConfig())
    path = str(tmp_path / "traj.csv")
    traj.to_csv(path)
    with open(path) as f:
        assert f.read() == traj.to_csv_string()


def test_isoso_reference_run_matches_analytic_window():
    p = make_params(psi=0.9, profile=ISOSO)
    traj = isoso_reference_run(p, IntegratorConfig())
    # The steep-switch reference stays close to the exact top-hat propagator.
    for t in (-5.0, 0.0, 5.0):
        ref = purity_from_block(oracle_sigma(t, p)[0:2, 0:2])
        assert traj.purity_at(t) == pytest.approx(ref, abs=5e-3)


def test_purity_from_propagator_identity():
    p = make_params()
    u = np.eye(4)
    assert purity_from_propagator(u, p) == pytest.approx(1.0)
    assert purity_from_propagator(u, p, mode="E") == pytest.approx(1.0)


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
    vac = vacuum_initial(p).sigma
    for i in range(0, len(traj.t), 25):
        ref = u[i] @ vac @ u[i].T
        assert np.allclose(traj.sigma[i], ref, rtol=1e-13, atol=1e-13)
        for rows, purity in (((0, 1), traj.purity_s), ((2, 3), traj.purity_e)):
            assert purity[i] == pytest.approx(loop_purity(u[i], p, rows), rel=1e-13)
    norm = np.maximum(1.0, np.max(np.abs(u), axis=(1, 2)))
    scale = INVARIANT_RTOLS * cfg.rtol * norm**2
    sympl = np.max(np.abs(np.swapaxes(u, 1, 2) @ OMEGA4 @ u - OMEGA4), axis=(1, 2))
    assert np.all(sympl < scale)
    assert np.all(np.abs(np.linalg.det(traj.sigma) - 1.0) < scale)
    assert np.all(np.abs(traj.purity_s - traj.purity_e) < scale)


@settings(max_examples=4, deadline=None)
@given(scenarios)
def test_propagate_end_point_matches_integrate(case):
    w, psi, tau = case
    p = ScenarioParams.from_psi(1.0, 1.0 / w, psi, 1.0, tau)
    cfg = IntegratorConfig(t_end_policy="cutoff")
    traj = integrate(p, cfg)
    gamma_end = purity_from_propagator(propagate(p, cfg), p)
    assert gamma_end == pytest.approx(traj.purity_s[-1], abs=10 * cfg.rtol)


def test_sigma_from_propagator_stack_matches_single():
    p = make_params(psi=1.1, t0=2.0)
    traj = integrate(p, IntegratorConfig())
    stack = sigma_from_propagator(traj.propagator, p)
    for i in (0, len(traj.t) // 2, len(traj.t) - 1):
        assert np.array_equal(stack[i], sigma_from_propagator(traj.propagator[i], p))


# ---------------------------------------------------------------------------
# The Magnus integrator: its pieces, the DOP853 oracle, and its limits
# ---------------------------------------------------------------------------


def test_magnus_exponent_matches_textbook_formula():
    # Omega^[6] at the Gauss nodes (Blanes, Casas, Oteo & Ros 2009), built
    # literally from A_i = K0 + xi_i K1, against the reduced commutator basis.
    p = make_params(omega_e=2.3, psi=0.9)
    k0, k1 = generator_terms(p)
    h, xis = 0.3, (0.4, 1.1, 0.7)
    a1, a2, a3 = (k0 + x * k1 for x in xis)

    def comm(x, y):
        return x @ y - y @ x

    alpha1 = h * a2
    alpha2 = np.sqrt(15.0) * h / 3.0 * (a3 - a1)
    alpha3 = 10.0 * h / 3.0 * (a3 - 2.0 * a2 + a1)
    c1 = comm(alpha1, alpha2)
    c2 = -comm(alpha1, 2.0 * alpha3 + c1) / 60.0
    expected = alpha1 + alpha3 / 12.0 + comm(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0
    basis = transport._MagnusStepper(p).basis
    got = np.dot(transport._omega_coefficients(h, *xis), basis).reshape(4, 4)
    assert np.allclose(got, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("scale, rel", [(0.05, 1e-15), (1.0, 1e-14), (30.0, 1e-13)])
def test_step_exponential_matches_expm(scale, rel):
    # Random Hamiltonian matrices Omega H (H symmetric), one at a time and as
    # a stack, against a 50-digit exponential; the large scale exercises
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
        assert np.max(np.abs(transport._expm(m) - ref[i])) < tol[i]
        assert np.max(np.abs(batched[i] - ref[i])) < tol[i]


ORACLE_CASES = [
    pytest.param(ScenarioParams.from_psi(1.0, 2.0, 0.9, 2.0, 0.5), integrate, id="subcritical"),
    pytest.param(ScenarioParams.from_psi(1.0, 2.0, 1.4, 2.0, 0.5), integrate, id="supercritical"),
    pytest.param(make_params(psi=0.9, t0=2.0, profile=ISOSO), isoso_reference_run, id="near-top-hat"),
]


@pytest.mark.parametrize("p, run", ORACLE_CASES)
def test_magnus_matches_dop853_oracle(p, run):
    cfg = IntegratorConfig()
    traj = run(p, cfg)
    p_run = traj.params
    # Samples, arbitrary times (almost surely off the step grid) and the end
    # point, all against DOP853 at rtol 1e-12.
    rng = np.random.default_rng(11)
    idx = np.unique(rng.integers(0, len(traj.t), 12))
    t_any = np.sort(rng.uniform(p_run.t_in, traj.t_end, 12))
    ts = np.unique(np.concatenate([traj.t[idx], t_any, [traj.t_end]]))
    ref = dict(zip(ts, dop853_propagators(p_run, ts)))

    def check(u, t):
        scale = max(1.0, np.max(np.abs(ref[t])))
        assert np.max(np.abs(u - ref[t])) < 100.0 * cfg.rtol * scale, t

    for i in idx:
        check(traj.propagator[i], traj.t[i])
    for t in t_any:
        check(traj.propagator_at(t), t)
    check(propagate(p_run, cfg), traj.t_end)


def test_integrator_is_exact_for_constant_coupling():
    # A top-hat segment has constant xi, so the first doubling already
    # agrees to round-off and the propagator is exact.
    p = make_params(psi=1.1, t0=3.0, profile=ISOSO)
    u = propagate(p, IntegratorConfig(rtol=1e-14, atol=0.0))
    ref = oracle_propagator(p.t0, p)
    assert np.max(np.abs(u - ref)) < 1e-12 * np.max(np.abs(ref))


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
        ("max_step", 0.0),
        ("max_step", -0.1),
        ("max_step", float("nan")),
        ("max_step", float("inf")),
        ("sample_dt", 0.0),
        ("sample_dt", -1.0),
        ("sample_dt", float("nan")),
        ("sample_dt", float("inf")),
        ("cutoff_threshold", 0.0),
        ("cutoff_threshold", 1.0),
        ("cutoff_threshold", float("nan")),
        ("t_end_policy", "bogus"),
    ],
)
def test_integrator_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError):
        IntegratorConfig(**{field: value})
    with pytest.raises(ConfigError):
        IntegratorConfig().with_updates(**{field: value})
