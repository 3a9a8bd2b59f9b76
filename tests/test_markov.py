"""Tests for the reduced dynamics, Gaussian maps, fidelity/Bures
diagnostics, and Markovian surrogates."""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from numutil import (
    OMEGA4,
    NonPhysicalState,
    bures_distance,
    cp_check,
    gaussian_fidelity,
    map_pair_rk45,
    purity_at,
    purity_rate,
)

from oscpurity.markov import (
    SERIES_STRIDE,
    _one_minus_fidelity_pert,
    best_markovian_B,
    bures_velocity,
    bures_velocity_fd,
    compose,
    cp_check_infinitesimal,
    drop_negative_B,
    map_pair_evolve,
    markov_series,
    noise_B,
    reduced_rhs,
    surrogate_B,
    system_hamiltonian,
)
from oscpurity.model import SURROGATES, IntegratorConfig, ScenarioParams
from oscpurity.presets import PRESETS
from oscpurity.symplectic import det2, eig_sym2, symmetrize
from oscpurity.transport import integrate, purity_from_propagator, sigma_from_propagator


def make_params():
    # Fast-switching supercritical scenario with strong recoherence swings.
    return ScenarioParams.from_psi(1.0, 2.0, 1.1, 5.0, 1.0, "smooth")


@pytest.fixture(scope="module")
def traj():
    return integrate(make_params(), IntegratorConfig())


def random_state(rng, mixed=True):
    """Random physical single-mode covariance block."""
    phi = rng.uniform(0, 2 * np.pi)
    r = rng.uniform(0.0, 1.0)
    nu = 1.0 + (rng.uniform(0.05, 2.0) if mixed else 0.0)
    c, s = np.cos(phi), np.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    sq = np.diag([np.exp(r), np.exp(-r)])
    return nu * rot @ sq @ rot.T


# ---------------------------------------------------------------------------
# Noise matrix and reduced transport
# ---------------------------------------------------------------------------


def test_noise_matrix_structure(traj):
    p = make_params()
    sigma = traj.sigma_at(0.0)
    b = noise_B(0.0, sigma, p)
    lambda_minus, lambda_plus = eig_sym2(b)
    xi = float(traj.xi[np.argmin(np.abs(traj.t))])
    assert b[0, 0] == 0.0
    assert b[0, 1] == pytest.approx(b[1, 0])
    assert b[0, 1] == pytest.approx(-xi * sigma[0, 2], rel=1e-6)
    assert lambda_minus <= lambda_plus
    # det B = -xi^2 c11^2 <= 0 always.
    assert det2(b) <= 0.0


def test_reduced_rhs_matches_full_dynamics(traj):
    # The reduced equation with the exact B reproduces d sigma_S/dt.
    p = make_params()
    t = 1.7
    h = 1e-5
    s_plus = traj.sigma_at(t + h)[0:2, 0:2]
    s_minus = traj.sigma_at(t - h)[0:2, 0:2]
    fd = (s_plus - s_minus) / (2.0 * h)
    sigma = traj.sigma_at(t)
    rhs = reduced_rhs(sigma[0:2, 0:2], noise_B(t, sigma, p), p)
    assert np.allclose(rhs, fd, rtol=1e-4, atol=1e-6)


def test_purity_rate_matches_fd(traj):
    p = make_params()
    t = 1.7
    h = 1e-6
    fd = (purity_at(traj, t + h) - purity_at(traj, t - h)) / (2.0 * h)
    sigma = traj.sigma_at(t)
    rate = purity_rate(sigma[0:2, 0:2], purity_at(traj, t), noise_B(t, sigma, p))
    assert rate == pytest.approx(fd, rel=1e-4)


def test_system_hamiltonian():
    p = make_params()
    assert np.array_equal(system_hamiltonian(p), np.diag([1.0, 1.0]))


# ---------------------------------------------------------------------------
# Gaussian maps and complete positivity
# ---------------------------------------------------------------------------


def test_map_composition_identity(traj):
    p = make_params()
    full = map_pair_evolve(p, traj, -2.0, 2.0)
    first = map_pair_evolve(p, traj, -2.0, 0.3)
    second = map_pair_evolve(p, traj, 0.3, 2.0)
    joined = compose(first, second)
    assert np.max(np.abs(joined.X - full.X)) < 1e-8
    assert np.max(np.abs(joined.Y - full.Y)) < 1e-8


def test_map_reproduces_reduced_state(traj):
    p = make_params()
    t_a, t_b = -2.0, 2.0
    pair = map_pair_evolve(p, traj, t_a, t_b)
    s_a = traj.sigma_at(t_a)[0:2, 0:2]
    s_b = traj.sigma_at(t_b)[0:2, 0:2]
    mapped = pair.X @ s_a @ pair.X.T + pair.Y
    assert np.max(np.abs(mapped - s_b)) < 1e-7


@pytest.mark.parametrize("t_a, t_b", [(-2.0, 2.0), (-6.0, 6.0), (0.3, 0.9)])
def test_map_pair_matches_rk45_oracle_and_difference_formula(traj, t_a, t_b):
    # Y against the map-pair ODE and against sigma_S(t_b) - X sigma_S(t_a) X^T,
    # which the exact reduced equation makes equal to it.
    p = make_params()
    pair = map_pair_evolve(p, traj, t_a, t_b)
    x_ref, y_ref = map_pair_rk45(p, traj, t_a, t_b)
    scale = max(1.0, np.max(np.abs(pair.Y)))
    assert np.max(np.abs(pair.X - x_ref)) < 1e-11
    assert np.max(np.abs(pair.Y - y_ref)) < 1e-10 * scale
    s_a = traj.sigma_at(t_a)[0:2, 0:2]
    s_b = traj.sigma_at(t_b)[0:2, 0:2]
    diff = s_b - pair.X @ s_a @ pair.X.T
    assert np.max(np.abs(pair.Y - diff)) < 1e-10 * scale


def test_map_pair_outside_trajectory_is_rejected(traj):
    with pytest.raises(ValueError):
        map_pair_evolve(make_params(), traj, traj.t[0] - 1.0, 0.0)


def test_exact_map_is_not_cp(traj):
    # The exact reduced map over an interval with information backflow
    # fails the complete-positivity witness.
    p = make_params()
    pair = map_pair_evolve(p, traj, -3.0, 3.0)
    is_cp, witness = cp_check(pair)
    assert not is_cp
    assert witness < -1e-6


def test_symplectic_unitary_map_is_cp():
    from oscpurity.markov import MapPair

    phi = 0.7
    x = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
    pair = MapPair(x, np.zeros((2, 2)))
    is_cp, witness = cp_check(pair)
    assert is_cp
    assert abs(witness) < 1e-12


def test_infinitesimal_cp():
    ok, lam = cp_check_infinitesimal(np.diag([0.3, 0.1]))
    assert ok and lam >= 0
    bad, lam = cp_check_infinitesimal(np.array([[0.0, 0.2], [0.2, 0.1]]))
    assert not bad and lam < 0


def test_infinitesimal_cp_tolerance_scales_with_b():
    # A rank-one PSD B of size ~1e4 whose zero eigenvalue comes out of the
    # closed form as round-off below -1e-12: still CP.
    b = np.array(
        [
            [9963.015445409183, 10459.433980752927],
            [10459.433980752927, 10980.587132195893],
        ]
    )
    ok, lam = cp_check_infinitesimal(b)
    assert -1e-11 < lam < -1e-12
    assert ok
    # A clearly negative eigenvalue at the same scale is still not CP.
    v = np.array([b[0, 1], -b[0, 0]]) / np.hypot(b[0, 0], b[0, 1])
    bad, lam = cp_check_infinitesimal(b - 1e-6 * np.outer(v, v))
    assert lam < -5e-7
    assert not bad


# ---------------------------------------------------------------------------
# Fidelity and Bures metrics
# ---------------------------------------------------------------------------


def test_fidelity_identity_and_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s1 = random_state(rng)
        s2 = random_state(rng)
        assert gaussian_fidelity(s1, s1) == pytest.approx(1.0, abs=1e-12)
        assert gaussian_fidelity(s1, s2) == pytest.approx(
            gaussian_fidelity(s2, s1), rel=1e-12
        )
        assert 0.0 < gaussian_fidelity(s1, s2) <= 1.0 + 1e-12


def test_fidelity_vacuum_vs_thermal():
    # F(vacuum, thermal nu) = 2/(1 + nu).
    for nu in (1.5, 3.0, 10.0):
        f = gaussian_fidelity(np.eye(2), nu * np.eye(2))
        assert f == pytest.approx(2.0 / (1.0 + nu), rel=1e-12)


def test_fidelity_rejects_unphysical():
    with pytest.raises(NonPhysicalState):
        gaussian_fidelity(0.5 * np.eye(2), np.eye(2))


def test_bures_distance_zero_and_positive():
    rng = np.random.default_rng(9)
    s1 = random_state(rng)
    s2 = random_state(rng)
    assert bures_distance(s1, s1) == pytest.approx(0.0, abs=1e-7)
    assert bures_distance(s1, s2) > 0.0


def test_bures_velocity_fd_matches_closed_form(traj):
    p = make_params()
    dt = 1e-6
    rng = np.random.default_rng(3)
    checked = 0
    for t in np.linspace(0.0, 8.0, 30):
        sigma = traj.sigma_at(t)
        s = sigma[0:2, 0:2]
        gamma = purity_at(traj, t)
        if gamma > 0.999:
            continue
        b = noise_B(t, sigma, p)
        bt = drop_negative_B(b)
        v = bures_velocity(s, gamma, b, bt)
        if v < 1e-6:
            continue
        v_fd = bures_velocity_fd(s, gamma, b, bt, p, dt)
        assert v_fd == pytest.approx(v, rel=1e-4)
        checked += 1
    assert checked >= 10


def test_bures_velocity_pure_state_guard():
    sigma = np.eye(2)
    b = np.array([[0.0, 0.2], [0.2, 0.1]])
    # The closed form is singular at purity one: the point comes back NaN.
    assert np.isnan(bures_velocity(sigma, 1.0, b, np.zeros((2, 2))))
    # Identical noise matrices give zero velocity even at purity one.
    assert bures_velocity(sigma, 1.0, b, b) == 0.0


# ---------------------------------------------------------------------------
# Surrogates
# ---------------------------------------------------------------------------


def test_drop_negative_psd():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = rng.normal(size=(2, 2))
        b = 0.5 * (m + m.T)
        pos = drop_negative_B(b)
        eigs = np.linalg.eigvalsh(pos)
        assert eigs[0] >= -1e-12
        # Removing the negative part leaves the positive eigenvalue intact.
        assert eigs[1] == pytest.approx(max(np.linalg.eigvalsh(b)[1], 0.0), abs=1e-10)


def test_best_markovian_cancels_velocity(traj):
    p = make_params()
    sigma = traj.sigma_at(1.0)
    s = sigma[0:2, 0:2]
    gamma = purity_at(traj, 1.0)
    b = noise_B(1.0, sigma, p)
    if purity_rate(s, gamma, b) > 0.0:
        pytest.skip("sampled a recohering instant")
    bt = best_markovian_B(s, gamma, b)
    assert bures_velocity(s, gamma, b, bt) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.eigvalsh(bt)[0] >= -1e-12


def test_best_markovian_infeasible_when_recohering():
    # gamma_dot > 0 (recohering) has no PSD surrogate cancelling the rate.
    s = np.diag([2.0, 2.0])
    gamma = 1.0 / np.sqrt(det2(s))
    b = -0.1 * np.eye(2)
    assert purity_rate(s, gamma, b) > 0.0
    assert np.array_equal(best_markovian_B(s, gamma, b), np.zeros((2, 2)))
    assert np.array_equal(surrogate_B("best", s, gamma, b), np.zeros((2, 2)))


def test_surrogate_dispatch():
    s = np.diag([2.0, 2.0])
    gamma = 1.0 / np.sqrt(det2(s))
    b = np.array([[0.0, 0.3], [0.3, 0.2]])
    assert np.array_equal(surrogate_B("unitary", s, gamma, b), np.zeros((2, 2)))
    assert np.allclose(surrogate_B("drop-negative", s, gamma, b), drop_negative_B(b))
    with pytest.raises(ValueError):
        surrogate_B("bogus", s, gamma, b)
    assert SURROGATES == ("drop-negative", "best", "unitary")


def test_markov_series_structure(traj):
    series = markov_series(traj, "drop-negative")
    n = len(series["t"])
    assert np.array_equal(series["t"], traj.t[::SERIES_STRIDE])
    for key in (
        "purity",
        "lambda_minus",
        "lambda_plus",
        "v_bures",
        "v_bures_fd",
        "cp_flag",
        "flagged",
    ):
        assert len(series[key]) == n
    # Flagged (near-pure) points report NaN velocities, all others finite.
    flagged = series["flagged"]
    assert np.all(np.isnan(series["v_bures"][flagged]))
    assert np.all(np.isfinite(series["v_bures"][~flagged]))
    # The drop-negative surrogate always passes the infinitesimal CP check.
    assert np.all(series["cp_flag"])


def test_markov_series_resolves_low_purities():
    # fig2's fourth scenario decays to purities ~1e-7, where the determinant
    # of sigma_S's entries cancels to zero or below; det sigma_S comes from
    # the Cauchy-Binet purity instead, so no mixed sample is taken for a
    # pure-state singularity and nothing divides by zero.
    p = PRESETS["fig2"][1][3]
    traj = integrate(p, IntegratorConfig())
    assert np.min(traj.purity_s) < 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for surrogate in SURROGATES:
            series = markov_series(traj, surrogate)
            assert not np.any(series["flagged"] & (series["purity"] < 0.5))


def random_two_mode_states(rng, n):
    """n random physical joint states (t, sigma, gamma_S) from symplectic
    propagators exp(Omega H), with the S-E coupling of H scaled from 1e-7
    (purity within 1e-9 of one: the Bures velocity is NaN) to 1."""
    p = make_params()
    t = rng.uniform(-8.0, 8.0, n)
    u = np.empty((n, 4, 4))
    for i in range(n):
        h = rng.normal(size=(4, 4))
        h = 0.5 * (h + h.T)
        h[0:2, 2:4] *= 10.0 ** rng.uniform(-7.0, 0.0)
        h[2:4, 0:2] = h[0:2, 2:4].T
        u[i] = expm(OMEGA4 @ h)
    return t, sigma_from_propagator(u, p), purity_from_propagator(u, p)


def test_helpers_on_stacks_match_blockwise():
    p = make_params()
    rng = np.random.default_rng(41)
    t, sigma, gamma = random_two_mode_states(rng, 60)
    s = sigma[:, 0:2, 0:2]
    b = noise_B(t, sigma, p)
    bt = drop_negative_B(b)
    m = rng.normal(size=(60, 2, 2))
    e = 1e-6 * symmetrize(m)
    cases = [
        (det2, (s,)),
        (eig_sym2, (s,)),
        (symmetrize, (m,)),
        (noise_B, (t, sigma, p)),
        (reduced_rhs, (s, b, p)),
        (purity_rate, (s, gamma, b)),
        (drop_negative_B, (b,)),
        (best_markovian_B, (s, gamma, b)),
        (bures_velocity, (s, gamma, b, bt)),
        (bures_velocity_fd, (s, gamma, b, bt, p, 1e-6)),
        (_one_minus_fidelity_pert, (s, 1.0 / (gamma * gamma), e)),
        (cp_check_infinitesimal, (b,)),
        (cp_check_infinitesimal, (bt,)),
    ]
    cases += [(surrogate_B, (name, s, gamma, b)) for name in SURROGATES]
    for fn, args in cases:
        stacked = fn(*args)
        blocks = [
            fn(*(a[i] if isinstance(a, np.ndarray) else a for a in args))
            for i in range(60)
        ]
        parts = zip(stacked, zip(*blocks)) if isinstance(stacked, tuple) else [(stacked, blocks)]
        for part, ref in parts:
            np.testing.assert_array_equal(part, ref, fn.__name__)
    # The sample covers singular (NaN) and regular velocities alike.
    v = bures_velocity(s, gamma, b, np.zeros_like(b))
    assert 0 < np.sum(np.isnan(v)) < 60
