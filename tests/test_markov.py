"""Tests for the reduced dynamics, Gaussian maps, fidelity/Bures
diagnostics, and Markovian surrogates."""

import numpy as np
import pytest

from numutil import map_pair_rk45

from oscpurity.errors import NonPhysicalState, PureStateSingularity
from oscpurity.markov import (
    INFEASIBLE,
    SURROGATES,
    best_markovian_B,
    bures_distance,
    bures_velocity,
    bures_velocity_fd,
    compose,
    cp_check,
    cp_check_infinitesimal,
    drop_negative_B,
    gaussian_fidelity,
    map_pair_evolve,
    markov_series,
    noise_B,
    purity_rate,
    reduced_rhs,
    surrogate_B,
    system_hamiltonian,
)
from oscpurity.model import ScenarioParams
from oscpurity.symplectic import OMEGA2, det2
from oscpurity.transport import CovarianceState, IntegratorConfig, integrate


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
    state = traj.state_at(0.0)
    nm = noise_B(state, p)
    xi = float(traj.xi[np.argmin(np.abs(traj.t))])
    assert nm.B[0, 0] == 0.0
    assert nm.B[0, 1] == pytest.approx(nm.B[1, 0])
    assert nm.B[0, 1] == pytest.approx(-xi * state.sigma[0, 2], rel=1e-6)
    assert nm.lambda_minus <= nm.lambda_plus
    # det B = -xi^2 c11^2 <= 0 always.
    assert det2(nm.B) <= 0.0


def test_reduced_rhs_matches_full_dynamics(traj):
    # The reduced equation with the exact B reproduces d sigma_S/dt.
    p = make_params()
    t = 1.7
    h = 1e-5
    s_plus = traj.sigma_at(t + h)[0:2, 0:2]
    s_minus = traj.sigma_at(t - h)[0:2, 0:2]
    fd = (s_plus - s_minus) / (2.0 * h)
    state = traj.state_at(t)
    rhs = reduced_rhs(state.sigma[0:2, 0:2], noise_B(state, p).B, p)
    assert np.allclose(rhs, fd, rtol=1e-4, atol=1e-6)


def test_purity_rate_matches_fd(traj):
    p = make_params()
    t = 1.7
    h = 1e-6
    fd = (traj.purity_at(t + h) - traj.purity_at(t - h)) / (2.0 * h)
    state = traj.state_at(t)
    rate = purity_rate(state.sigma[0:2, 0:2], noise_B(state, p).B)
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
    pair = MapPair(x, np.zeros((2, 2)), 0.0, 1.0)
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
        state = traj.state_at(t)
        s = state.sigma[0:2, 0:2]
        if 1.0 / np.sqrt(det2(s)) > 0.999:
            continue
        b = noise_B(state, p).B
        bt = drop_negative_B(b)
        v = bures_velocity(s, b, bt)
        if v < 1e-6:
            continue
        v_fd = bures_velocity_fd(s, b, bt, p, dt)
        assert v_fd == pytest.approx(v, rel=1e-4)
        checked += 1
    assert checked >= 10


def test_bures_velocity_pure_state_guard():
    p = make_params()
    sigma = np.eye(2)
    b = np.array([[0.0, 0.2], [0.2, 0.1]])
    with pytest.raises(PureStateSingularity):
        bures_velocity(sigma, b, np.zeros((2, 2)))
    # Identical noise matrices give zero velocity even at purity one.
    assert bures_velocity(sigma, b, b) == 0.0


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
    state = traj.state_at(1.0)
    s = state.sigma[0:2, 0:2]
    b = noise_B(state, p).B
    bt = best_markovian_B(s, b)
    if bt is INFEASIBLE:
        pytest.skip("sampled a recohering instant")
    assert bures_velocity(s, b, bt) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.eigvalsh(bt)[0] >= -1e-12


def test_best_markovian_infeasible_when_recohering():
    # gamma_dot > 0 (recohering) has no PSD surrogate cancelling the rate.
    s = np.diag([2.0, 2.0])
    b = -0.1 * np.eye(2)
    assert best_markovian_B(s, b) is INFEASIBLE
    assert np.array_equal(surrogate_B("best", s, b), np.zeros((2, 2)))


def test_surrogate_dispatch():
    s = np.diag([2.0, 2.0])
    b = np.array([[0.0, 0.3], [0.3, 0.2]])
    assert np.array_equal(surrogate_B("unitary", s, b), np.zeros((2, 2)))
    assert np.allclose(surrogate_B("drop-negative", s, b), drop_negative_B(b))
    with pytest.raises(ValueError):
        surrogate_B("bogus", s, b)
    assert SURROGATES == ("drop-negative", "best", "unitary")


def test_markov_series_structure(traj):
    p = make_params()
    series = markov_series(traj, p, "drop-negative", stride=16)
    n = len(series["t"])
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
