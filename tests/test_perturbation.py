"""Tests for the second-order weak-coupling purity.

The reduction of the double integral to one-dimensional sum-frequency
moments is checked directly against a trapezoid evaluation of the full
symmetrized kernel on a grid, and the top-hat closed form is checked
against the adaptive quadrature and the exact solution.
"""

import numpy as np
import pytest
from numutil import filon_per_panel, o2_integrand, purity_at, purity_o2_qawo, spherical_jn_mp

from oscpurity import model, perturbation
from oscpurity.errors import QuadratureNoConvergence
from oscpurity.model import ScenarioParams
from oscpurity.perturbation import (
    coupling_lambda,
    purity_o2_isoso,
    purity_o2_quadrature,
    spherical_jn_orders,
)


def make_params(omega_e=2.0, psi=0.05, t0=10.0, tau=1.0, profile="smooth"):
    return ScenarioParams.from_psi(1.0, omega_e, psi, t0, tau, profile)


def grid_double_integral(t, p, n=400):
    """Trapezoid evaluation of the full symmetrized double integral."""
    ts = np.linspace(p.t_in, t, n)
    tp, tpp = np.meshgrid(ts, ts, indexing="ij")
    vals = o2_integrand(tp, tpp, p)
    h = ts[1] - ts[0]
    wts = np.ones(n)
    wts[0] = wts[-1] = 0.5
    return h * h * float(wts @ vals @ wts)


def test_integrand_swap_average_drops_difference_frequency():
    # The step functions in the difference-frequency term average to zero
    # under t' <-> t'', so the symmetrized kernel is the sum-frequency
    # cosine alone: (f(a,b) + f(b,a))/2 = (1/2) lam(a) lam(b) cos[tot].
    p = make_params()
    rng = np.random.default_rng(11)
    a = rng.uniform(-15.0, 15.0, 50)
    b = rng.uniform(-15.0, 15.0, 50)
    avg = 0.5 * (o2_integrand(a, b, p) + o2_integrand(b, a, p))
    lam = coupling_lambda(a, p) * coupling_lambda(b, p)
    expected = 0.5 * lam * np.cos((p.omega_s + p.omega_e) * (a - b))
    assert np.allclose(avg, expected, atol=1e-14)


def test_integrand_equal_time_value():
    # At t' = t'' the step function contributes 1/2 and the
    # difference-frequency term drops out.
    p = make_params()
    t = 1.3
    lam = coupling_lambda(t, p) ** 2
    assert o2_integrand(t, t, p) == pytest.approx(0.5 * lam, rel=1e-12)


@pytest.mark.parametrize("profile", ["smooth", "isoso"])
def test_reduction_matches_grid(profile):
    # 1 - gamma2 from the reduced sum-frequency moments equals the brute
    # double integral of the printed kernel.
    p = make_params(psi=0.05, t0=3.0, tau=0.5, profile=profile)
    t = 2.0
    reduced = 1.0 - purity_o2_quadrature(t, p)
    brute = grid_double_integral(t, p, n=3000)
    assert reduced == pytest.approx(brute, rel=1e-3, abs=1e-10)


def test_isoso_closed_form_matches_quadrature():
    # The closed form (which purity_o2_quadrature returns for the top-hat)
    # against QAWO moments split at the switch times.
    p = make_params(psi=0.1, t0=10.0, profile="isoso")
    for t in np.linspace(-9.0, 9.0, 13):
        quad_val = purity_o2_qawo(t, p, split_at=(-p.t0, p.t0))
        closed = purity_o2_isoso(t + p.t0, p)
        assert closed == pytest.approx(quad_val, abs=1e-10)
        assert purity_o2_quadrature(t, p) == closed


def test_isoso_closed_form_freezes_after_window():
    p = make_params(psi=0.1, profile="isoso")
    assert purity_o2_isoso(2.5 * p.t0, p) == pytest.approx(
        purity_o2_isoso(2.0 * p.t0, p)
    )


def test_smooth_quadrature_matches_exact_when_weak():
    from oscpurity.model import IntegratorConfig
    from oscpurity.transport import integrate

    p = make_params(psi=0.05, t0=5.0, tau=1.0)
    traj = integrate(p, IntegratorConfig())
    # The residual is O(g_p^4); with g_p ~ 0.022 that is ~1e-6.
    for t in (-3.0, 0.0, 4.0):
        exact = purity_at(traj, t)
        pert = purity_o2_quadrature(t, p)
        assert pert == pytest.approx(exact, abs=5e-6)


def test_deficit_scales_as_gp_squared():
    # 1 - gamma2 at the maximum scales as g_p^2: quartering when psi halves.
    p1 = make_params(psi=0.08, profile="isoso")
    p2 = make_params(psi=0.04, profile="isoso")
    dts = np.linspace(0.0, 2.0 * p1.t0, 400)
    d1 = np.max(1.0 - purity_o2_isoso(dts, p1))
    d2 = np.max(1.0 - purity_o2_isoso(dts, p2))
    assert d1 / d2 == pytest.approx(4.0, rel=1e-6)


def test_zero_coupling_purity_is_one():
    p = ScenarioParams(1.0, 2.0, 0.0, 10.0)
    assert purity_o2_quadrature(0.0, p) == 1.0


def test_grid_matches_qawo_oracle_on_unsorted_times():
    # One call on a shuffled grid that reaches before t_in and past the
    # window equals the per-point QAWO quadrature; the output keeps the
    # input's order and shape.
    p = make_params(psi=0.3, t0=1.5, tau=0.3)
    ts = np.concatenate([np.linspace(p.t_in - 2.0, -p.t_in + 1.0, 40), [p.t_in, 0.0]])
    ts = np.random.default_rng(5).permutation(ts).reshape(3, -1)
    got = purity_o2_quadrature(ts, p)
    assert got.shape == ts.shape
    ref = np.array([purity_o2_qawo(t, p) for t in ts.ravel()]).reshape(ts.shape)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_scalar_time_matches_grid():
    p = make_params(psi=0.3, t0=1.5, tau=0.3)
    ts = np.linspace(p.t_in, -p.t_in, 11)
    grid = purity_o2_quadrature(ts, p)
    for t, g in zip(ts, grid):
        value = purity_o2_quadrature(float(t), p)
        assert np.shape(value) == ()
        assert value == pytest.approx(g, abs=1e-14)


def test_sharp_switch_matches_breakpoint_split_reference():
    # A switch of tau = 1e-7 is far narrower than anything a single QAWO
    # call over [t_in, t] resolves (it was off by 1.8e-7 at t0 + 20 tau);
    # the reference integrates each piece between the switch-region edges
    # +-t0 -+ 10 tau separately.
    p = ScenarioParams(1.0, 2.0, 0.6, 3.0, 1e-7)
    edges = [s * p.t0 + d * 10.0 * p.tau for s in (-1, 1) for d in (-1, 1)]
    ts = p.t0 + p.tau * np.array([-20.0, -10.0, -1.0, 0.0, 1.0, 10.0, 20.0])
    ts = np.concatenate([[-p.t0 + 3.0 * p.tau, 0.0], ts])
    ref = [purity_o2_qawo(t, p, split_at=edges) for t in ts]
    # One time per call leaves the switch to the panel edges of the
    # quadrature itself, not to neighbouring sample times.
    for got in (purity_o2_quadrature(ts, p), [purity_o2_quadrature(t, p) for t in ts]):
        assert np.max(np.abs(np.subtract(got, ref))) < 1e-10


@pytest.mark.parametrize(
    "omega_e,psi,t0,tau",
    [
        (2.0, 0.97, 5.0, 0.01),
        (2.5, 0.5, 0.1, 0.03),
        (1.5, 0.9, 30.0, 0.1),
        (2.0, 0.3, 1.5, 0.3),
        (3.0, 0.3, 10.0, 1.0),
        (1.3, 0.97, 30.0, 3.0),
    ],
)
def test_default_tolerances_agree_with_tight_reference(omega_e, psi, t0, tau, monkeypatch):
    # Panels start tau wide in the switch regions; the default tolerances
    # still hold against ABS_TOL = REL_TOL = 1e-13.
    p = make_params(omega_e=omega_e, psi=psi, t0=t0, tau=tau)
    ts = np.linspace(p.t_in, -p.t_in, 401)
    got, abs_tol = purity_o2_quadrature(ts, p), perturbation.ABS_TOL
    monkeypatch.setattr(perturbation, "ABS_TOL", 1e-13)
    monkeypatch.setattr(perturbation, "REL_TOL", 1e-13)
    assert np.max(np.abs(got - purity_o2_quadrature(ts, p))) <= abs_tol


def test_filon_weights_per_width_match_per_panel(monkeypatch):
    # Weights computed once per distinct panel width give the panel results
    # of weights computed panel by panel, to a few ulps.
    filon, worst = perturbation._filon, []

    def checked(lo, hi, p):
        got = filon(lo, hi, p)
        for g, want in zip(got, filon_per_panel(lo, hi, p)):
            worst.append(np.max(np.abs(g - want)) / np.max(np.abs(want)))
        return got

    monkeypatch.setattr(perturbation, "_filon", checked)
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = make_params(
            omega_e=rng.uniform(1.2, 3.0),
            psi=rng.uniform(0.05, 0.97),
            t0=10 ** rng.uniform(-1.0, np.log10(30.0)),
            tau=10 ** rng.uniform(-2.0, np.log10(3.0)),
        )
        purity_o2_quadrature(np.linspace(p.t_in, -p.t_in, 401), p)
    assert worst and max(worst) <= 4 * np.finfo(float).eps


def test_no_convergence_when_depth_runs_out(monkeypatch):
    # Tolerances tight enough that the long plateau panel (whose coupling
    # still varies by ~1e-9 near the switch regions) must be bisected:
    # with the default depth the estimate is met, with no bisection it is not.
    p = make_params(psi=0.3, t0=30.0, tau=1.0)
    ref = purity_o2_qawo(25.0, p)
    monkeypatch.setattr(perturbation, "ABS_TOL", 1e-13)
    monkeypatch.setattr(perturbation, "REL_TOL", 1e-13)
    assert purity_o2_quadrature(25.0, p) == pytest.approx(ref, abs=1e-10)
    monkeypatch.setattr(model, "MAX_DEPTH", 0)
    with pytest.raises(QuadratureNoConvergence, match="t = 25.0"):
        purity_o2_quadrature(25.0, p)


def test_quadrature_tolerance_defaults():
    assert perturbation.ABS_TOL == 1e-10
    assert perturbation.REL_TOL == 1e-8
    assert model.MAX_DEPTH == 40


def test_spherical_bessel_recurrence_matches_references():
    from scipy.special import spherical_jn

    near = [k + d for k in range(16) for d in (-0.3, -1e-9, 0.0, 1e-9, 0.3) if k + d >= 0]
    x = np.array([0.0, 1e-12, 1e4] + near)
    got = spherical_jn_orders(16, x)
    ref = spherical_jn_mp(16, x)
    assert np.max(np.abs(got - ref)) <= 1e-15
    # scipy's spherical_jn is itself up to ~1.4e-15 off the 50-digit values
    # just below integers x >= 10, so it is held to 1e-15 plus its own error.
    sp = np.stack([spherical_jn(k, x) for k in range(16)], axis=-1)
    assert np.all(np.abs(got - sp) <= 1e-15 + np.abs(sp - ref))
