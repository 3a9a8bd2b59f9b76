"""Acceptance suite: thirteen end-to-end criteria, one test (and one
printed PASS line) each.

The full preset scenario collection is integrated once at module scope and
shared between the invariant criteria; the remaining criteria run their own
targeted computations.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from numutil import (
    decoherence_rate,
    environment_purity,
    purity_at,
    purity_rate,
)

from oscpurity import isoso, perturbation
from oscpurity.adiabatic import (
    accumulate_phases,
    loglog_slope,
    nlo_contributions,
    nonanalyticity_slope,
    purity_adiabatic_lo,
    purity_nlo_correction,
    recoherence_threshold_scan,
)
from oscpurity.markov import (
    best_markovian_B,
    bures_velocity,
    bures_velocity_fd,
    compose,
    cp_check_infinitesimal,
    drop_negative_B,
    map_pair_evolve,
    noise_B,
)
from oscpurity.model import (
    SMOOTH,
    IntegratorConfig,
    ScenarioParams,
    frame_from_xi,
    perturbativity_gp,
)
from oscpurity.presets import PRESETS, REGIME_POINTS
from oscpurity.symplectic import det2
from oscpurity.transport import default_sample_dt, integrate


def report(num, detail):
    print("criterion %02d PASS: %s" % (num, detail))


def make_params(psi, omega_e=2.0, t0=10.0, tau=1.0, profile="smooth"):
    return ScenarioParams.from_psi(1.0, omega_e, psi, t0, tau, profile)


# ---------------------------------------------------------------------------
# Shared preset trajectory cache
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite():
    """One numeric trajectory per distinct preset scenario."""
    runs = []
    seen = set()
    for name, (_, scenarios) in PRESETS.items():
        for p in scenarios.values():
            key = (p.omega_s, p.omega_e, p.xi0, p.t0, p.tau, p.profile)
            if key in seen:
                continue
            seen.add(key)
            span = -2.0 * p.t_in
            # Tight tolerances so the invariant criteria are measurable
            # (their conditioning bound scales with the solver rtol).
            cfg_run = IntegratorConfig(
                sample_dt=max(default_sample_dt(p), span / 600.0),
                rtol=1e-12,
                atol=1e-14,
            )
            runs.append((name, p, cfg_run, integrate(p, cfg_run)))
    return runs


@pytest.fixture(scope="module")
def fig8_trajs(suite):
    out = {}
    for name, p, _, traj in suite:
        if name == "fig8L":
            out["lo"] = (p, traj)
        if name == "fig8R":
            out["nlo"] = (p, traj)
    return out


@pytest.fixture(scope="module")
def fig14_trajs(suite):
    return [(name, p, cfg, traj) for name, p, cfg, traj in suite
            if name.startswith("fig14")]


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_isoso_exactness():
    # Analytic top-hat purity vs near-top-hat numeric run (tau = 1e-4 t0).
    worst = 0.0
    slowest = 0.0
    for psi in (1.1, 0.9):
        p = make_params(psi, profile="isoso")
        start = time.perf_counter()
        traj = integrate(replace(p, profile=SMOOTH, tau=1e-4 * p.t0))
        errs = [
            abs(isoso.isoso_purity(t, p) - purity_at(traj, t))
            for t in np.linspace(-p.t0, p.t0, 201)
        ]
        elapsed = time.perf_counter() - start
        worst = max(worst, max(errs))
        slowest = max(slowest, elapsed)
        assert max(errs) < 5e-3
        assert elapsed < 10.0
    report(1, "max |analytic - numeric| = %.2e, slowest case %.1f s" % (worst, slowest))


def test_criterion_02_supercritical_decay_rate():
    # ln gamma_S decays at -|omega1| through the second half of the window.
    worst = 0.0
    for psi in (1.1, 1.5, 2.0):
        p = make_params(psi)
        traj = integrate(p, IntegratorConfig())
        rate = decoherence_rate(p)
        ts = np.linspace(0.0, p.t0 - 3.0 * p.tau, 60)
        lg = np.log([purity_at(traj, t) for t in ts])
        slope = np.polyfit(ts, lg, 1)[0]
        rel = abs(slope + rate) / rate
        worst = max(worst, rel)
        assert rel < 0.05
    report(2, "worst slope deviation from -|omega1|: %.2f%%" % (100 * worst))


def test_criterion_03_perturbation_consistency():
    # (a) Adaptive quadrature and the top-hat closed form agree.
    p = make_params(0.67, profile="isoso")  # g_p ~ 0.3
    worst = max(
        abs(
            perturbation.purity_o2_quadrature(t, p)
            - perturbation.purity_o2_isoso(t + p.t0, p)
        )
        for t in np.linspace(-p.t0, p.t0, 13)
    )
    assert worst < 1e-6
    # (b) Deviation of the closed form from the exact purity is O(g_p^4):
    # halving psi shrinks the max error by ~16x.
    t0, w, psi = REGIME_POINTS["U1"]

    def max_err(psi_val):
        pp = ScenarioParams.from_psi(1.0, 1.0 / w, psi_val, t0, profile="isoso")
        ts = np.linspace(-pp.t0, pp.t0, 401)
        return max(
            abs(isoso.isoso_purity(t, pp) - perturbation.purity_o2_isoso(t + pp.t0, pp))
            for t in ts
        )

    ratio = max_err(psi) / max_err(0.5 * psi)
    assert 8.0 <= ratio <= 32.0
    report(3, "closed-form gap %.1e; error ratio on psi halving %.1f" % (worst, ratio))


def test_criterion_04_regime_expansion_suite():
    # One labelled point per expansion case; symmetric relative deviation
    # below 10% over the displayed window.
    cases = ("U1", "U2a", "U2b", "C1plus", "C2plus", "O1a", "O1b", "O2")
    worst = 0.0
    for case in cases:
        t0, w, psi = REGIME_POINTS[case]
        p = ScenarioParams.from_psi(1.0, 1.0 / w, psi, t0, profile="isoso")
        dev = 0.0
        for t in np.linspace(-p.t0, p.t0, 401):
            exact = isoso.isoso_purity(t, p)
            approx = float(isoso.regime_purity(case, t + p.t0, p))
            if not np.isfinite(approx):
                continue
            dev = max(dev, abs(approx - exact) / max(abs(approx), abs(exact)))
        worst = max(worst, dev)
        assert dev < 0.10, case
        if case.startswith("U"):
            # Early-time agreement with the second-order closed form:
            # the difference must be higher-order small compared with the
            # O(g_p^2) purity deficit itself.
            gp4 = perturbativity_gp(p) ** 4
            hi = min(2.0 / (p.omega_s + p.omega_e), 2.0 * p.t0)
            dts = np.linspace(0.0, hi, 9)
            deficits = [abs(1.0 - perturbation.purity_o2_isoso(dt, p)) for dt in dts]
            tol = 0.05 * max(deficits) + 50.0 * gp4 + 1e-12
            for dt in dts:
                gap = abs(
                    float(isoso.regime_purity(case, dt, p))
                    - perturbation.purity_o2_isoso(dt, p)
                )
                assert gap < tol, (case, dt, gap, tol)
    report(4, "worst relative deviation over 8 cases: %.1f%%" % (100 * worst))


def test_criterion_05_adiabatic_lo(fig8_trajs):
    p, traj = fig8_trajs["lo"]
    errs = [
        abs(purity_adiabatic_lo(t, p) - purity_at(traj, t))
        for t in np.linspace(p.t_in, -p.t_in, 41)
    ]
    gamma_inf = float(traj.purity_s[-1])
    assert max(errs) < 1e-2
    assert gamma_inf > 0.999
    report(5, "max LO error %.2e, gamma_inf = %.6f" % (max(errs), gamma_inf))


def test_criterion_06_adiabatic_nlo(fig8_trajs):
    p, traj = fig8_trajs["nlo"]
    acc = accumulate_phases(p)
    ts = np.linspace(p.t_in, -p.t_in, 81)
    err_lo = 0.0
    err_nlo = 0.0
    for t in ts:
        exact = purity_at(traj, t)
        lo = purity_adiabatic_lo(t, p)
        nlo = purity_nlo_correction(t, acc)
        err_lo = max(err_lo, abs(lo - exact))
        err_nlo = max(err_nlo, abs(lo + nlo - exact))
    assert err_nlo <= 0.5 * err_lo
    # The first correction dies off once the coupling is gone.
    late = abs(purity_nlo_correction(-p.t_in, acc))
    assert late < 1e-8
    report(
        6,
        "max error LO %.2e -> LO+NLO %.2e; late correction %.1e"
        % (err_lo, err_nlo, late),
    )


def test_criterion_07_particle_creation_dominance(fig8_trajs):
    p, _ = fig8_trajs["nlo"]
    acc = accumulate_phases(p)
    # Interaction region: within one switch time of the window edges (the
    # coupling is a small fraction of its peak outside of it).
    ts = np.linspace(-p.t0 - p.tau, p.t0 + p.tau, 101)
    wins = 0
    for t in ts:
        io_, ith = nlo_contributions(t, acc)
        if abs(io_) > abs(ith):
            wins += 1
    frac = wins / len(ts)
    assert frac >= 0.90
    report(7, "|I_omega| > |I_theta| at %.0f%% of samples" % (100 * frac))


def test_criterion_08_nonperturbative_recoherence():
    p = make_params(0.9, t0=1.0, tau=4.0)
    taus = np.array([4.0, 5.0, 6.3, 7.9, 10.0, 14.1, 20.0]) * p.t0
    res = nonanalyticity_slope(p, taus)
    ok = ~res["flagged"]
    mags = np.abs(res["slope"][ok])
    assert len(mags) >= 2
    assert np.all(np.diff(mags) > 0)
    # Synthetic self-test: a known power law is recovered within 2%.
    grid = np.geomspace(4.0, 20.0, 9)
    _, slopes, flags = loglog_slope(grid, 1.3 * grid**-3.0)
    assert not np.any(flags)
    assert np.allclose(slopes, -3.0, rtol=0.02)
    report(
        8,
        "slope magnitudes %s strictly increasing; synthetic exponent ok"
        % np.array2string(mags, precision=2),
    )


def test_criterion_09_threshold_linearity():
    p = make_params(0.9, t0=1.0, tau=5.0)
    # One decade of switch rates inside the linear-threshold region.
    res = recoherence_threshold_scan(p, (0.8, 1.4, 2.5, 4.5, 8.0))
    assert res["slope"] > 0.0
    assert res["r_squared"] > 0.95
    report(
        9,
        "threshold fit slope %.3f, R^2 = %.3f" % (res["slope"], res["r_squared"]),
    )


def test_criterion_10_universal_nonmarkovianity(suite):
    checked = 0
    violations = 0
    for _, p, _, traj in suite:
        b = noise_B(traj.t, traj.sigma, p)
        for i in range(len(traj.t)):
            xi = traj.xi[i]
            c11 = traj.sigma[i][0, 2]
            if xi <= 0.0 or abs(c11) <= 1e-10:
                continue
            if det2(b[i]) >= 0.0:
                violations += 1
            checked += 1
    assert checked > 1000
    assert violations == 0
    report(10, "det B < 0 at all %d eligible samples, 0 violations" % checked)


def test_criterion_11_bures_velocity_dual(fig14_trajs):
    worst = 0.0
    checked = 0
    best_checked = 0
    for _, p, _, traj in fig14_trajs:
        # A fine step keeps the Richardson residual small near purity one,
        # where the Bures rate has a nearly singular prefactor.
        dt_fd = 1e-7 * 2.0 * np.pi / frame_from_xi(p.xi0, p).omega2
        for i in range(0, len(traj.t), 8):
            gamma = traj.purity_s[i]
            if gamma >= 0.999:
                continue
            s = traj.sigma[i][0:2, 0:2]
            b = noise_B(traj.t[i], traj.sigma[i], p)
            bt = drop_negative_B(b)
            v = bures_velocity(s, gamma, b, bt)
            if v > 1e-8:  # relative comparison needs a measurable velocity
                v_fd = bures_velocity_fd(s, gamma, b, bt, p, dt_fd)
                rel = abs(v_fd - v) / v
                worst = max(worst, rel)
                assert rel < 1e-4
                checked += 1
            if purity_rate(s, gamma, b) <= 0.0:  # decohering: B~ is feasible
                bt_best = best_markovian_B(s, gamma, b)
                assert bures_velocity(s, gamma, b, bt_best) < 1e-8
                best_checked += 1
    assert checked >= 50
    assert best_checked >= 20
    report(
        11,
        "closed vs FD rel error %.1e over %d points; best surrogate "
        "velocity < 1e-8 at %d decohering points" % (worst, checked, best_checked),
    )


def test_criterion_12_semigroup_and_cp(fig14_trajs):
    name, p, _, traj = next(r for r in fig14_trajs if r[0] == "fig14b")
    rng = np.random.default_rng(2024)
    # Composition identity on randomly split intervals.
    worst = 0.0
    for _ in range(5):
        t_a, t_m, t_b = np.sort(rng.uniform(-8.0, 8.0, 3))
        tol = {"rtol": 1e-12, "atol": 1e-14}
        full = map_pair_evolve(p, traj, t_a, t_b, **tol)
        joined = compose(
            map_pair_evolve(p, traj, t_a, t_m, **tol),
            map_pair_evolve(p, traj, t_m, t_b, **tol),
        )
        gap = max(
            float(np.max(np.abs(joined.X - full.X))),
            float(np.max(np.abs(joined.Y - full.Y))),
        )
        worst = max(worst, gap)
        assert gap < 1e-8
    # Infinitesimal CP: fails with the exact B, passes after dropping the
    # negative eigenvalue, on 100 random trajectory points.
    eligible = [
        i
        for i in range(len(traj.t))
        if traj.xi[i] > 0.0 and abs(traj.xi[i] * traj.sigma[i][0, 2]) > 1e-6
    ]
    picks = rng.choice(eligible, size=100, replace=len(eligible) < 100)
    for i in picks:
        b = noise_B(traj.t[i], traj.sigma[i], p)
        ok_exact, _ = cp_check_infinitesimal(b)
        ok_drop, _ = cp_check_infinitesimal(drop_negative_B(b))
        assert not ok_exact
        assert ok_drop
    report(12, "composition gap %.1e; CP verdicts correct at 100 points" % worst)


def test_criterion_13_invariant_suite(suite):
    worst_det = 0.0
    worst_gap = 0.0
    worst_nu = np.inf
    for name, p, cfg, traj in suite:
        dets = np.linalg.det(traj.propagator)
        norms = np.maximum(1.0, np.max(np.abs(traj.propagator), axis=(1, 2)))
        bounds = norms * norms * 20.0 * cfg.rtol
        measurable = bounds < 1e-8
        assert np.any(measurable), name
        gap_det = np.max(np.abs(dets[measurable] ** 2 - 1.0))
        assert gap_det < 1e-8, name
        worst_det = max(worst_det, gap_det)
        purity_e = environment_purity(traj.propagator, p)
        gap_purity = np.max(np.abs(traj.purity_s[measurable] - purity_e[measurable]))
        assert gap_purity < 1e-8, name
        worst_gap = max(worst_gap, gap_purity)
        # The symplectic-eigenvalue floor has a tighter tolerance, so it
        # gets a correspondingly tighter measurability filter.
        nu_ok = bounds < 1e-9
        assert np.any(nu_ok), name
        nu_min = min(
            float(np.min(1.0 / traj.purity_s[nu_ok])),
            float(np.min(1.0 / purity_e[nu_ok])),
        )
        assert nu_min >= 1.0 - 1e-9, name
        worst_nu = min(worst_nu, nu_min)
    report(
        13,
        "|det sigma - 1| <= %.1e, |gamma_S - gamma_E| <= %.1e, min nu = %.10f"
        % (worst_det, worst_gap, worst_nu),
    )
