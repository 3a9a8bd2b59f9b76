"""Tests for the slow-switching expansion and late-time diagnostics.

The phase accumulator is checked against a direct trapezoid quadrature of
the normal frequencies, the slope diagnostic against synthetic power-law
data with a known exponent, and the threshold scan against the bisection on
dense samples that it replaced (tests/numutil.py).
"""

import numpy as np
import pytest

from numutil import (
    adiabatic_frame,
    phase_system_rk45,
    purity_at,
    sample_purities,
    threshold_scan_bisection,
)

from oscpurity import adiabatic, model
from oscpurity.adiabatic import (
    DEFICIT_FLOOR,
    RECOHERENCE_CRITERION,
    accumulate_phases,
    latetime_purity,
    loglog_slope,
    nlo_contributions,
    nonanalyticity_slope,
    purity_adiabatic_lo,
    purity_nlo_correction,
    recoherence_threshold_scan,
)
from oscpurity.errors import (
    ConfigError,
    DerivativeUndefined,
    NoThreshold,
    QuadratureNoConvergence,
    StepFailure,
    SupercriticalExcursion,
)
from oscpurity.model import IntegratorConfig, ScenarioParams
from oscpurity.transport import node_purities


def make_params(omega_e=2.0, psi=0.9, t0=1.0, tau=10.0):
    return ScenarioParams.from_psi(1.0, omega_e, psi, t0, tau)


# ---------------------------------------------------------------------------
# Phase accumulation
# ---------------------------------------------------------------------------


def test_phases_match_trapezoid():
    p = make_params(tau=2.0)
    acc = accumulate_phases(p)
    for t_end in (-10.0, 0.0, 15.0):
        ts = np.linspace(p.t_in, t_end, 20001)
        w1 = np.empty_like(ts)
        w2 = np.empty_like(ts)
        for i, t in enumerate(ts):
            fr = adiabatic_frame(t, p)
            w1[i] = np.sqrt(fr.omega1_sq)
            w2[i] = fr.omega2
        ref1 = np.trapezoid(w1, ts)
        ref2 = np.trapezoid(w2, ts)
        got1, got2 = acc.phases(t_end)
        assert got1 == pytest.approx(ref1, rel=1e-7, abs=1e-7)
        assert got2 == pytest.approx(ref2, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("tau", [10.0, 1e-6, 50.0])
def test_phases_and_moments_match_rk45_oracle(tau):
    # The criterion-06 scenario (tau = 10), a switch far sharper than the
    # oscillation, and a slow switch over a ~2000-long window.
    p = make_params(tau=tau)
    acc = accumulate_phases(p)
    phases, memory = phase_system_rk45(p)
    ts = np.linspace(p.t_in, -p.t_in, 37)
    for t in ts:
        w_ref = np.array(phases(t))
        assert np.max(np.abs(np.array(acc.phases(t)) - w_ref)) <= 1e-11 * max(
            1.0, np.max(w_ref)
        )
        assert np.max(np.abs(np.array(acc.memory_integrals(t)) - memory(t))) <= 1e-8
    # The whole grid at once gives the per-time values, up to the order of
    # the sums and the last bits of vectorised ufuncs.
    grid = np.array(acc.memory_integrals(ts)).T
    assert np.allclose(grid, [acc.memory_integrals(t) for t in ts], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("tau", [10.0, 1e-6])
def test_panel_blocks_do_not_change_the_result(monkeypatch, tau):
    # tau = 1e-6 bisects panels over several passes and merges them.
    p = make_params(tau=tau)
    monkeypatch.setattr(adiabatic, "_BLOCK", 1 << 30)
    whole = accumulate_phases(p)
    monkeypatch.setattr(adiabatic, "_BLOCK", 7)
    blocked = accumulate_phases(p)
    assert len(whole.edges) - 1 >= 4 * 7  # several blocks
    for name in ("edges", "w", "m"):
        assert np.array_equal(getattr(blocked, name), getattr(whole, name))


def test_no_convergence_when_depth_runs_out(monkeypatch):
    # tau = 1e-6 bisects panels over several passes; with no bisection left,
    # the panels still failing are a failure, not a result.
    p = make_params(tau=1e-6)
    monkeypatch.setattr(model, "MAX_DEPTH", 0)
    with pytest.raises(QuadratureNoConvergence, match="did not converge"):
        accumulate_phases(p)


def test_switch_panels_start_at_tau():
    # The benchmark's slow-switching scenario: panels tau wide in the switch
    # regions meet the default tolerances with at most 40 panels in all.
    p = ScenarioParams.from_psi(1.0, 2.0, 0.78, 1.0, 1.0)
    assert len(accumulate_phases(p).edges) - 1 <= 40


#: (omega_e, psi, t0, tau): switches from far sharper than the oscillation
#: to slower than it, short and long plateaus, psi up to 0.97.
AGREEMENT_SCENARIOS = [
    (2.0, 0.97, 5.0, 0.01),
    (2.5, 0.5, 0.1, 0.03),
    (1.5, 0.9, 30.0, 0.1),
    (2.0, 0.78, 1.0, 0.3),
    (2.0, 0.97, 3.0, 1.0),
    (3.0, 0.3, 10.0, 1.0),
    (2.0, 0.9, 0.5, 3.0),
    (1.3, 0.97, 30.0, 3.0),
]


@pytest.mark.parametrize("omega_e,psi,t0,tau", AGREEMENT_SCENARIOS)
def test_default_tolerances_agree_with_tight_reference(omega_e, psi, t0, tau, monkeypatch):
    # Phases, memory integrals and the NLO correction at the default RTOL =
    # 1e-10, ATOL = 1e-12 against the same quadrature at RTOL = 1e-13.
    p = ScenarioParams.from_psi(1.0, omega_e, psi, t0, tau)
    ts = np.linspace(p.t_in, -p.t_in, 401)
    acc = accumulate_phases(p)
    monkeypatch.setattr(adiabatic, "RTOL", 1e-13)
    monkeypatch.setattr(adiabatic, "ATOL", 1e-15)
    ref = accumulate_phases(p)
    for got, want in [
        (acc.phases(ts), ref.phases(ts)),
        (acc.memory_integrals(ts), ref.memory_integrals(ts)),
        (purity_nlo_correction(ts, acc), purity_nlo_correction(ts, ref)),
    ]:
        got, want = np.array(got), np.array(want)
        assert np.max(np.abs(got - want)) <= 1e-12 + 1e-10 * np.max(np.abs(want))


def test_grid_evaluation_matches_per_time():
    p = make_params(tau=4.0)
    acc = accumulate_phases(p)
    ts = np.linspace(p.t_in, -p.t_in, 23)
    grid = np.array(
        [purity_adiabatic_lo(ts, p), purity_nlo_correction(ts, acc)]
        + list(nlo_contributions(ts, acc))
    ).T
    per_time = [
        (purity_adiabatic_lo(t, p), purity_nlo_correction(t, acc))
        + nlo_contributions(t, acc)
        for t in ts
    ]
    assert np.allclose(grid, per_time, rtol=1e-12, atol=1e-15)


def test_supercritical_profile_rejected():
    p = make_params(psi=1.1)
    with pytest.raises(SupercriticalExcursion):
        accumulate_phases(p)


def test_lo_purity_limits():
    p = make_params(tau=10.0)
    # Before the interaction theta ~ 0 and the LO purity is 1.
    assert purity_adiabatic_lo(p.t_in, p) == pytest.approx(1.0, abs=1e-9)
    # During the interaction it dips below 1 but stays positive.
    mid = purity_adiabatic_lo(0.0, p)
    assert 0.0 < mid < 1.0


def test_lo_matches_exact_for_slow_switching():
    p = make_params(tau=50.0)
    cfg = IntegratorConfig()
    from oscpurity.transport import integrate

    traj = integrate(p, cfg)
    errs = [
        abs(purity_adiabatic_lo(t, p) - purity_at(traj, t))
        for t in np.linspace(p.t_in, -p.t_in, 41)
    ]
    assert max(errs) < 1e-2


def test_nlo_correction_vanishes_at_late_time():
    p = make_params(tau=10.0)
    acc = accumulate_phases(p)
    t_late = -p.t_in  # xi/xi_c < 1e-10 there
    assert abs(purity_nlo_correction(t_late, acc)) < 1e-8


def test_nlo_contributions_signature():
    p = make_params(tau=10.0)
    acc = accumulate_phases(p)
    io_, ith = nlo_contributions(0.0, acc)
    assert np.isfinite(io_) and np.isfinite(ith)
    # Particle creation dominates the frame-rotation channel here.
    assert abs(io_) > abs(ith)


# ---------------------------------------------------------------------------
# Late-time diagnostics
# ---------------------------------------------------------------------------


def test_latetime_purity_recoheres_for_slow_switch():
    p = make_params(tau=20.0)
    (gamma_inf,) = latetime_purity([p], IntegratorConfig())
    assert gamma_inf > 0.999


def test_loglog_slope_recovers_power_law():
    ratios = np.geomspace(1.0, 30.0, 12)
    p_true = -3.0
    deficits = 2.7 * ratios**p_true
    mid, slopes, flags = loglog_slope(ratios, deficits)
    assert not np.any(flags)
    assert np.allclose(slopes, p_true, rtol=0.02)


def test_loglog_slope_flags_floored_points():
    ratios = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    deficits = np.array([1e-3, 1e-6, 1e-9, 1e-16, 1e-16])
    _, slopes, flags = loglog_slope(ratios, deficits)
    # A slope is flagged as soon as any of its three stencil points sits
    # below the resolution floor.
    assert not flags[0]
    assert flags[1] and flags[2]


def test_loglog_slope_needs_three_points():
    with pytest.raises(DerivativeUndefined):
        loglog_slope([1.0, 2.0], [0.1, 0.01])


def test_nonanalyticity_slope_increasing():
    p = make_params(t0=1.0, tau=4.0)
    res = nonanalyticity_slope(p, np.array([4.0, 5.0, 6.3, 7.9, 10.0]))
    ok = ~res["flagged"]
    mags = np.abs(res["slope"][ok])
    assert len(mags) >= 2
    assert np.all(np.diff(mags) > 0)
    assert np.all(res["deficit"][res["deficit"] > DEFICIT_FLOOR] > 0)


def test_threshold_scan_no_threshold():
    # With both bounds above the threshold the criterion already fails at
    # the lower one, and the scan reports it.
    p = make_params(t0=1.0)
    with pytest.raises(NoThreshold):
        recoherence_threshold_scan(p, [1.0, 2.0], t_omega_bounds=(20.0, 30.0))


@pytest.mark.parametrize("grid", [(), (0.8,)])
def test_threshold_scan_rejects_grid_too_short_for_fit(grid, monkeypatch):
    # The line fit needs two points; the grid is rejected before any probe.
    def no_probe(*args, **kwargs):
        raise AssertionError("integrated a probe")

    monkeypatch.setattr(adiabatic, "node_purities", no_probe)
    with pytest.raises(ConfigError):
        recoherence_threshold_scan(make_params(t0=1.0), grid)


@pytest.mark.parametrize(
    "bounds, rel",
    [((0.5, 0.5), 0.01), ((0.8, 0.5), 0.01), ((0.0, 0.5), 0.01), ((0.2, 0.5), 0.0)],
)
def test_threshold_scan_rejects_bounds_it_cannot_bracket(bounds, rel, monkeypatch):
    # Empty or non-positive bounds, or a zero resolution, on which bisection
    # would never stop, are rejected before any probe.
    def no_probe(*args, **kwargs):
        raise AssertionError("integrated a probe")

    monkeypatch.setattr(adiabatic, "node_purities", no_probe)
    with pytest.raises(ConfigError):
        recoherence_threshold_scan(
            make_params(t0=1.0), (0.8, 1.6), t_omega_bounds=bounds, rel_resolution=rel
        )


def test_threshold_scan_probes_are_distinct(monkeypatch):
    # Every probe is one node_purities call on one scenario, and every call
    # integrates a different (params, config): the bracket's upper end at
    # the bound is not probed twice.  The result counts the calls.
    probes = []

    def counting(p, cfg):
        assert isinstance(p, ScenarioParams)
        probes.append((p, cfg))
        return node_purities(p, cfg)

    monkeypatch.setattr(adiabatic, "node_purities", counting)
    p = make_params(t0=1.0, tau=5.0)
    res = recoherence_threshold_scan(p, (0.8, 2.5, 8.0), t_omega_bounds=(0.1, 3.0))
    assert len(probes) == len(set(probes)) == res["probes"] == 20
    assert np.all(res["T_omega_thr"] > 0.1)
    # The last switch rate still recoheres at the upper bound: its bracket
    # is open above.
    assert res["T_omega_lo"][-1] == res["T_omega_thr"][-1] == 3.0
    assert res["T_omega_hi"][-1] == np.inf


def _failing_at(omega_es):
    # node_purities whose step grid fails for a scenario with one of these
    # omega_e.
    def probe(p, cfg):
        if p.omega_e in omega_es:
            raise StepFailure("injected failure")
        return node_purities(p, cfg)

    return probe


@pytest.mark.parametrize("lower, error", [(0.5, NoThreshold), (0.1, StepFailure)])
def test_threshold_scan_failing_upper_bound(lower, error, monkeypatch):
    # A step failure at the upper bound is raised only where the search
    # needs that probe: a lower bound above the first threshold (0.374)
    # fails the test, so the upper bound is never integrated and the scan
    # reports NoThreshold.
    p = make_params(t0=1.0)
    monkeypatch.setattr(adiabatic, "node_purities", _failing_at({p.omega_s * (1.0 + 1.0 / 2.0)}))
    with pytest.raises(error):
        recoherence_threshold_scan(p, [1.0, 2.0], t_omega_bounds=(lower, 2.0))


def test_threshold_scan_unneeded_upper_end_failing(monkeypatch):
    # A starting bracket whose lower end fails the test widens downwards
    # without integrating its upper end, which the search does not need:
    # every later probe of that switch rate lies below the lower end.  One
    # predicted pair of this grid has a failing lower end.
    p, ratios, bounds = make_params(t0=1.0, tau=5.0), (0.8, 2.5, 8.0), (0.1, 3.0)
    probes = {}  # tau -> [(T_omega, test holds)] in probe order

    def recording(q, cfg):
        gamma = node_purities(q, cfg)
        holds = (1.0 - gamma[-1]) < RECOHERENCE_CRITERION * (1.0 - np.min(gamma))
        probes.setdefault(q.tau, []).append((q.omega_s / (q.omega_e - q.omega_s), holds))
        return gamma

    monkeypatch.setattr(adiabatic, "node_purities", recording)
    res = recoherence_threshold_scan(p, ratios, t_omega_bounds=bounds)
    assert res["probes"] == sum(map(len, probes.values()))
    failing = [seq for seq in probes.values() if not seq[0][1]]
    assert len(failing) == 1
    (lower, _), *later = failing[0]
    assert later and all(t < lower for t, _ in later)


#: (scenario, tau/t0 grid, scan options): the fig13 preset, and the short
#: grid with narrow bounds of perfbench's `scan` workload.
THRESHOLD_GRIDS = {
    "fig13": (make_params(t0=1.0, tau=5.0), (0.8, 1.4, 2.5, 4.5, 8.0), {}),
    "scan": (
        make_params(t0=1.0, tau=1.0),
        (0.8, 1.6),
        {"t_omega_bounds": (0.25, 0.8), "rel_resolution": 0.1},
    ),
}


@pytest.mark.parametrize("grid", sorted(THRESHOLD_GRIDS))
def test_threshold_scan_matches_bisection_on_dense_samples(grid):
    # Each threshold lies within the resolution of the bisection on dense
    # samples, found with fewer probes.
    p, ratios, kwargs = THRESHOLD_GRIDS[grid]
    calls = []

    def counting(probe, cfg):
        calls.append(probe)
        return sample_purities(probe, cfg)

    ref = threshold_scan_bisection(p, ratios, purities=counting, **kwargs)
    res = recoherence_threshold_scan(p, ratios, **kwargs)
    factor = 1.0 + kwargs.get("rel_resolution", 0.01)
    gap = res["T_omega_thr"] / ref["T_omega_thr"]
    assert np.all((gap < factor) & (gap > 1.0 / factor)), gap
    assert res["probes"] < len(calls)


@pytest.mark.parametrize("grid", sorted(THRESHOLD_GRIDS))
def test_step_node_probes_keep_the_bisection_thresholds(grid):
    # The same bisection reading its purities at the step nodes instead of
    # the dense samples finds the same thresholds, bit for bit.
    p, ratios, kwargs = THRESHOLD_GRIDS[grid]
    ref = threshold_scan_bisection(p, ratios, **kwargs)
    res = threshold_scan_bisection(p, ratios, purities=node_purities, **kwargs)
    assert np.array_equal(res["T_omega_thr"], ref["T_omega_thr"])


@pytest.mark.parametrize("grid", sorted(THRESHOLD_GRIDS))
def test_threshold_scan_reports_each_final_bracket(grid):
    # Each threshold lies in its final bracket, which meets the resolution.
    p, ratios, kwargs = THRESHOLD_GRIDS[grid]
    res = recoherence_threshold_scan(p, ratios, **kwargs)
    lo, thr, hi = res["T_omega_lo"], res["T_omega_thr"], res["T_omega_hi"]
    assert len(lo) == len(hi) == len(ratios)
    assert np.all((lo <= thr) & (thr <= hi))
    assert np.all(hi / lo <= 1.0 + kwargs.get("rel_resolution", 0.01))
