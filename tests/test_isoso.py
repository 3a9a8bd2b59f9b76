"""Tests for the top-hat (instantaneous switch) closed-form solution.

`isoso_purity` evaluates the real normal-mode propagator: rotate into the
normal modes, evolve each with its exact 2x2 cos/cosh block, rotate back.
Two oracles pin it:
1. The Bogoliubov route (numutil): operator continuity at the window edge
   and complex mode functions, a derivation independent of the src
   formula.  Its own normalization is pinned by the commutation algebra of
   the matched operators, [b_i, b_j^dag] = delta_ij for subcritical
   windows, independently of any dynamics.
2. The full 4x4 constant-coupling propagator of test_transport, built from
   the same normal-mode idea, gives the whole covariance directly.
"""

import numpy as np
import pytest
from numutil import (
    b_correlators,
    bogoliubov_coeffs,
    bogoliubov_purity,
    decoherence_rate,
    isoso_sigma_s,
    purity_from_block,
)

from oscpurity.errors import CriticalPoint, InvalidCaseWarning, PrecisionFloor
from oscpurity.isoso import isoso_purity, regime_purity
from oscpurity.model import EXPANSIONS, ScenarioParams
from oscpurity.presets import PRESETS, REGIME_POINTS
from test_transport import oracle_sigma


def make_params(omega_e=2.0, psi=0.9, t0=10.0):
    return ScenarioParams.from_psi(1.0, omega_e, psi, t0, profile="isoso")


# ---------------------------------------------------------------------------
# Bogoliubov algebra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("psi", [0.2, 0.9])
@pytest.mark.parametrize("omega_e", [1.5, 2.0, 5.0])
def test_commutation_relations_subcritical(omega_e, psi):
    # [b_i, b_j^dag] = delta_ij: with rows v = (b1, b2, bbar1, bbar2) over
    # columns (a_S, a_E, a_S^dag, a_E^dag), the commutator matrix is
    # M J M^dag with J = diag(1, 1, -1, -1) in the (a, a^dag) ordering.
    p = make_params(omega_e=omega_e, psi=psi)
    bset = bogoliubov_coeffs(p)
    assert bset.delta_flag == 0
    m = bset.matrix
    j = np.diag([1.0, 1.0, -1.0, -1.0])
    comm = m[:2] @ j @ m[:2].conj().T
    assert np.allclose(comm, np.eye(2), atol=1e-12)


def test_conjugate_row_structure_subcritical():
    # For a real normal frequency, the "bbar" rows are the conjugates of
    # the "b" rows with the (a, a^dag) column pairs swapped.
    p = make_params(psi=0.5)
    m = bogoliubov_coeffs(p).matrix
    assert np.allclose(m[2:][:, [2, 3, 0, 1]], np.conj(m[:2]), atol=1e-12)


def test_zero_coupling_is_trivial():
    # With xi0 -> 0 and theta -> 0, b1 = a_S e^{i w_S t0} up to the free
    # phase: no mixing, no squeezing.
    p = ScenarioParams(1.0, 2.0, 1e-12, 10.0, profile="isoso")
    bset = bogoliubov_coeffs(p)
    assert abs(abs(bset.alpha(1, "S")) - 1.0) < 1e-9
    assert abs(bset.alpha(1, "E")) < 1e-9
    assert abs(bset.beta(1, "S")) < 1e-9
    assert abs(bset.beta(2, "E")) < 1e-9


def test_critical_guard():
    p = make_params(psi=1.0)
    with pytest.raises(CriticalPoint):
        bogoliubov_coeffs(p)
    with pytest.raises(CriticalPoint):
        isoso_purity(0.0, p)


def test_correlator_symmetry():
    # <v_i v_j> with [v_i, v_j] = const implies C - C^T is the commutator
    # matrix; for the (b, bbar) ordering that is the symplectic-like J.
    p = make_params(psi=0.7)
    bset = bogoliubov_coeffs(p)
    c = b_correlators(bset)
    anti = c - c.T
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = 1.0
    expected[2, 0] = expected[3, 1] = -1.0
    assert np.allclose(anti, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Covariance and purity against the propagator oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("psi", [0.3, 0.9, 1.1, 2.5])
def test_sigma_matches_oracle(psi):
    p = make_params(psi=psi)
    for t in np.linspace(-10.0, 10.0, 21):
        ref = oracle_sigma(t, p)[0:2, 0:2]
        got = isoso_sigma_s(t, p)
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) / scale < 1e-10


def _route_scenarios():
    for case, (t0, w, psi) in sorted(REGIME_POINTS.items()):
        yield pytest.param(make_params(1.0 / w, psi, t0), id=case)
    for name in ("fig3", "fig10", "fig11"):
        for tag, p in PRESETS[name][1].items():
            yield pytest.param(p, id="%s-%s" % (name, tag))
    for psi in (0.3, 0.9, 1.1, 1.5, 2.5):
        yield pytest.param(make_params(psi=psi), id="psi-%g" % psi)


@pytest.mark.parametrize("p", _route_scenarios())
def test_purity_matches_bogoliubov_route(p):
    # The real normal-mode rows and the complex Bogoliubov matching give the
    # same purity to a few round-offs on the regime, preset and psi scenarios.
    ts = np.linspace(-p.t0, p.t0, 2001)
    worst = np.max(np.abs(isoso_purity(ts, p) - bogoliubov_purity(ts, p)))
    assert worst <= 32.0 * np.finfo(float).eps


@pytest.mark.parametrize("psi", [0.3, 0.9])
def test_purity_matches_oracle_subcritical(psi):
    p = make_params(psi=psi)
    for t in np.linspace(-10.0, 10.0, 21):
        ref = purity_from_block(oracle_sigma(t, p)[0:2, 0:2])
        assert isoso_purity(t, p) == pytest.approx(ref, abs=1e-10)


def test_purity_before_and_after_window():
    p = make_params(psi=0.9)
    assert isoso_purity(-11.0, p) == 1.0
    assert isoso_purity(200.0, p) == pytest.approx(isoso_purity(p.t0, p))


def test_supercritical_purity_decay_rate():
    # Deep in the window gamma ~ exp(-|omega1| dt); the closed form must
    # stay accurate far beyond where the covariance determinant underflows.
    p = make_params(psi=2.5)
    ts = np.linspace(2.0, 9.0, 15)
    lg = np.log([isoso_purity(t, p) for t in ts])
    slope = np.polyfit(ts, lg, 1)[0]
    assert slope == pytest.approx(-decoherence_rate(p), rel=0.02)
    assert np.isfinite(isoso_purity(10.0, p))


def test_overflow_is_precision_floor():
    # At |omega1| dt ~ 40 the mode functions outgrow double precision; the
    # first non-finite purity is reported rather than returned.
    p = ScenarioParams.from_psi(1.0, 2.0, 1.5, 300.0, profile="isoso")
    with pytest.raises(PrecisionFloor, match="t = "):
        isoso_purity(np.linspace(-p.t0, p.t0, 2001), p)


def test_decoherence_rate():
    assert decoherence_rate(make_params(psi=0.9)) is None
    p = make_params(psi=1.5)
    h = np.array([[p.omega_s**2, p.xi0], [p.xi0, p.omega_e**2]])
    assert decoherence_rate(p) == pytest.approx(np.sqrt(-np.linalg.eigvalsh(h)[0]))


# ---------------------------------------------------------------------------
# Regime expansions
# ---------------------------------------------------------------------------


def regime_params(case):
    t0, w, psi = REGIME_POINTS[case]
    return ScenarioParams.from_psi(1.0, 1.0 / w, psi, t0, profile="isoso")


@pytest.mark.parametrize("case", sorted(REGIME_POINTS))
def test_expansion_tracks_exact(case):
    # Symmetric relative deviation stays below 10% over the window.
    p = regime_params(case)
    ts = np.linspace(-p.t0, p.t0, 401)
    worst = 0.0
    for t in ts:
        exact = isoso_purity(t, p)
        approx = float(regime_purity(case, t + p.t0, p))
        if not np.isfinite(approx):
            continue
        err = abs(approx - exact) / max(abs(approx), abs(exact))
        worst = max(worst, err)
    assert worst < 0.10


@pytest.mark.parametrize("case", sorted(REGIME_POINTS))
def test_grid_equals_scalar_path(case):
    # One call on a grid, reaching before and after the window, returns
    # exactly the per-time values.
    p = regime_params(case)
    ts = np.concatenate([[-2.0 * p.t0], np.linspace(-p.t0, p.t0, 40), [1.5 * p.t0]])
    grid = isoso_purity(ts, p)
    scalar = [isoso_purity(float(t), p) for t in ts]
    assert all(isinstance(g, float) for g in scalar)
    np.testing.assert_array_equal(grid, scalar)
    assert grid[0] == 1.0 and grid[-1] == grid[-2]
    assert isoso_purity(ts.reshape(3, -1), p).shape == (3, 14)


def test_expansion_initial_value_is_one():
    for case in sorted(REGIME_POINTS):
        p = regime_params(case)
        assert float(regime_purity(case, 0.0, p)) == pytest.approx(1.0, abs=1e-10)


def test_case_aliases_and_unknown():
    p = regime_params("C1plus")
    a = regime_purity("C1plus", 1.0, p)
    b = regime_purity("C1", 1.0, p)
    assert a == pytest.approx(b)
    # Names match exactly: a case label's prefix does not select its case.
    for bad in ("Z9", "C1foo", "C1plusminus", "c1"):
        with pytest.raises(ValueError):
            regime_purity(bad, 1.0, p)


def test_mismatched_case_warns():
    p = regime_params("U1")
    with pytest.warns(InvalidCaseWarning):
        regime_purity("O2", 0.5, p)


def test_expansion_registry():
    assert set(EXPANSIONS) == {"U1", "U2a", "U2b", "C1", "C2", "O1a", "O1b", "O2"}
    # Every labelled regime point lies in the domain of exactly one case.
    for label in REGIME_POINTS:
        assert sum(label in labels for labels in EXPANSIONS.values()) == 1, label
