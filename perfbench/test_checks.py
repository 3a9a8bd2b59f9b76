"""Each output check of the benchmark accepts a correct output and rejects
the same output perturbed. Correct outputs are built here from closed forms,
so these tests need neither oscpurity nor a benchmark run.

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy.linalg import expm

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import Scenario  # noqa: E402

TOPHAT = Scenario.from_psi(1.0, 2.0, 1.4, 2.0, 1.0, "isoso")
SUB = Scenario.from_psi(1.0, 2.0, 0.8, 1.0, 1.0, "isoso")


def tophat_rows(sc, n=81):
    """Exact trajectory CSV rows of a top-hat run."""
    t = np.linspace(-sc.t0, sc.t0, n)
    k = checks.OMEGA4 @ sc.hamiltonian(sc.xi0)
    rows = []
    for ti in t:
        u = expm(k * (ti + sc.t0))
        s = u @ sc.vacuum() @ u.T
        gamma = checks.purity_from_u(u, sc.vacuum())
        xi = float(sc.xi(ti))
        rows.append(
            [ti, s[0, 0], s[0, 1], s[1, 1], s[2, 2], s[2, 3], s[3, 3],
             s[0, 2], s[0, 3], s[1, 2], s[1, 3], gamma, xi]
        )
    return np.array(rows)


def bures_closed_form(s, b, bt):
    det = checks.det2(s)
    return det / (2.0 * math.sqrt(det * det - 1.0)) * abs(np.trace(np.linalg.solve(s, b - bt)))


def markov_rows(trows, surrogate, stride=4):
    out = []
    for row in trows[::stride]:
        s = checks.sigma_from_rows(row[None, :])[0, :2, :2]
        b = checks._noise(row[12], row[7], row[9])
        bt = checks._surrogate(surrogate, s, b)
        lam = np.linalg.eigvalsh(b)
        v = bures_closed_form(s, b, bt) if row[11] < 1.0 - 1e-9 else 0.0
        out.append([row[0], row[11], lam[0], lam[1], v, v, 1.0])
    return np.array(out)


def summary_for(sc, purity):
    xi_c = sc.omega_s * sc.omega_e
    return {
        "omega1_abs": sc.omega1_abs(),
        "xi_c": xi_c,
        "g_p": sc.xi0 / math.sqrt(2.0 * xi_c * (sc.omega_s**2 + sc.omega_e**2)),
        "gamma_inf": float(purity[-1]),
        "gamma_min": float(np.min(purity)),
    }


def test_invariants_and_expm():
    rows = tophat_rows(TOPHAT)
    sigma = checks.sigma_from_rows(rows)
    assert checks.check_invariants(rows, TOPHAT) == []
    assert checks.check_tophat_expm(rows[:, 0], sigma, TOPHAT, "sigma") == []
    assert checks.check_tophat_expm(rows[:, 0], rows[:, 11], TOPHAT, "purity") == []
    bad = rows.copy()
    bad[40, 1] *= 1.0 + 1e-5
    assert checks.check_invariants(bad, TOPHAT)
    assert checks.check_tophat_expm(bad[:, 0], checks.sigma_from_rows(bad), TOPHAT, "sigma")
    bad = rows.copy()
    bad[0, 11] = 1.0 + 1e-6
    assert checks.check_invariants(bad, TOPHAT)
    bad = rows.copy()
    bad[10, 11] *= 1.0 + 1e-6
    assert checks.check_tophat_expm(bad[:, 0], bad[:, 11], TOPHAT, "purity")
    bad = rows.copy()
    bad[10, 12] *= 0.5
    assert checks.check_invariants(bad, TOPHAT)


def test_decay_rate():
    rate = TOPHAT.omega1_abs()
    t = np.linspace(0.0, 4.0, 200)
    good = np.exp(-rate * t) * (1.0 + 0.01 * np.sin(5.0 * t))
    assert checks.check_decay_rate(t, good, TOPHAT, 0.0, 4.0) == []
    assert checks.check_decay_rate(t, np.exp(-1.1 * rate * t), TOPHAT, 0.0, 4.0)


def test_summary():
    purity = tophat_rows(TOPHAT)[:, 11]
    good = summary_for(TOPHAT, purity)
    assert checks.check_summary(good, TOPHAT, purity) == []
    for key, factor in (("omega1_abs", 1.0 + 1e-6), ("g_p", 1.0 + 1e-9), ("gamma_inf", 0.99)):
        bad = dict(good, **{key: good[key] * factor})
        assert checks.check_summary(bad, TOPHAT, purity), key


@pytest.mark.parametrize("surrogate", ["drop-negative", "best", "unitary"])
def test_markov(surrogate):
    trows = tophat_rows(TOPHAT, n=161)
    mrows = markov_rows(trows, surrogate)
    assert checks.check_markov(mrows, trows, TOPHAT, surrogate) == []
    bad = mrows.copy()
    bad[20, 2] *= 1.0 + 1e-6
    assert checks.check_markov(bad, trows, TOPHAT, surrogate)
    bad = mrows.copy()
    bad[20, 6] = 0.0
    assert checks.check_markov(bad, trows, TOPHAT, surrogate)
    bad = mrows.copy()
    if surrogate == "best":
        # A velocity where the best surrogate is feasible must vanish.
        bad[:, 4] += 1e-6
    elif surrogate == "unitary":
        # Only bounded above by the full finite-difference speed.
        bad[:, 4] *= 1e3
    else:
        bad[:, 4] *= 1.0 + 1e-3
    assert checks.check_markov(bad, trows, TOPHAT, surrogate)


def test_composition():
    sc = SUB
    k = np.array([[0.0, 1.0], [-(sc.omega_s**2), 0.0]])
    x = expm(k * 2.0)
    y = np.array([[0.3, 0.1], [0.1, 0.2]])
    s_a = np.diag([1.0, 1.0])
    ends = (-1.0, 1.0, s_a, x @ s_a @ x.T + y)
    assert checks.check_composition((x, y), (x, y), ends, sc) == []
    assert checks.check_composition((x, y + 1e-7), (x, y), ends, sc)
    assert checks.check_composition((x * (1 + 1e-7), y), (x * (1 + 1e-7), y), ends, sc)
    assert checks.check_composition((x, y), (x, y), ends[:3] + (ends[3] + 1e-6,), sc)


def test_purities_and_independent_ode():
    assert checks.check_purities([0.5, 1.0 + 1e-13], 1e-12) == []
    assert checks.check_purities([0.5, 1.0 + 1e-11], 1e-12)
    assert checks.check_purities([0.0, 0.5], 1e-12)
    # The independent integration agrees with a product of midpoint
    # exponentials (second order, step 2e-3).
    sc = Scenario.from_psi(1.0, 2.0, 0.8, 1.0, 0.25)
    tail = sc.tau * 0.5 * math.log(4.0 * sc.xi0 / (1e-10 * sc.omega_s * sc.omega_e))
    edges = np.linspace(sc.t_in, sc.t0 + tail, 6001)
    u = np.eye(4)
    for a, b in zip(edges[:-1], edges[1:]):
        u = expm(checks.OMEGA4 @ sc.hamiltonian(float(sc.xi(0.5 * (a + b)))) * (b - a)) @ u
    ref = checks.purity_from_u(u, sc.vacuum())
    assert abs(checks.latetime_purity_ode(sc) - ref) < 1e-6
    assert checks.check_latetime_ode(ref, sc, tol=1e-6) == []
    assert checks.check_latetime_ode(ref + 1e-5, sc, tol=1e-6)


def test_slopes():
    ratios = np.geomspace(4.0, 8.0, 5)
    deficits = np.exp(-0.5 * ratios**1.5)  # faster than any power
    mid, slopes = ratios[1:-1], checks.centered_slopes(ratios, deficits)
    flags = np.zeros(3, dtype=bool)
    assert checks.check_slopes(ratios, deficits, mid, slopes, flags) == []
    assert checks.check_slopes(ratios, deficits, mid, slopes * (1 + 1e-6), flags)
    power = 1.3 * ratios**-3.0
    assert checks.check_slopes(ratios, power, mid, checks.centered_slopes(ratios, power), flags)


def test_threshold():
    r = np.array([0.8, 1.2, 1.6])
    thr = 0.35 * r + 0.02
    res = {"tau_over_t0": r, "T_omega_thr": thr, "slope": 0.35, "r_squared": 1.0}
    assert checks.check_threshold(res, (0.2, 1.2)) == []
    assert checks.check_threshold(dict(res, slope=0.36), (0.2, 1.2))
    assert checks.check_threshold(dict(res, T_omega_thr=thr[::-1], slope=-0.35), (0.2, 1.2))
    scattered = np.array([0.30, 0.60, 0.45])
    fit = np.polyfit(r, scattered, 1)
    resid = scattered - np.polyval(fit, r)
    r2 = 1.0 - np.sum(resid**2) / np.sum((scattered - scattered.mean()) ** 2)
    res = {"tau_over_t0": r, "T_omega_thr": scattered, "slope": fit[0], "r_squared": r2}
    assert checks.check_threshold(res, (0.2, 1.2))
    assert checks.check_threshold(dict(res, T_omega_thr=thr * 4), (0.2, 1.2))


def test_second_order_purity():
    sc = Scenario.from_psi(1.0, 2.0, 0.3, 2.0, 1.0, "isoso")
    t = np.linspace(-sc.t0, sc.t0, 201)
    gp = sc.xi0 / math.sqrt(2.0 * 2.0 * 5.0)
    w = sc.omega_s / sc.omega_e
    amp = 4.0 * gp * gp * (1.0 + w * w) / (1.0 + w) ** 2
    good = 1.0 - amp * np.sin(0.5 * 3.0 * (t + sc.t0)) ** 2
    rows = np.column_stack([t, good])
    assert checks.check_o2(rows, sc) == []
    bad = rows.copy()
    bad[:, 1] = 1.0 - 1.01 * (1.0 - good)
    assert checks.check_o2(bad, sc)


def test_phases_and_adiabatic():
    sc = Scenario.from_psi(1.0, 2.0, 0.8, 1.0, 0.5)
    t_end = -sc.t_in
    ts = np.linspace(sc.t_in, t_end, 200001)
    w1, w2 = checks.normal_frequencies(sc, ts)
    h = ts[1] - ts[0]
    probe = np.linspace(sc.t_in, t_end, 9)
    c1 = np.interp(probe, ts, np.concatenate([[0], np.cumsum(0.5 * h * (w1[1:] + w1[:-1]))]))
    c2 = np.interp(probe, ts, np.concatenate([[0], np.cumsum(0.5 * h * (w2[1:] + w2[:-1]))]))
    phases = np.column_stack([probe, c1, c2])
    assert checks.check_phases(phases, sc, t_end) == []
    bad = phases.copy()
    bad[4, 1] *= 1.0 + 1e-4
    assert checks.check_phases(bad, sc, t_end)

    # LO purity from the closed-form mixing angle.
    t = np.linspace(sc.t_in, t_end, 101)
    xi = sc.xi(t)
    d = sc.omega_e**2 - sc.omega_s**2
    theta = 0.5 * np.arctan2(2.0 * xi, d)
    r = np.sqrt(4.0 * xi * xi + d * d)
    w1 = np.sqrt(0.5 * (sc.omega_s**2 + sc.omega_e**2 - r))
    w2 = np.sqrt(0.5 * (sc.omega_s**2 + sc.omega_e**2 + r))
    lo = (1.0 - 0.25 * np.sin(2 * theta) ** 2 * (2.0 - w1 / w2 - w2 / w1)) ** -0.5
    nlo = 1e-3 * np.exp(-((t / sc.t0) ** 2))  # vanishes once the coupling is off
    rows = np.column_stack([t, lo, nlo])
    assert checks.check_adiabatic(rows, sc) == []
    bad = rows.copy()
    bad[50, 1] *= 1.0 + 1e-7
    assert checks.check_adiabatic(bad, sc)
    bad = rows.copy()
    bad[-1, 2] = 1e-6
    assert checks.check_adiabatic(bad, sc)


def test_phase_diagram():
    w_grid, psi_grid = np.linspace(0.05, 1.0, 4), np.linspace(0.1, 10.0, 6)
    lines = ["w,psi,label,perturbative,g_p,near_critical"]
    for w in w_grid:
        for psi in psi_grid:
            family = "U" if psi < 0.5 else ("C" if psi <= 2.0 else "O")
            label = family + ("1" if w < 0.3 else "2") + ("a" if family != "C" else "plus")
            gp = psi * math.sqrt(w / (2.0 * (1.0 + w * w)))
            lines.append(
                "%.16e,%.16e,%s,%d,%.16e,%d"
                % (w, psi, label, gp < 0.1, gp, abs(psi - 1.0) < 0.1)
            )
    text = "\n".join(lines) + "\n"
    assert checks.check_phase_diagram(text, w_grid, psi_grid) == []
    assert checks.check_phase_diagram(text.replace(",U1a,", ",O1a,", 1), w_grid, psi_grid)
    assert checks.check_phase_diagram(text.replace("e-01,", "e-02,", 1), w_grid, psi_grid)


def test_digest_detects_any_changed_byte():
    out = {"summary": {"gamma_inf": 0.5}, "files": {"a.csv": "t\n1\n"}, "x": np.arange(3.0)}
    same = {"summary": {"gamma_inf": 0.5}, "files": {"a.csv": "t\n1\n"}, "x": np.arange(3.0)}
    assert workloads.digest(out) == workloads.digest(same)
    last_bit = np.arange(3.0)
    last_bit[2] = np.nextafter(2.0, 3.0)
    for changed in (
        dict(same, files={"a.csv": "t\n2\n"}),
        dict(same, summary={"gamma_inf": np.nextafter(0.5, 1.0)}),
        dict(same, x=last_bit),
    ):
        assert workloads.digest(out) != workloads.digest(changed)
