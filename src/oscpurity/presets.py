"""Named parameter presets reproducing the reference scenarios, and the
runners that turn them into plot-ready CSV files."""

import warnings
from dataclasses import replace

import numpy as np

from . import adiabatic, isoso, markov, output, perturbation
from .errors import InvalidCaseWarning
from .model import SMOOTH, ScenarioParams
from .transport import integrate


def _p(omega_e, psi, t0, tau=1.0, profile="smooth"):
    return ScenarioParams.from_psi(1.0, omega_e, psi, t0, tau, profile)


#: The labelled expansion points: case -> (t0, w, psi).
REGIME_POINTS = {
    "U1": (0.3, 1e-2, 1e-2),
    "U2a": (10.0, 1.0 / 1.01, 0.1),
    "U2b": (10.0, 1.0 / 1.1, 0.01),
    "C1plus": (5.0, 0.1, 1.1),
    "C1minus": (5.0, 0.1, 0.9),
    "C2plus": (5.0, 1.0 / 1.1, 1.1),
    "C2minus": (5.0, 1.0 / 1.1, 0.9),
    "O1a": (0.2, 1e-2, 10.0),
    "O1b": (0.2, 0.1, 100.0),
    "O2": (2.0, 1.0 / 1.1, 10.0),
}


def _regimes(*cases):
    """Top-hat scenarios at labelled expansion points, keyed by case."""
    scenarios = {}
    for case in cases:
        t0, w, psi = REGIME_POINTS[case]
        scenarios[case] = _p(1.0 / w, psi, t0, profile="isoso")
    return scenarios


# ---------------------------------------------------------------------------
# Runners: each writes the CSV files of a preset's scenarios, given keyed by
# the tag of their file names, at the paths out(file name) of output.out_dir,
# and returns one summary per scenario.
# ---------------------------------------------------------------------------


def _run_trajectories(name, scenarios, out):
    """Exact trajectories; for fig14, also their Markovianity series."""
    summaries = []
    for i, p in scenarios.items():
        traj = integrate(p)
        output.write_trajectory(out("%s_traj%d.csv" % (name, i)), traj)
        if name.startswith("fig14"):
            series = markov.markov_series(traj, "drop-negative")
            output.write_markov_csv(
                out("%s_markov%d.csv" % (name, i)), series
            )
        summaries.append(output.summarize_purity(p, traj.purity_s))
    return summaries


def _run_isoso_reference(name, scenarios, out):
    """Top-hat closed form against a smooth integration at tau = 1e-4 t0,
    the near-top-hat limit."""
    summaries = []
    for i, p in scenarios.items():
        traj = integrate(replace(p, profile=SMOOTH, tau=1e-4 * p.t0))
        m = (traj.t >= -p.t0) & (traj.t <= p.t0)
        output.write_csv(
            out("%s_compare%d.csv" % (name, i)),
            "t,purity_analytic,purity_numeric",
            [traj.t[m], isoso.isoso_purity(traj.t[m], p), traj.purity_s[m]],
        )
        summaries.append(output.summarize_purity(p, traj.purity_s))
    return summaries


def _run_regimes(name, scenarios, out):
    """Top-hat closed form against the expansion of each labelled case."""
    summaries = []
    for case, p in scenarios.items():
        ts = np.linspace(-p.t0, p.t0, 801)
        gammas = isoso.isoso_purity(ts, p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InvalidCaseWarning)
            expansion = isoso.regime_purity(case, ts + p.t0, p)
        output.write_csv(
            out("%s_%s.csv" % (name, case)),
            "t,purity_analytic,purity_expansion",
            [ts, gammas, expansion],
        )
        summaries.append(output.summarize_purity(p, gammas))
    return summaries


def _run_adiabatic(name, scenarios, out):
    """Slow-switching purity against the exact one; for fig9, the two NLO
    contributions instead."""
    (p,) = scenarios.values()
    traj = integrate(p)
    acc = adiabatic.accumulate_phases(p)
    stride = 8
    ts = traj.t[::stride]
    if name == "fig9":
        output.write_csv(
            out("fig9_contributions.csv"),
            "t,itilde_omega,itilde_theta",
            [ts, *adiabatic.nlo_contributions(ts, acc)],
        )
    else:
        lo = adiabatic.purity_adiabatic_lo(ts, p)
        nlo = adiabatic.purity_nlo_correction(ts, acc)
        output.write_csv(
            out("%s_adiabatic.csv" % name),
            "t,purity_exact,purity_lo,purity_lo_plus_nlo",
            [ts, traj.purity_s[::stride], lo, lo + nlo],
        )
    return [output.summarize_purity(p, traj.purity_s)]


def _run_perturbative(name, scenarios, out):
    """Top-hat closed form against its second-order closed form."""
    (p,) = scenarios.values()
    ts = np.linspace(-p.t0, p.t0, 2001)
    gammas = isoso.isoso_purity(ts, p)
    output.write_csv(
        out("%s_perturbative.csv" % name),
        "t,purity_analytic,purity_o2",
        [ts, gammas, perturbation.purity_o2_isoso(ts + p.t0, p)],
    )
    return [output.summarize_purity(p, gammas)]


def _run_slope(name, scenarios, out):
    """Late-time deficits and their log-log slopes over a tau grid."""
    (p,) = scenarios.values()
    taus = np.array([4.0, 5.0, 6.3, 7.9, 10.0, 14.1, 20.0]) * p.t0
    res = adiabatic.nonanalyticity_slope(p, taus)
    output.write_csv(
        out("fig12_deficit.csv"),
        "tau_over_t0,deficit",
        [res["tau_over_t0"], res["deficit"]],
    )
    output.write_slope_csv(out("fig12_slope.csv"), res)
    return [output.summarize(p, None, float(res["gamma_inf"][0]))]


def _run_threshold(name, scenarios, out):
    """Recoherence threshold per switch rate, and its line fit."""
    (p,) = scenarios.values()
    # One decade of switch-rate ratios inside the linear-threshold
    # region (the threshold diverges once tau/t0 approaches ~10).
    ratios = (0.8, 1.4, 2.5, 4.5, 8.0)
    res = adiabatic.recoherence_threshold_scan(p, ratios)
    fit = [[res[key]] * len(res["tau_over_t0"]) for key in ("slope", "r_squared")]
    output.write_csv(
        out("fig13_threshold.csv"),
        "tau_over_t0,T_omega_thr,slope_fit,r_squared",
        [res["tau_over_t0"], res["T_omega_thr"], *fit],
    )
    return [
        output.summarize(
            p, None, None, threshold_slope=res["slope"], threshold_r_squared=res["r_squared"]
        )
    ]


#: Preset name -> (runner, scenarios keyed by the tag of their file names).
PRESETS = {
    "fig2": (
        _run_trajectories,
        dict(enumerate(_p(2.0, psi, 10.0) for psi in (0.5, 0.9, 1.1, 1.5))),
    ),
    "fig3": (
        _run_isoso_reference,
        dict(enumerate(_p(2.0, psi, 10.0, profile="isoso") for psi in (1.1, 0.9))),
    ),
    "fig5": (_run_regimes, _regimes("U1", "U2a", "U2b")),
    "fig6": (_run_regimes, _regimes("C1plus", "C1minus", "C2plus", "C2minus")),
    "fig7": (_run_regimes, _regimes("O1a", "O1b", "O2")),
    "fig8L": (_run_adiabatic, {0: _p(2.0, 0.9, 1.0, 50.0)}),
    "fig8R": (_run_adiabatic, {0: _p(2.0, 0.9, 1.0, 10.0)}),
    "fig9": (_run_adiabatic, {0: _p(2.0, 0.9, 1.0, 10.0)}),
    "fig10": (_run_perturbative, {0: _p(100.0, 1.1, 0.5, profile="isoso")}),
    "fig11": (_run_perturbative, {0: _p(1000.0, 7.0, 0.1, profile="isoso")}),
    "fig12": (_run_slope, {0: _p(2.0, 0.9, 1.0, 4.0)}),
    "fig13": (_run_threshold, {0: _p(2.0, 0.9, 1.0, 5.0)}),
    "fig14a": (_run_trajectories, {0: _p(10.0, 0.5, 1.0, 0.01)}),
    "fig14b": (_run_trajectories, {0: _p(2.0, 1.1, 5.0, 1.0)}),
    "fig14c": (_run_trajectories, {0: _p(10.0, 1.1, 5.0, 1.0)}),
}

PRESET_NAMES = tuple(PRESETS)


def run_preset(name, outdir):
    """Run a preset and write its CSV artifacts and summary JSON.

    Returns:
        JSON-serializable summary dict (schema 1).
    """
    runner, scenarios = PRESETS[name]
    out = output.out_dir(outdir)
    summaries = runner(name, scenarios, out)
    summary = {"schema": output.SCHEMA, "preset": name, "runs": summaries}
    output.write_json(out("%s_summary.json" % name), summary)
    return summary
