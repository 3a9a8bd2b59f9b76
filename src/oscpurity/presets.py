"""Named parameter presets reproducing the reference scenarios, and the
runners that turn them into plot-ready CSV files."""

import json
import os
import warnings

import numpy as np

from . import adiabatic, isoso, markov, perturbation
from .errors import InvalidCaseWarning
from .model import ScenarioParams, classify_regime, derived_params, normal_mode_sq
from .transport import IntegratorConfig, integrate, isoso_reference_run, write_csv


def _p(omega_e, psi, t0, tau=1.0, profile="smooth", omega_s=1.0):
    return ScenarioParams.from_psi(omega_s, omega_e, psi, t0, tau, profile)


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


def _regime_params(case):
    t0, w, psi = REGIME_POINTS[case]
    return _p(1.0 / w, psi, t0, profile="isoso")


PRESET_NAMES = (
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8L",
    "fig8R",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14a",
    "fig14b",
    "fig14c",
)


def preset_scenarios(name):
    """The ScenarioParams list a preset's trajectories are built from."""
    if name == "fig2":
        return [_p(2.0, psi, 10.0, 1.0) for psi in (0.5, 0.9, 1.1, 1.5)]
    if name == "fig3":
        return [_p(2.0, psi, 10.0, profile="isoso") for psi in (1.1, 0.9)]
    if name == "fig5":
        return [_regime_params(c) for c in ("U1", "U2a", "U2b")]
    if name == "fig6":
        return [
            _regime_params(c) for c in ("C1plus", "C1minus", "C2plus", "C2minus")
        ]
    if name == "fig7":
        return [_regime_params(c) for c in ("O1a", "O1b", "O2")]
    if name == "fig8L":
        return [_p(2.0, 0.9, 1.0, 50.0)]
    if name in ("fig8R", "fig9"):
        return [_p(2.0, 0.9, 1.0, 10.0)]
    if name == "fig10":
        return [_p(100.0, 1.1, 0.5, profile="isoso")]
    if name == "fig11":
        return [_p(1000.0, 7.0, 0.1, profile="isoso")]
    if name == "fig12":
        return [_p(2.0, 0.9, 1.0, 4.0)]
    if name == "fig13":
        return [_p(2.0, 0.9, 1.0, 5.0)]
    if name == "fig14a":
        return [_p(10.0, 0.5, 1.0, 0.01)]
    if name == "fig14b":
        return [_p(2.0, 1.1, 5.0, 1.0)]
    if name == "fig14c":
        return [_p(10.0, 1.1, 5.0, 1.0)]
    raise KeyError("unknown preset %r" % (name,))


def write_markov_csv(path, series):
    """Write a markov_series result in the standard markov.csv layout."""
    write_csv(
        path,
        "t,purity,lambda_minus,lambda_plus,v_bures,v_bures_fd,cp_flag",
        [
            series["t"],
            series["purity"],
            series["lambda_minus"],
            series["lambda_plus"],
            np.nan_to_num(series["v_bures"]),
            np.nan_to_num(series["v_bures_fd"]),
            series["cp_flag"].astype(float),
        ],
    )


def summarize(p, gamma_min=None, gamma_inf=None, **extra):
    """Schema-1 summary of one scenario run.

    omega1_abs = sqrt|omega1^2| at peak coupling comes from the closed form,
    so it reads 0 rather than failing at exactly critical coupling.
    """
    d = derived_params(p)
    label = classify_regime(min(p.w, 1.0 / p.w), p.psi, p.omega_s)
    out = {
        "schema": 1,
        "gamma_min": gamma_min,
        "gamma_inf": gamma_inf,
        "regime": label.label,
        "omega1_abs": float(np.sqrt(abs(normal_mode_sq(p.xi0, p)[0]))),
        "g_p": d.g_p,
        "xi_c": d.xi_c,
    }
    out.update(extra)
    return out


def run_preset(name, outdir):
    """Run a preset and write its CSV artifacts.

    Returns:
        JSON-serializable summary dict (schema 1).
    """
    os.makedirs(outdir, exist_ok=True)
    cfg = IntegratorConfig()
    summaries = []

    if name in ("fig2", "fig14a", "fig14b", "fig14c"):
        for i, p in enumerate(preset_scenarios(name)):
            traj = integrate(p, cfg)
            traj.to_csv(os.path.join(outdir, "%s_traj%d.csv" % (name, i)))
            if name.startswith("fig14"):
                series = markov.markov_series(traj, p, "drop-negative", stride=4)
                write_markov_csv(
                    os.path.join(outdir, "%s_markov%d.csv" % (name, i)), series
                )
            summaries.append(
                summarize(p, float(np.min(traj.purity_s)), float(traj.purity_s[-1]))
            )
    elif name == "fig3":
        for i, p in enumerate(preset_scenarios(name)):
            traj = isoso_reference_run(p, cfg)
            m = (traj.t >= -p.t0) & (traj.t <= p.t0)
            write_csv(
                os.path.join(outdir, "%s_compare%d.csv" % (name, i)),
                "t,purity_analytic,purity_numeric",
                [traj.t[m], isoso.isoso_purity(traj.t[m], p), traj.purity_s[m]],
            )
            summaries.append(
                summarize(p, float(np.min(traj.purity_s)), float(traj.purity_s[-1]))
            )
    elif name in ("fig5", "fig6", "fig7"):
        cases = {
            "fig5": ("U1", "U2a", "U2b"),
            "fig6": ("C1plus", "C1minus", "C2plus", "C2minus"),
            "fig7": ("O1a", "O1b", "O2"),
        }[name]
        for case in cases:
            p = _regime_params(case)
            ts = np.linspace(-p.t0, p.t0, 801)
            gammas = isoso.isoso_purity(ts, p)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", InvalidCaseWarning)
                expansion = isoso.regime_purity(case, ts + p.t0, p)
            write_csv(
                os.path.join(outdir, "%s_%s.csv" % (name, case)),
                "t,purity_analytic,purity_expansion",
                [ts, gammas, expansion],
            )
            summaries.append(summarize(p, float(np.min(gammas)), float(gammas[-1])))
    elif name in ("fig8L", "fig8R", "fig9"):
        (p,) = preset_scenarios(name)
        traj = integrate(p, cfg)
        acc = adiabatic.accumulate_phases(p)
        stride = 8
        ts = traj.t[::stride]
        if name == "fig9":
            write_csv(
                os.path.join(outdir, "fig9_contributions.csv"),
                "t,itilde_omega,itilde_theta",
                [ts, *adiabatic.nlo_contributions(ts, p, acc)],
            )
        else:
            lo = adiabatic.purity_adiabatic_lo(ts, p)
            nlo = adiabatic.purity_nlo_correction(ts, p, acc)
            write_csv(
                os.path.join(outdir, "%s_adiabatic.csv" % name),
                "t,purity_exact,purity_lo,purity_lo_plus_nlo",
                [ts, traj.purity_s[::stride], lo, lo + nlo],
            )
        summaries.append(
            summarize(p, float(np.min(traj.purity_s)), float(traj.purity_s[-1]))
        )
    elif name in ("fig10", "fig11"):
        (p,) = preset_scenarios(name)
        ts = np.linspace(-p.t0, p.t0, 2001)
        gammas = isoso.isoso_purity(ts, p)
        write_csv(
            os.path.join(outdir, "%s_perturbative.csv" % name),
            "t,purity_analytic,purity_o2",
            [ts, gammas, perturbation.purity_o2_isoso(ts + p.t0, p)],
        )
        summaries.append(summarize(p, float(np.min(gammas)), float(gammas[-1])))
    elif name == "fig12":
        (p,) = preset_scenarios(name)
        taus = np.array([4.0, 5.0, 6.3, 7.9, 10.0, 14.1, 20.0]) * p.t0
        res = adiabatic.nonanalyticity_slope(p, taus)
        write_csv(
            os.path.join(outdir, "fig12_deficit.csv"),
            "tau_over_t0,deficit",
            [res["tau_over_t0"], res["deficit"]],
        )
        write_csv(
            os.path.join(outdir, "fig12_slope.csv"),
            "tau_over_t0,slope,flagged",
            [res["mid_tau_over_t0"], res["slope"], res["flagged"].astype(float)],
        )
        summaries.append(summarize(p, float("nan"), float(1.0 - res["deficit"][0])))
    elif name == "fig13":
        (p,) = preset_scenarios(name)
        # One decade of switch-rate ratios inside the linear-threshold
        # region (the threshold diverges once tau/t0 approaches ~10).
        ratios = (0.8, 1.4, 2.5, 4.5, 8.0)
        res = adiabatic.recoherence_threshold_scan(p, ratios)
        fit = [[res[key]] * len(res["tau_over_t0"]) for key in ("slope", "r_squared")]
        write_csv(
            os.path.join(outdir, "fig13_threshold.csv"),
            "tau_over_t0,T_omega_thr,slope_fit,r_squared",
            [res["tau_over_t0"], res["T_omega_thr"], *fit],
        )
        s = summarize(p, float("nan"), float("nan"))
        s["threshold_slope"] = res["slope"]
        s["threshold_r_squared"] = res["r_squared"]
        summaries.append(s)
    else:
        raise KeyError("unknown preset %r" % (name,))

    summary = {"schema": 1, "preset": name, "runs": summaries}
    with open(os.path.join(outdir, "%s_summary.json" % name), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    return summary
