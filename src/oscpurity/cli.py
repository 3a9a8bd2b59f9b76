"""Command-line interface: scenario runs, analytic comparisons, sweeps,
phase-diagram classification, and figure presets.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import adiabatic, isoso, markov, perturbation, presets
from .errors import ConfigError, InvalidCaseWarning, OscPurityError
from .model import ISOSO, classify_regime, parse_config
from .presets import FMT, summarize, write_markov_csv, write_rows
from .transport import IntegratorConfig, integrate

_SWEEP_KEYS = {"param", "grid", "min", "max", "count", "reduction", "workers"}

#: Sweep reductions and the fewest grid points each needs: the centered
#: log-log slope takes three, the threshold line fit two.
_REDUCTIONS = {"latetime_purity": 1, "slope": 3, "threshold": 2}


def _read_text(path, what):
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise ConfigError("cannot read %s %r: %s" % (what, path, exc))


def _load_scenario(path):
    p, overrides = parse_config(_read_text(path, "config"))
    return p, IntegratorConfig(**overrides)


def _emit(summary, json_mode):
    if json_mode:
        print(json.dumps(summary, sort_keys=True))
    else:
        for key in sorted(summary):
            print("%s: %s" % (key, summary[key]))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args):
    p, cfg = _load_scenario(args.config)
    traj = integrate(p, cfg)
    os.makedirs(args.out, exist_ok=True)
    traj.to_csv(os.path.join(args.out, "trajectory.csv"))
    summary = summarize(
        p,
        gamma_min=float(np.min(traj.purity_s)),
        gamma_inf=float(traj.purity_s[-1]),
    )
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    _emit(summary, args.json)
    return 0


def cmd_isoso(args):
    p, _ = _load_scenario(args.config)
    ts = np.linspace(-p.t0, p.t0, 2001)
    gam = isoso.isoso_purity(ts, p)
    header = "t,purity_analytic"
    if args.expansion is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InvalidCaseWarning)
            exp = isoso.regime_purity(args.expansion, ts + p.t0, p)
        rows = zip(ts, gam, exp)
        header += ",purity_expansion"
    else:
        rows = zip(ts, gam)
    os.makedirs(args.out, exist_ok=True)
    write_rows(os.path.join(args.out, "isoso.csv"), header, rows)
    _emit(
        summarize(p, gamma_min=float(np.min(gam)), gamma_inf=float(gam[-1])),
        args.json,
    )
    return 0


def cmd_perturb(args):
    p, _ = _load_scenario(args.config)
    t_end = -p.t_in
    ts = np.linspace(p.t_in, t_end, 2001)
    gam = perturbation.purity_o2_quadrature(ts, p)
    os.makedirs(args.out, exist_ok=True)
    write_rows(os.path.join(args.out, "perturb.csv"), "t,purity_o2", zip(ts, gam))
    _emit(
        summarize(p, gamma_min=float(np.min(gam)), gamma_inf=float(gam[-1])),
        args.json,
    )
    return 0


def cmd_adiabatic(args):
    p, _ = _load_scenario(args.config)
    if p.profile == ISOSO:
        raise ConfigError(
            "the slow-switching expansion needs the smooth profile; the top-hat "
            "switch has no derivative"
        )
    ts = np.linspace(p.t_in, -p.t_in, 1001)
    lo = adiabatic.purity_adiabatic_lo(ts, p)
    os.makedirs(args.out, exist_ok=True)
    if args.order == 1:
        nlo = adiabatic.purity_nlo_correction(ts, p, adiabatic.accumulate_phases(p))
        write_rows(
            os.path.join(args.out, "adiabatic.csv"),
            "t,purity_lo,delta_nlo",
            zip(ts, lo, nlo),
        )
        total = lo + nlo
    else:
        write_rows(
            os.path.join(args.out, "adiabatic.csv"), "t,purity_lo", zip(ts, lo)
        )
        total = lo
    _emit(
        summarize(p, gamma_min=float(np.min(total)), gamma_inf=float(total[-1])),
        args.json,
    )
    return 0


def cmd_markov(args):
    p, cfg = _load_scenario(args.config)
    traj = integrate(p, cfg)
    series = markov.markov_series(traj, p, args.surrogate, stride=4)
    os.makedirs(args.out, exist_ok=True)
    write_markov_csv(os.path.join(args.out, "markov.csv"), series)
    summary = summarize(
        p,
        gamma_min=float(np.min(series["purity"])),
        gamma_inf=float(series["purity"][-1]),
        surrogate=args.surrogate,
        cp_fraction=float(np.mean(series["cp_flag"])),
    )
    _emit(summary, args.json)
    return 0


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def parse_sweep_spec(text):
    """Parse a sweep spec: scenario keys plus param/grid/min/max/count/
    reduction/workers.

    `workers` is parsed, capped at the CPU count and returned, but sweeps run
    serially: a process pool cost more than it saved on sweeps of this size.

    Raises:
        ConfigError: on a malformed spec, or a grid shorter than its
            reduction needs.
    """
    sweep_lines = []
    base_lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        key = line.split("=", 1)[0].strip() if "=" in line else None
        if key in _SWEEP_KEYS:
            sweep_lines.append(line)
        else:
            base_lines.append(raw)
    kv = {}
    for line in sweep_lines:
        key, value = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise ConfigError("duplicate sweep key %r" % key)
        kv[key] = value
    for req in ("param", "min", "max", "count", "reduction"):
        if req not in kv:
            raise ConfigError("missing sweep key %r" % req)
    if kv["reduction"] not in _REDUCTIONS:
        raise ConfigError("unknown reduction %r" % kv["reduction"])
    if kv["param"] != "tau":
        raise ConfigError("only 'tau' sweeps are supported, got %r" % kv["param"])
    grid_kind = kv.get("grid", "log")
    if grid_kind not in ("linear", "log"):
        raise ConfigError("grid must be 'linear' or 'log'")
    try:
        lo, hi = float(kv["min"]), float(kv["max"])
        count = int(kv["count"])
        workers = int(kv.get("workers", 1))
    except ValueError as exc:
        raise ConfigError("bad sweep number: %s" % exc)
    if count < 1 or not lo < hi or lo <= 0:
        raise ConfigError("sweep grid bounds must satisfy 0 < min < max, count >= 1")
    need = _REDUCTIONS[kv["reduction"]]
    if count < need:
        raise ConfigError(
            "reduction %r needs count >= %d, got %d" % (kv["reduction"], need, count)
        )
    if count == 1:
        grid = np.array([lo])
    elif grid_kind == "log":
        grid = np.geomspace(lo, hi, count)
    else:
        grid = np.linspace(lo, hi, count)
    p, overrides = parse_config("\n".join(base_lines))
    cfg = IntegratorConfig(**overrides)
    return p, cfg, grid, kv["reduction"], min(max(1, workers), os.cpu_count() or 1)


def run_sweep(p, cfg, grid, reduction, workers=1):
    """Evaluate the sweep reduction over the grid, one cell after another.

    workers is accepted and ignored, so the output is the same for any
    worker count.
    """
    if reduction == "threshold":
        res = adiabatic.recoherence_threshold_scan(p, grid / p.t0, cfg=None)
        return {
            "kind": "threshold",
            "tau_over_t0": res["tau_over_t0"],
            "value": res["T_omega_thr"],
            "fit": {
                "slope": res["slope"],
                "intercept": res["intercept"],
                "r_squared": res["r_squared"],
            },
        }
    gamma_inf = np.array(
        [adiabatic.latetime_purity(p.with_tau(float(tau)), cfg) for tau in grid]
    )
    out = {
        "kind": reduction,
        "tau_over_t0": grid / p.t0,
        "value": gamma_inf,
    }
    if reduction == "slope":
        deficits = 1.0 - gamma_inf
        mid, slopes, flags = adiabatic.loglog_slope(grid / p.t0, deficits)
        out["mid_tau_over_t0"] = mid
        out["slope"] = slopes
        out["flagged"] = flags
    return out


def cmd_sweep(args):
    text = _read_text(args.spec, "sweep spec")
    p, cfg, grid, reduction, _ = parse_sweep_spec(text)
    res = run_sweep(p, cfg, grid, reduction)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    if res["kind"] == "slope":
        write_rows(path, "tau_over_t0,gamma_inf", zip(res["tau_over_t0"], res["value"]))
        write_rows(
            os.path.join(args.out, "sweep_slope.csv"),
            "tau_over_t0,slope,flagged",
            zip(res["mid_tau_over_t0"], res["slope"], res["flagged"].astype(float)),
        )
    else:
        header = (
            "tau_over_t0,T_omega_thr"
            if res["kind"] == "threshold"
            else "tau_over_t0,gamma_inf"
        )
        write_rows(path, header, zip(res["tau_over_t0"], res["value"]))
    summary = {
        "schema": 1,
        "kind": res["kind"],
        "points": len(res["tau_over_t0"]),
    }
    if "fit" in res:
        summary["fit"] = res["fit"]
    _emit(summary, args.json)
    return 0


# ---------------------------------------------------------------------------
# Phase diagram
# ---------------------------------------------------------------------------


def _parse_grid(text, name, hi_max):
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ConfigError("--%s expects 'min:max:count'" % name)
    if not (0.0 < lo <= hi <= hi_max) or n < 1:
        raise ConfigError(
            "--%s grid must lie in (0, %g] with count >= 1" % (name, hi_max)
        )
    return np.linspace(lo, hi, n) if n > 1 else np.array([lo])


def phase_diagram(w_grid, psi_grid):
    """Classify each (w, psi) cell.

    Returns:
        list of row dicts with label, perturbative flag, g_p, and the
        near-critical flag |psi - 1| < 0.1.
    """
    rows = []
    for w in w_grid:
        if w > 1.0:
            raise ConfigError("w > 1: swap the two oscillators instead")
        for psi in psi_grid:
            label = classify_regime(float(w), float(psi))
            gp = float(psi) * np.sqrt(float(w) / (2.0 * (1.0 + w * w)))
            rows.append(
                {
                    "w": float(w),
                    "psi": float(psi),
                    "label": label.label,
                    "perturbative": label.perturbative_flag,
                    "g_p": gp,
                    "near_critical": abs(float(psi) - 1.0) < 0.1,
                }
            )
    return rows


def cmd_phase_diagram(args):
    w_grid = _parse_grid(args.w, "w", 1.0)
    psi_grid = _parse_grid(args.psi, "psi", 100.0)
    rows = phase_diagram(w_grid, psi_grid)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "phase_diagram.csv")
    with open(path, "w") as f:
        f.write("w,psi,label,perturbative,g_p,near_critical\n")
        for r in rows:
            f.write(
                "%s,%s,%s,%d,%s,%d\n"
                % (
                    FMT % r["w"],
                    FMT % r["psi"],
                    r["label"],
                    int(r["perturbative"]),
                    FMT % r["g_p"],
                    int(r["near_critical"]),
                )
            )
    labels = sorted({r["label"] for r in rows})
    _emit({"schema": 1, "cells": len(rows), "labels": labels}, args.json)
    return 0


def cmd_preset(args):
    if args.name not in presets.PRESET_NAMES:
        raise ConfigError(
            "unknown preset %r (choose from %s)"
            % (args.name, ", ".join(presets.PRESET_NAMES))
        )
    summary = presets.run_preset(args.name, args.out)
    _emit(summary, args.json)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oscpurity",
        description="Purity dynamics of two linearly coupled oscillators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument(
            "--json", action="store_true", help="machine-readable summary on stdout"
        )
        return sp

    sp = add("simulate", cmd_simulate, help="exact trajectory run")
    sp.add_argument("--config", required=True)

    sp = add("isoso", cmd_isoso, help="top-hat analytic purity")
    sp.add_argument("--config", required=True)
    sp.add_argument("--expansion", default=None, help="regime expansion case")

    sp = add("perturb", cmd_perturb, help="second-order purity")
    sp.add_argument("--config", required=True)

    sp = add("adiabatic", cmd_adiabatic, help="slow-switching purity")
    sp.add_argument("--config", required=True)
    sp.add_argument("--order", type=int, choices=(0, 1), default=0)

    sp = add("markov", cmd_markov, help="Markovianity analysis")
    sp.add_argument("--config", required=True)
    sp.add_argument(
        "--surrogate", choices=markov.SURROGATES, default="drop-negative"
    )

    sp = add("sweep", cmd_sweep, help="parameter sweep")
    sp.add_argument("--spec", required=True)

    sp = add("phase-diagram", cmd_phase_diagram, help="regime classification grid")
    sp.add_argument("--w", required=True, help="min:max:count")
    sp.add_argument("--psi", required=True, help="min:max:count")

    sp = add("preset", cmd_preset, help="figure-reproduction preset")
    sp.add_argument("name")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OscPurityError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
