"""Command-line interface: scenario runs, analytic comparisons, sweeps,
phase-diagram classification, and figure presets.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import dataclasses
import functools
import sys
import warnings

import numpy as np

from .errors import ConfigError, InvalidCaseWarning, OscPurityError
from .model import (
    EXPANSION_NAMES, ISOSO, MAX_STEPS, SURROGATES, IntegratorConfig, classify_regime,
    config_from_pairs, read_pairs,
)

_SWEEP_KEYS = {"param", "grid", "min", "max", "count", "reduction"}

#: Integrator keys that a late-time purity cannot honour: it takes no samples.
_LATETIME_IGNORES = frozenset({"sample_dt"})

#: Every integrator key: what the threshold scan sets itself, and what the
#: closed forms and quadratures of isoso, perturb and adiabatic never read.
_INTEGRATOR_KEYS = frozenset(f.name for f in dataclasses.fields(IntegratorConfig))

#: Sweep reductions: the fewest grid points each needs (the centered log-log
#: slope takes three, the threshold line fit two) and the integrator keys it
#: would ignore.
_REDUCTIONS = {
    "latetime_purity": (1, _LATETIME_IGNORES),
    "slope": (3, _LATETIME_IGNORES),
    "threshold": (2, _INTEGRATOR_KEYS),
}


def _read_text(path, what):
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise ConfigError("cannot read %s %r: %s" % (what, path, exc))


def _reject_ignored(kv, ignored, what):
    """ConfigError naming the keys of kv in ignored, which `what` would ignore."""
    unused = sorted(ignored.intersection(kv))
    if unused:
        raise ConfigError("%s would ignore %s" % (what, ", ".join(unused)))


def _load_scenario(args, ignored=frozenset()):
    """Scenario and integrator settings of args.config; a key in ignored is a
    ConfigError."""
    kv = read_pairs(_read_text(args.config, "config"))
    p, cfg = config_from_pairs(kv)
    _reject_ignored(kv, ignored, repr(args.command))
    return p, cfg


# ---------------------------------------------------------------------------
# Subcommands: each imports the layers it runs, so that a call loads no others
# ---------------------------------------------------------------------------


def cmd_simulate(args):
    from . import output
    from .transport import integrate

    out = output.out_dir(args.out)
    p, cfg = _load_scenario(args)
    traj = integrate(p, cfg)
    output.write_trajectory(out("trajectory.csv"), traj)
    summary = output.summarize_purity(p, traj.purity_s)
    output.write_json(out("summary.json"), summary)
    output.emit(summary, args.json)
    return 0


def cmd_isoso(args):
    from . import isoso, output

    out = output.out_dir(args.out)
    p, _ = _load_scenario(args, _INTEGRATOR_KEYS)
    if p.profile != ISOSO:
        raise ConfigError(
            "the top-hat closed form needs profile = isoso; it would ignore the "
            "smooth switch"
        )
    ts = np.linspace(-p.t0, p.t0, 2001)
    gam = isoso.isoso_purity(ts, p)
    header, columns = "t,purity_analytic", [ts, gam]
    if args.expansion is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InvalidCaseWarning)
            exp = isoso.regime_purity(args.expansion, ts + p.t0, p)
        header, columns = header + ",purity_expansion", columns + [exp]
    output.write_csv(out("isoso.csv"), header, columns)
    output.emit(output.summarize_purity(p, gam), args.json)
    return 0


def cmd_perturb(args):
    from . import output, perturbation

    out = output.out_dir(args.out)
    p, _ = _load_scenario(args, _INTEGRATOR_KEYS)
    ts = np.linspace(p.t_in, -p.t_in, 2001)
    gam = perturbation.purity_o2_quadrature(ts, p)
    output.write_csv(out("perturb.csv"), "t,purity_o2", [ts, gam])
    output.emit(output.summarize_purity(p, gam), args.json)
    return 0


def cmd_adiabatic(args):
    from . import adiabatic, output

    out = output.out_dir(args.out)
    p, _ = _load_scenario(args, _INTEGRATOR_KEYS)
    if p.profile == ISOSO:
        raise ConfigError(
            "the slow-switching expansion needs the smooth profile; the top-hat "
            "switch has no derivative"
        )
    ts = np.linspace(p.t_in, -p.t_in, 1001)
    lo = total = adiabatic.purity_adiabatic_lo(ts, p)
    header, columns = "t,purity_lo", [ts, lo]
    if args.order == 1:
        nlo = adiabatic.purity_nlo_correction(ts, adiabatic.accumulate_phases(p))
        header, columns, total = header + ",delta_nlo", columns + [nlo], lo + nlo
    output.write_csv(out("adiabatic.csv"), header, columns)
    output.emit(output.summarize_purity(p, total), args.json)
    return 0


def cmd_markov(args):
    from . import markov, output
    from .transport import integrate

    out = output.out_dir(args.out)
    p, cfg = _load_scenario(args)
    traj = integrate(p, cfg)
    series = markov.markov_series(traj, args.surrogate)
    output.write_markov_csv(out("markov.csv"), series)
    summary = output.summarize_purity(
        p,
        series["purity"],
        surrogate=args.surrogate,
        cp_fraction=float(np.mean(series["cp_flag"])),
    )
    output.emit(summary, args.json)
    return 0


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def parse_sweep_spec(text):
    """Parse a sweep spec: scenario keys plus param/grid/min/max/count/
    reduction, read by model.read_pairs.

    Returns:
        (ScenarioParams, IntegratorConfig, tau grid, reduction name).

    Raises:
        ConfigError: on a malformed spec, an unknown key (`workers` too:
            sweeps run serially), a grid shorter than its reduction needs or
            longer than MAX_STEPS, min = max with count > 1 or min < max with
            count = 1 (a one-point grid is written min = max), the top-hat
            profile (which ignores tau), or an integrator key that the
            reduction would ignore.
    """
    base = read_pairs(text)
    kv = {key: base.pop(key) for key in list(base) if key in _SWEEP_KEYS}
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
    except ValueError as exc:
        raise ConfigError("bad sweep number: %s" % exc)
    if count < 1 or not 0 < lo <= hi < np.inf:
        raise ConfigError("sweep grid bounds must satisfy 0 < min < max < inf, count >= 1")
    need, ignored = _REDUCTIONS[kv["reduction"]]
    if count < need:
        raise ConfigError(
            "reduction %r needs count >= %d, got %d" % (kv["reduction"], need, count)
        )
    if (count == 1) != (lo == hi):
        raise ConfigError(
            "sweep key 'count' = %d needs 'max' %s 'min' = %g, got %g"
            % (count, "=" if count == 1 else ">", lo, hi)
        )
    if count > MAX_STEPS:
        raise ConfigError("sweep key 'count' = %d is more than %d" % (count, MAX_STEPS))
    p, cfg = config_from_pairs(base)
    if p.profile == ISOSO:
        raise ConfigError("a tau sweep needs the smooth profile; the top-hat ignores tau")
    _reject_ignored(base, ignored, "reduction %r" % kv["reduction"])
    grid = (np.geomspace if grid_kind == "log" else np.linspace)(lo, hi, count)
    return p, cfg, grid, kv["reduction"]


def cmd_sweep(args):
    from . import adiabatic, output
    from .transport import latetime_purity

    out = output.out_dir(args.out)
    p, cfg, grid, reduction = parse_sweep_spec(_read_text(args.spec, "sweep spec"))
    summary = {"schema": output.SCHEMA, "kind": reduction, "points": len(grid)}
    if reduction == "threshold":
        res = adiabatic.recoherence_threshold_scan(p, grid / p.t0)
        header, value = "tau_over_t0,T_omega_thr", res["T_omega_thr"]
        summary["fit"] = {key: res[key] for key in ("slope", "intercept", "r_squared")}
    elif reduction == "slope":
        res = adiabatic.nonanalyticity_slope(p, grid, cfg)
        header, value = "tau_over_t0,gamma_inf", res["gamma_inf"]
        output.write_slope_csv(out("sweep_slope.csv"), res)
    else:
        header = "tau_over_t0,gamma_inf"
        value = latetime_purity([dataclasses.replace(p, tau=float(tau)) for tau in grid], cfg)
    output.write_csv(out("sweep.csv"), header, [grid / p.t0, value])
    output.emit(summary, args.json)
    return 0


# ---------------------------------------------------------------------------
# Phase diagram
# ---------------------------------------------------------------------------


def _parse_grid(text, name, hi_max):
    """(min, max, count) of a 'min:max:count' grid option."""
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise ConfigError("--%s expects 'min:max:count'" % name)
    if not (0.0 < lo <= hi <= hi_max) or n < 1:
        raise ConfigError(
            "--%s grid must lie in (0, %g] with count >= 1" % (name, hi_max)
        )
    if (n == 1) != (lo == hi):
        raise ConfigError(
            "--%s count %d needs max %s min = %g, got max %g"
            % (name, n, "=" if n == 1 else ">", lo, hi)
        )
    return lo, hi, n


def phase_diagram(w_grid, psi_grid):
    """Classify each (w, psi) cell.

    Returns:
        list of row dicts with label, perturbative flag, g_p, and the
        near-critical flag |psi - 1| < 0.1.
    """
    rows = []
    for w in w_grid:
        for psi in psi_grid:
            label = classify_regime(float(w), float(psi))
            rows.append(
                {
                    "w": float(w),
                    "psi": float(psi),
                    "label": label.label,
                    "perturbative": label.perturbative_flag,
                    "g_p": label.g_p,
                    "near_critical": abs(float(psi) - 1.0) < 0.1,
                }
            )
    return rows


def cmd_phase_diagram(args):
    from . import output

    out = output.out_dir(args.out)
    w_grid = _parse_grid(args.w, "w", 1.0)
    psi_grid = _parse_grid(args.psi, "psi", 100.0)
    if w_grid[2] * psi_grid[2] > MAX_STEPS:
        raise ConfigError("--w and --psi counts %d x %d give more than %d cells" % (
            w_grid[2], psi_grid[2], MAX_STEPS))
    rows = phase_diagram(np.linspace(*w_grid), np.linspace(*psi_grid))
    keys = ("w", "psi", "label", "perturbative", "g_p", "near_critical")
    output.write_csv(
        out("phase_diagram.csv"),
        ",".join(keys),
        [[r[k] for r in rows] for k in keys],
        [output.FMT, output.FMT, "%s", "%d", output.FMT, "%d"],
    )
    labels = sorted({r["label"] for r in rows})
    summary = {"schema": output.SCHEMA, "cells": len(rows), "labels": labels}
    output.emit(summary, args.json)
    return 0


def cmd_preset(args):
    from . import output, presets

    if args.name not in presets.PRESET_NAMES:
        raise ConfigError(
            "unknown preset %r (choose from %s)"
            % (args.name, ", ".join(presets.PRESET_NAMES))
        )
    output.emit(presets.run_preset(args.name, args.out), args.json)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built on first use and reused by every main call
    of the process."""
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
    sp.add_argument(
        "--expansion",
        choices=EXPANSION_NAMES,
        metavar="EXPANSION",
        help="regime expansion case",
    )

    sp = add("perturb", cmd_perturb, help="second-order purity")
    sp.add_argument("--config", required=True)

    sp = add("adiabatic", cmd_adiabatic, help="slow-switching purity")
    sp.add_argument("--config", required=True)
    sp.add_argument("--order", type=int, choices=(0, 1), default=0)

    sp = add("markov", cmd_markov, help="Markovianity analysis")
    sp.add_argument("--config", required=True)
    sp.add_argument(
        "--surrogate", choices=SURROGATES, default="drop-negative"
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
