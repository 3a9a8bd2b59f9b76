"""The benchmark's three workloads, built from a seed.

A workload is a fixed list of operations (one round). Each operation calls
oscpurity through a public entry point, either ``oscpurity.cli.main``
in-process with the same arguments a shell user would type, or one of the
public functions of ``transport``, ``adiabatic`` and ``markov``. The timed
part of an operation is only that call; reading its files and checking them
happens afterwards, outside the timer.

Inputs are drawn from ``numpy.random.default_rng(seed)`` in narrow ranges, so
that a different seed changes the physics a little and the cost very little.
"""

import contextlib
import io
import json
import os

import numpy as np

import checks
from checks import MARKOV_HEADER, TRAJ_HEADER, Scenario

SURROGATES = ("drop-negative", "best", "unitary")

#: The ten labelled expansion points (case -> t0, w, psi) of the regime
#: expansions; the seed only jitters t0 by up to 1%.
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


class Op:
    """One operation of a round.

    run() is the timed call and returns its raw result; collect(raw) turns
    it into the output record that is checked and digested (untimed);
    check(output) returns failure messages. expect_fail marks the one
    operation kept although it fails on every input.
    """

    def __init__(self, label, run, collect, check, expect_fail=False, cli_dir=None):
        self.label = label
        self.run = run
        self.collect = collect
        self.check = check
        self.expect_fail = expect_fail
        self.cli_dir = cli_dir


class OpFailed(Exception):
    """An operation ended with a non-zero exit code or a package error."""


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def scenario_text(sc, extra=()):
    lines = [
        "omega_s = %r" % sc.omega_s,
        "omega_e = %r" % sc.omega_e,
        "xi0 = %r" % sc.xi0,
        "t0 = %r" % sc.t0,
        "profile = %s" % sc.profile,
    ]
    if sc.profile == "smooth":
        lines.append("tau = %r" % sc.tau)
    lines.extend(extra)
    return "\n".join(lines) + "\n"


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)
    return path


def read_dir(path):
    files = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name)) as f:
            files[name] = f.read()
    return files


class Context:
    """Where a workload writes its configs and outputs, and the package."""

    def __init__(self, root, pkg):
        self.root = root
        self.pkg = pkg
        self.configs = []  # (kind, path) for the set-up probe

    def config(self, name, text, kind="scenario"):
        path = write(os.path.join(self.root, "configs", name), text)
        self.configs.append((kind, path))
        return path

    def cli_op(self, label, argv, check, expect_fail=False):
        out = os.path.join(self.root, "out", label)
        os.makedirs(out, exist_ok=True)
        argv = list(argv) + ["--out", out, "--json"]
        main = self.pkg.cli.main

        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv)
            if rc != 0:
                raise OpFailed("exit %d: %s" % (rc, stderr.getvalue().strip()))
            return stdout.getvalue()

        def collect(raw):
            return {"summary": json.loads(raw), "files": read_dir(out)}

        return Op(label, run, collect, check, expect_fail, cli_dir=out)


def as_arrays(result):
    return {k: np.asarray(v) for k, v in result.items()}


def _trajectory_checks(files, sc, name="trajectory.csv"):
    rows = checks.read_csv(files[name], TRAJ_HEADER)
    out = checks.check_invariants(rows, sc)
    if sc.profile == "isoso":
        out += checks.check_tophat_expm(
            rows[:, 0], checks.sigma_from_rows(rows), sc, "sigma", stride=max(1, len(rows) // 40)
        )
    return rows, out


# ---------------------------------------------------------------------------
# scan: late-time purities only
# ---------------------------------------------------------------------------


def build_scan(rng, ctx):
    pkg = ctx.pkg
    u = rng.uniform
    ops = []

    # Late-time purity sweep on a log tau grid, default (RK45) integrator.
    base = Scenario.from_psi(1.0, u(1.96, 2.04), u(0.86, 0.9), u(0.98, 1.02), 1.0)
    lo, hi = base.t0 * u(0.26, 0.27), base.t0 * u(0.47, 0.49)
    spec = ctx.config(
        "latetime.spec",
        scenario_text(base)
        + "param = tau\ngrid = log\nmin = %r\nmax = %r\ncount = 3\n"
        "reduction = latetime_purity\n" % (lo, hi),
        kind="sweep",
    )
    grid = np.geomspace(lo, hi, 3)

    def check_latetime(out):
        rows = checks.read_csv(out["files"]["sweep.csv"], "tau_over_t0,gamma_inf")
        fails = checks.check_purities(rows[:, 1], checks.PURITY_SLACK * 1e-10)
        sc = Scenario(base.omega_s, base.omega_e, base.xi0, base.t0, grid[0])
        return fails + checks.check_latetime_ode(rows[0, 1], sc)

    ops.append(ctx.cli_op("sweep-latetime", ["sweep", "--spec", spec], check_latetime))

    # Deficit-slope sweep, DOP853.
    base2 = Scenario.from_psi(1.0, u(1.96, 2.04), u(0.88, 0.92), u(0.98, 1.02), 1.0)
    lo2, hi2 = base2.t0 * u(1.04, 1.08), base2.t0 * u(2.05, 2.15)
    spec2 = ctx.config(
        "slope.spec",
        scenario_text(base2, ["method = DOP853"])
        + "param = tau\ngrid = log\nmin = %r\nmax = %r\ncount = 3\n"
        "reduction = slope\n" % (lo2, hi2),
        kind="sweep",
    )

    def check_slope(out):
        rows = checks.read_csv(out["files"]["sweep.csv"], "tau_over_t0,gamma_inf")
        srows = checks.read_csv(out["files"]["sweep_slope.csv"], "tau_over_t0,slope,flagged")
        fails = checks.check_purities(rows[:, 1], checks.PURITY_SLACK * 1e-10)
        fails += checks.check_slopes(
            rows[:, 0], 1.0 - rows[:, 1], srows[:, 0], srows[:, 1], srows[:, 2], increasing=False
        )
        return fails

    ops.append(ctx.cli_op("sweep-slope", ["sweep", "--spec", spec2], check_slope))

    # fig12-type tight-tolerance tau grid through nonanalyticity_slope.
    p12 = pkg.ScenarioParams.from_psi(1.0, u(1.96, 2.04), u(0.88, 0.92), u(0.49, 0.51), 1.0)
    taus = p12.t0 * u(3.95, 4.05) * np.geomspace(1.0, 1.75, 4)

    def run_fig12():
        return pkg.adiabatic.nonanalyticity_slope(p12, taus)

    def check_fig12(res):
        fails = checks.check_purities(1.0 - res["deficit"], checks.PURITY_SLACK * 1e-12)
        fails += checks.check_slopes(
            res["tau_over_t0"], res["deficit"], res["mid_tau_over_t0"], res["slope"], res["flagged"]
        )
        return fails

    ops.append(Op("nonanalyticity-slope", run_fig12, as_arrays, check_fig12))

    # Short-grid threshold scan with narrow T_omega bounds.
    p13 = pkg.ScenarioParams.from_psi(1.0, 2.0, u(0.88, 0.92), u(0.99, 1.01), 1.0)
    ratios = tuple(u(0.99, 1.01) * np.array([0.8, 1.6]))
    bounds = (0.25, 0.8)

    def run_threshold():
        return pkg.adiabatic.recoherence_threshold_scan(
            p13, ratios, t_omega_bounds=bounds, rel_resolution=0.1
        )

    ops.append(
        Op(
            "threshold-scan",
            run_threshold,
            as_arrays,
            lambda res: checks.check_threshold(res, bounds),
        )
    )
    return ops


# ---------------------------------------------------------------------------
# trajectory: time-resolved runs, Markovianity, map composition, fig14
# ---------------------------------------------------------------------------


def build_trajectory(rng, ctx):
    pkg = ctx.pkg
    u = rng.uniform
    ops = []
    scenarios = {
        "sub-smooth": Scenario.from_psi(1.0, u(1.96, 2.04), u(0.76, 0.8), u(1.47, 1.53), u(0.29, 0.31)),
        "super-smooth": Scenario.from_psi(1.0, u(1.96, 2.04), u(1.38, 1.42), u(1.47, 1.53), u(0.29, 0.31)),
        "sub-tophat": Scenario.from_psi(1.0, u(1.96, 2.04), u(0.76, 0.8), u(1.47, 1.53), 1.0, "isoso"),
        "super-tophat": Scenario.from_psi(1.0, u(1.96, 2.04), u(1.38, 1.42), u(3.9, 4.1), 1.0, "isoso"),
    }
    for name, sc in scenarios.items():
        cfg = ctx.config(name + ".cfg", scenario_text(sc))
        sim_label = "simulate-" + name

        def check_sim(out, sc=sc, name=name):
            rows, fails = _trajectory_checks(out["files"], sc)
            fails += checks.check_summary(out["summary"], sc, rows[:, 11])
            if name == "super-tophat":
                fails += checks.check_decay_rate(rows[:, 0], rows[:, 11], sc, 0.0, sc.t0)
            return fails

        ops.append(ctx.cli_op(sim_label, ["simulate", "--config", cfg], check_sim))
        for surrogate in SURROGATES:
            if (name, surrogate) == ("super-tophat", "drop-negative"):
                # Left out: deep in the decay, |B| ~ 1e4 and the package's
                # absolute CP tolerance flags this PSD surrogate as not CP
                # on some seeds (see CHANGES.md).
                continue

            def check_markov(out, sc=sc, surrogate=surrogate, sim=sim_label):
                trows = checks.read_csv(
                    read_dir(os.path.join(ctx.root, "out", sim))["trajectory.csv"], TRAJ_HEADER
                )
                mrows = checks.read_csv(out["files"]["markov.csv"], MARKOV_HEADER)
                fails = checks.check_markov(mrows, trows, sc, surrogate)
                fails += checks.check_summary(out["summary"], sc, mrows[:, 1])
                return fails

            ops.append(
                ctx.cli_op(
                    "markov-%s-%s" % (name, surrogate),
                    ["markov", "--config", cfg, "--surrogate", surrogate],
                    check_markov,
                )
            )

    # Exactly critical coupling: integrates, then fails in the summary.
    crit = Scenario.from_psi(1.0, 2.0, 1.0, 1.5, 0.3)
    crit_cfg = ctx.config("critical.cfg", "omega_e = 2\npsi = 1\nt0 = 1.5\ntau = 0.3\n")

    def check_crit(out):
        rows, fails = _trajectory_checks(out["files"], crit)
        return fails + checks.check_summary(out["summary"], crit, rows[:, 11])

    ops.append(
        ctx.cli_op("simulate-critical", ["simulate", "--config", crit_cfg], check_crit, expect_fail=True)
    )

    # Map pairs chained over consecutive intervals and composed.
    sc = scenarios["sub-smooth"]
    p = pkg.ScenarioParams(sc.omega_s, sc.omega_e, sc.xi0, sc.t0, sc.tau)
    cuts = np.concatenate([[-sc.t0], np.sort(u(-sc.t0, sc.t0, 3)), [sc.t0]])
    tol = {"rtol": 1e-12, "atol": 1e-14}

    def run_chain():
        traj = pkg.transport.integrate(p)
        pairs = [
            pkg.markov.map_pair_evolve(p, traj, a, b, **tol) for a, b in zip(cuts[:-1], cuts[1:])
        ]
        total = pairs[0]
        for pair in pairs[1:]:
            total = pkg.markov.compose(total, pair)
        return traj, total

    def collect_chain(raw):
        traj, total = raw
        single = pkg.markov.map_pair_evolve(p, traj, cuts[0], cuts[-1], **tol)
        return {
            "X": total.X,
            "Y": total.Y,
            "X1": single.X,
            "Y1": single.Y,
            "s_a": traj.sigma_at(cuts[0])[:2, :2],
            "s_b": traj.sigma_at(cuts[-1])[:2, :2],
        }

    def check_chain(out):
        ends = (cuts[0], cuts[-1], out["s_a"], out["s_b"])
        return checks.check_composition((out["X"], out["Y"]), (out["X1"], out["Y1"]), ends, sc)

    ops.append(Op("map-chain", run_chain, collect_chain, check_chain))

    # The fig14 presets (fixed scenarios).
    preset_params = {
        "fig14a": Scenario.from_psi(1.0, 10.0, 0.5, 1.0, 0.01),
        "fig14b": Scenario.from_psi(1.0, 2.0, 1.1, 5.0, 1.0),
        "fig14c": Scenario.from_psi(1.0, 10.0, 1.1, 5.0, 1.0),
    }
    for name, sc in preset_params.items():

        def check_preset(out, sc=sc, name=name):
            rows, fails = _trajectory_checks(out["files"], sc, name + "_traj0.csv")
            mrows = checks.read_csv(out["files"][name + "_markov0.csv"], MARKOV_HEADER)
            fails += checks.check_markov(mrows, rows, sc, "drop-negative")
            fails += checks.check_summary(out["summary"]["runs"][0], sc, rows[:, 11])
            return fails

        ops.append(ctx.cli_op("preset-" + name, ["preset", name], check_preset))
    return ops


# ---------------------------------------------------------------------------
# analytic: the layers that never call the integrator
# ---------------------------------------------------------------------------


def build_analytic(rng, ctx):
    pkg = ctx.pkg
    u = rng.uniform
    ops = []
    for case, (t0, w, psi) in REGIME_POINTS.items():
        sc = Scenario.from_psi(1.0, 1.0 / w, psi, t0 * u(0.99, 1.01), 1.0, "isoso")
        cfg = ctx.config("regime-%s.cfg" % case, scenario_text(sc))

        def check_isoso(out, sc=sc):
            rows = checks.read_csv(out["files"]["isoso.csv"], "t,purity_analytic,purity_expansion")
            fails = checks.check_tophat_expm(rows[:, 0], rows[:, 1], sc, "purity", stride=100)
            fails += checks.check_purities(rows[:, 1], checks.PURITY_ROUNDOFF)
            fails += checks.check_summary(out["summary"], sc, rows[:, 1])
            return fails

        ops.append(
            ctx.cli_op("isoso-" + case, ["isoso", "--config", cfg, "--expansion", case], check_isoso)
        )

    perturb = {
        "smooth": Scenario.from_psi(1.0, u(1.96, 2.04), u(0.28, 0.32), u(1.47, 1.53), u(0.29, 0.31)),
        "tophat": Scenario.from_psi(1.0, u(1.96, 2.04), u(0.28, 0.32), u(2.9, 3.1), 1.0, "isoso"),
    }
    for name, sc in perturb.items():
        cfg = ctx.config("perturb-%s.cfg" % name, scenario_text(sc))

        def check_perturb(out, sc=sc):
            rows = checks.read_csv(out["files"]["perturb.csv"], "t,purity_o2")
            return checks.check_o2(rows, sc) + checks.check_summary(out["summary"], sc, rows[:, 1])

        ops.append(ctx.cli_op("perturb-" + name, ["perturb", "--config", cfg], check_perturb))

    sc = Scenario.from_psi(1.0, u(1.96, 2.04), u(0.76, 0.8), u(0.98, 1.02), u(0.98, 1.02))
    cfg = ctx.config("adiabatic.cfg", scenario_text(sc))

    def check_adiabatic(out):
        rows = checks.read_csv(out["files"]["adiabatic.csv"], "t,purity_lo,delta_nlo")
        return checks.check_adiabatic(rows, sc) + checks.check_summary(
            out["summary"], sc, rows[:, 1] + rows[:, 2]
        )

    ops.append(
        ctx.cli_op("adiabatic-order1", ["adiabatic", "--config", cfg, "--order", "1"], check_adiabatic)
    )

    p = pkg.ScenarioParams(sc.omega_s, sc.omega_e, sc.xi0, sc.t0, sc.tau)
    t_end = -sc.t_in
    probe_ts = np.linspace(sc.t_in, t_end, 9)

    def collect_phases(acc):
        return {"phases": np.array([(t,) + acc.phases(t) for t in probe_ts])}

    ops.append(
        Op(
            "accumulate-phases",
            lambda: pkg.adiabatic.accumulate_phases(p),
            collect_phases,
            lambda out: checks.check_phases(out["phases"], sc, t_end),
        )
    )

    w_hi, psi_hi = u(0.95, 1.0), u(9.0, 10.0)
    w_grid, psi_grid = np.linspace(0.05, w_hi, 20), np.linspace(0.1, psi_hi, 40)

    def check_diagram(out):
        return checks.check_phase_diagram(out["files"]["phase_diagram.csv"], w_grid, psi_grid)

    ops.append(
        ctx.cli_op(
            "phase-diagram",
            ["phase-diagram", "--w", "0.05:%r:20" % w_hi, "--psi", "0.1:%r:40" % psi_hi],
            check_diagram,
        )
    )
    return ops


WORKLOADS = {
    "scan": build_scan,
    "trajectory": build_trajectory,
    "analytic": build_analytic,
}


def digest(output):
    """Bytes that two runs of the same operation must reproduce exactly."""
    parts = []

    def add(key, value):
        if isinstance(value, dict):
            for k in sorted(value):
                add("%s.%s" % (key, k), value[k])
        elif isinstance(value, np.ndarray):
            parts.append(("%s:%s:%s" % (key, value.dtype, value.shape)).encode())
            parts.append(np.ascontiguousarray(value).tobytes())
        else:
            parts.append(("%s=%r" % (key, value)).encode())

    add("", output)
    return b"\n".join(parts)
