"""Tests for the command-line interface: exit codes, output files,
byte-level determinism, sweep specs, and the phase diagram."""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from oscpurity import adiabatic, model
from oscpurity.cli import (
    build_parser,
    main,
    parse_sweep_spec,
    phase_diagram,
)
from oscpurity.errors import ConfigError
from oscpurity.model import IntegratorConfig
from oscpurity.presets import PRESET_NAMES, REGIME_POINTS

FAST_CONFIG = """
omega_s = 1.0
omega_e = 2.0
psi = 0.9
t0 = 3.0
tau = 0.5
profile = smooth
"""

SWEEP_SPEC = """
omega_s = 1.0
omega_e = 2.0
psi = 0.9
t0 = 1.0
tau = 1.0
profile = smooth
param = tau
grid = log
min = 2.0
max = 6.0
count = 4
reduction = latetime_purity
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_simulate_success_and_outputs(config_file, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", config_file, "--out", out, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["schema"] == 1
    assert 0.0 < summary["gamma_min"] < 1.0
    assert set(summary) >= {"gamma_min", "gamma_inf", "regime", "omega1_abs", "g_p"}
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    with open(os.path.join(out, "summary.json")) as f:
        assert json.load(f)["gamma_min"] == summary["gamma_min"]


def test_missing_config_is_config_error(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_bad_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("omega_e = 2\nt0 = 1\n")  # no coupling amplitude
    assert main(["simulate", "--config", str(path)]) == 2


def test_bad_arguments_exit_2(capsys):
    assert main(["simulate"]) == 2  # --config required
    assert main(["no-such-command"]) == 2


def test_numerical_failure_exit_3(tmp_path, capsys):
    # The slow-switching expansion refuses supercritical profiles.
    path = tmp_path / "super.cfg"
    path.write_text("omega_e = 2\npsi = 1.5\nt0 = 3\ntau = 0.5\n")
    rc = main(["adiabatic", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "markov"])
def test_critical_coupling_runs(command, tmp_path, capsys):
    # At exactly psi = 1 omega1 vanishes; the summary reports it as ~0.
    path = tmp_path / "critical.cfg"
    path.write_text("omega_e = 2\npsi = 1\nt0 = 1.5\ntau = 0.3\n")
    rc = main([command, "--config", str(path), "--out", str(tmp_path), "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["omega1_abs"] < 1e-7
    assert 0.0 < summary["gamma_min"] <= 1.0


@pytest.mark.parametrize(
    "line", ["omega_e = nan", "omega_e = inf", "t0 = inf", "tau = nan"]
)
def test_non_finite_config_is_config_error(line, tmp_path, capsys):
    values = dict(omega_e="2", psi="0.9", t0="1", tau="0.5")
    key, value = (part.strip() for part in line.split("="))
    values[key] = value
    path = tmp_path / "bad.cfg"
    path.write_text("".join("%s = %s\n" % kv for kv in values.items()))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "sample_dt = 0",
        "rtol = -1",
        "max_step = 0",
        "max_step = 0.1",
        "cutoff_threshold = 2",
        "method = bogus",
    ],
)
def test_bad_integrator_setting_is_config_error(line, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(FAST_CONFIG + line + "\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


#: A finite window that no step grid within the budget covers; tau keeps
#: 20 tau above the float spacing at t0, so the scenario itself is valid.
HUGE_WINDOW = "omega_e = 2\npsi = 0.9\nt0 = 1e300\ntau = 1e290\n"


def test_absurd_window_is_numerical_failure(tmp_path, capsys):
    # t0 = 1e300 is finite, but no step grid within the budget covers it.
    path = tmp_path / "huge.cfg"
    path.write_text(HUGE_WINDOW)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


#: The subcommands that step a config's window, and those that panel it,
#: each with the budget message its count ends in.
_STEPS = "more than %d steps" % model.MAX_STEPS
_PANELS = "more than %d panels" % model.MAX_PANELS
_STEPPED = [(["simulate"], _STEPS), (["markov"], _STEPS)]
_PANELLED = [(["perturb"], _PANELS), (["adiabatic", "--order", "1"], _PANELS)]


@pytest.mark.parametrize(
    "config, runs",
    [
        pytest.param(
            "omega_e = 1e76\npsi = 0.9\nt0 = 1e300\ntau = 1e290\n",
            _STEPPED + [(["adiabatic", "--order", "1"], _PANELS)],
            id="omega_e-1e76-t0-1e300",
        ),
    ],
)
def test_step_count_beyond_a_float_is_numerical_failure(config, runs, tmp_path, capsys):
    # A step so small, and a window so long, that (hi - lo) / step overflows
    # ended in an OverflowError traceback with exit 1.  The count is over
    # budget: exit 3 naming the budget, on every subcommand that takes the
    # config, with no numpy warning on the way.
    path = tmp_path / "budget.cfg"
    path.write_text(config)
    for argv, named in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + ["--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3, (argv, err)
        assert err.startswith("numerical failure") and named in err, (argv, err)
        assert "Warning" not in err, (argv, err)


@pytest.mark.parametrize("command", ["simulate", "markov"])
def test_propagator_overflow_prints_only_the_failure(command, tmp_path, capsys):
    # At psi = 1e8 the propagator overflows on the central segment; the
    # products that overflow printed numpy RuntimeWarnings before the exit.
    path = tmp_path / "overflow.cfg"
    path.write_text("omega_e = 2\npsi = 1e8\nt0 = 1\ntau = 0.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3, err
    assert err == "numerical failure: propagator overflow on [-4, 4]\n"


def test_drop_negative_survives_underflowing_squares(tmp_path, capsys):
    # At omega_s = 1e-150 the off-diagonal entry of B lies below 1e-162, so
    # its square underflows: the normalised eigenvector was 0/0 at 29
    # samples, with numpy RuntimeWarnings on stderr.
    path = tmp_path / "tiny.cfg"
    path.write_text("omega_s = 1e-150\nomega_e = 2\npsi = 0.9\nt0 = 1\ntau = 0.5\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["markov", "--surrogate", "drop-negative", "--config", str(path)]
        rc = main(argv + ["--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    rows = np.loadtxt(out / "markov.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(rows))
    assert np.all(rows[:, -1] == 1.0)


#: Every subcommand that takes a scenario config, both adiabatic orders.
_SCENARIO_RUNS = [
    ["simulate"], ["markov"], ["perturb"], ["adiabatic"], ["adiabatic", "--order", "1"]
]


@pytest.mark.parametrize(
    "config",
    [
        pytest.param("omega_e = 2\npsi = 0.9\nt0 = 1e-13\ntau = 5e-324\n", id="tau-5e-324"),
        pytest.param("omega_e = 2\npsi = 0.9\nt0 = 1\ntau = 1e-18\n", id="tau-1e-18"),
        pytest.param("omega_e = 2\npsi = 0.9\nt0 = 1e300\ntau = 0.5\n", id="t0-1e300"),
    ],
)
def test_switch_below_the_float_spacing_of_t0_is_config_error(config, tmp_path, capsys):
    # Where 20 tau vanishes next to t0, the window [t_in, -t_in] is [-t0, t0]
    # and ends inside the switch-off, so its late-time purity would be read
    # mid-switch.  The scenario is refused, naming tau, on every subcommand
    # that takes it.
    path = tmp_path / "switch.cfg"
    path.write_text(config)
    for argv in _SCENARIO_RUNS:
        out = str(tmp_path / "out")
        rc = main(argv + ["--config", str(path), "--out", out])
        err = capsys.readouterr().err
        assert rc == 2, (argv, err)
        assert err.startswith("config error") and "vanishes next to t0" in err, (argv, err)
        assert not os.path.exists(out)


@pytest.mark.parametrize(
    "t0, tau", [("1e-308", "1e-308"), ("1e-320", "1e-321"), ("5e-324", "5e-324")]
)
def test_switch_rate_overflowing_a_float_is_config_error(t0, tau, tmp_path, capsys):
    # At these tau the coupling's rate xi0 / tau, or the 2 xi0^2 / tau of
    # the normal-mode frame, overflows: the slow-switching path printed numpy
    # RuntimeWarnings and exited 0, or 3 after up to 16 s with --order 1.
    # Both orders refuse the switch, naming tau, before any panel is built.
    path = tmp_path / "fast.cfg"
    path.write_text("omega_e = 2\npsi = 0.9\nt0 = %s\ntau = %s\n" % (t0, tau))
    for argv in (["adiabatic"], ["adiabatic", "--order", "1"]):
        out = str(tmp_path / "out")
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + ["--config", str(path), "--out", out])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert rc == 2, (argv, err)
        assert err.startswith("config error: tau = ") and err.count("\n") == 1, (argv, err)
        assert elapsed < 1.0, (argv, elapsed)
        assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["simulate", "markov", "perturb", "adiabatic"])
@pytest.mark.parametrize("window", ["t0 = 1.7e308\ntau = 0.5", "t0 = 1.7e308\nprofile = isoso"])
def test_window_longer_than_a_float_is_config_error(command, window, tmp_path, capsys):
    # A finite t0 whose window [t_in, -t_in] has a length that overflows is
    # refused with the scenario: exit 2, no traceback and no nan output.
    path = tmp_path / "overflow.cfg"
    path.write_text("omega_e = 2\npsi = 0.9\n%s\n" % window)
    out = str(tmp_path / "out")
    assert main([command, "--config", str(path), "--out", out]) == 2
    assert "length overflows a float" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["simulate", "markov", "adiabatic", "isoso"])
@pytest.mark.parametrize(
    "scenario, named",
    [
        pytest.param("omega_s = 1e300\npsi = 0.9", "omega_s^2 overflows", id="omega_s-1e300"),
        pytest.param("psi = 1e300", "4 xi0^2 overflows", id="psi-1e300"),
        pytest.param("omega_s = 1e-200\npsi = 0.9", "omega_s^2 underflows", id="omega_s-1e-200"),
        pytest.param("omega_s = 1e-160\npsi = 0.9", "omega_s^2 underflows", id="omega_s-1e-160"),
    ],
)
def test_overflowing_squares_are_config_error(command, scenario, named, tmp_path, capsys):
    # Finite inputs whose squared frequencies or coupling overflow ended in
    # an OverflowError traceback (exit 1), and ones whose squares underflow
    # ended in a ZeroDivisionError traceback or a false claim of critical
    # coupling; the scenario now refuses both.
    path = tmp_path / "overflow.cfg"
    path.write_text("omega_e = 2\nt0 = 1\n%s\n" % scenario)
    out = str(tmp_path / "out")
    assert main([command, "--config", str(path), "--out", out]) == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(out)


def test_large_frequency_ratio_is_not_critical(tmp_path, capsys):
    # At omega_e = 1e8, psi = 0.9, omega1^2 = 0.19; the frame once read it as
    # 0 (s - r cancelled) and the run exited 3 claiming the critical value.
    path = tmp_path / "ratio.cfg"
    path.write_text("omega_e = 1e8\npsi = 0.9\nt0 = 1\ntau = 0.5\n")
    rc = main(["adiabatic", "--config", str(path), "--out", str(tmp_path / "out"), "--order", "1"])
    err = capsys.readouterr().err
    assert rc in (0, 3) and "critical" not in err, err


@pytest.mark.parametrize("where", ["file", "under-file", "empty"])
def test_unusable_out_is_config_error_before_any_work(where, config_file, tmp_path, capsys):
    # An --out that is a file, lies under one, or is empty is refused, naming
    # the path, before anything is computed: the window of t0 = 1e300 is a
    # numerical failure (exit 3) once it is integrated.
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = {"file": str(blocker), "under-file": str(blocker / "sub"), "empty": ""}[where]
    huge = tmp_path / "huge.cfg"
    huge.write_text(HUGE_WINDOW)
    iso = tmp_path / "iso.cfg"
    iso.write_text("omega_e = 2\npsi = 0.9\nt0 = 1\nprofile = isoso\n")
    spec = tmp_path / "sweep.spec"
    spec.write_text(SWEEP_SPEC)
    runs = [
        ["simulate", "--config", str(huge)],
        ["markov", "--config", str(huge)],
        ["isoso", "--config", str(iso)],
        ["perturb", "--config", config_file],
        ["adiabatic", "--config", config_file],
        ["sweep", "--spec", str(spec)],
        ["phase-diagram", "--w", "0.1:1:3", "--psi", "0.1:3:3"],
        ["preset", "fig9"],
    ]
    for argv in runs:
        assert main(argv + ["--out", out]) == 2, argv[0]
        assert "config error: output directory %r" % out in capsys.readouterr().err
    assert blocker.read_text() == "kept"


@pytest.mark.parametrize("name", ["trajectory.csv", "summary.json"])
def test_output_file_that_is_a_directory_is_config_error(name, config_file, tmp_path, capsys):
    # A directory where simulate writes one of its files ended in an
    # IsADirectoryError traceback (exit 1): it is a config error naming the
    # file, one line on stderr, and the directory is left alone.
    out = tmp_path / "run"
    (out / name).mkdir(parents=True)
    assert main(["simulate", "--config", config_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: output file %r: Is a directory\n" % str(out / name)
    assert (out / name).is_dir() and not os.listdir(out / name)


@pytest.mark.parametrize(
    "t0, tau", [pytest.param("1e8", "1", id="1e8"), pytest.param("1e300", "1e290", id="1e300")]
)
def test_window_too_long_to_panel_is_numerical_failure(t0, tau, tmp_path, capsys):
    # The plateau alone needs ~1.3e8 one-period phase panels at t0 = 1e8, more
    # than MAX_PANELS: refused before any panel edge is allocated.
    path = tmp_path / "long.cfg"
    path.write_text("omega_e = 2\npsi = 0.78\nt0 = %s\ntau = %s\n" % (t0, tau))
    tracemalloc.start()
    try:
        rc = main(["adiabatic", "--config", str(path), "--out", str(tmp_path), "--order", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert "more than %d panels" % model.MAX_PANELS in capsys.readouterr().err
    assert peak < 1 << 22


ABSURD_SCENARIO = "omega_e = 2\npsi = 0.9\nt0 = 1\ntau = 0.5\nsample_dt = 1e-9\n"


@pytest.mark.parametrize(
    "argv, spec, named",
    [
        # 2.2e10 samples (164 GiB of propagators).
        (["simulate", "--config"], ABSURD_SCENARIO, "sample_dt"),
        (["markov", "--config"], ABSURD_SCENARIO, "sample_dt"),
        # A 1e11-point tau grid (745 GiB).
        (["sweep", "--spec"], SWEEP_SPEC.replace("count = 4", "count = 100000000000"), "count"),
        # 1e12 phase-diagram cells.
        (["phase-diagram", "--w", "0.1:1:1000000", "--psi", "0.1:1:1000000"], None, "--w"),
    ],
    ids=["simulate", "markov", "sweep", "phase-diagram"],
)
def test_absurd_count_is_config_error(argv, spec, named, tmp_path, capsys):
    # Each count is held to one budget before anything of its size is
    # allocated: exit 2 naming the key and the count, no traceback.
    if spec is not None:
        path = tmp_path / "absurd.cfg"
        path.write_text(spec)
        argv = argv + [str(path)]
    tracemalloc.start()
    try:
        rc = main(argv + ["--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err
    assert "more than %d" % (1 << 20) in err
    assert peak < 1 << 22


@pytest.mark.parametrize(
    "command,config",
    [
        # The supercritical mode functions overflow late in a long window.
        ("isoso", "omega_e = 2\npsi = 1.5\nt0 = 300\nprofile = isoso\n"),
        # Float times near 1e300 cannot resolve the sum-frequency phase.
        ("perturb", "omega_e = 2\npsi = 0.3\nt0 = 1e300\ntau = 1e290\n"),
    ],
)
def test_non_finite_analytic_purity_is_numerical_failure(
    command, config, tmp_path, capsys
):
    path = tmp_path / "scenario.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and " at t = " in err
    assert not out.exists()


def test_missing_sweep_spec_is_config_error(tmp_path, capsys):
    spec = str(tmp_path / "nope.spec")
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "reduction, count", [("threshold", 1), ("slope", 2)]
)
def test_sweep_grid_too_short_for_reduction(reduction, count, tmp_path, capsys, monkeypatch):
    # Rejected while parsing, before any cell is integrated.
    import oscpurity.adiabatic as adiabatic_mod

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a cell")

    monkeypatch.setattr(adiabatic_mod, "latetime_purity", no_integration)
    monkeypatch.setattr(adiabatic_mod, "recoherence_threshold_scan", no_integration)
    spec = tmp_path / "short.spec"
    spec.write_text(
        SWEEP_SPEC.replace("count = 4", "count = %d" % count).replace(
            "reduction = latetime_purity", "reduction = " + reduction
        )
    )
    out = str(tmp_path / "sw")
    assert main(["sweep", "--spec", str(spec), "--out", out]) == 2
    assert "needs count >=" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "line",
    [
        "rtol = 1e-12",
        "atol = 1e-14",
        "max_step = 0.1",
        "sample_dt = 0.1",
        "t_end_policy = cutoff",
        "cutoff_threshold = 1e-8",
    ],
)
def test_threshold_sweep_rejects_integrator_keys(line, tmp_path, capsys, monkeypatch):
    # The threshold scan runs at its own tolerances: an integrator key in its
    # spec would be ignored, so it is rejected while parsing, before any cell
    # is integrated.
    import oscpurity.adiabatic as adiabatic_mod

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a cell")

    monkeypatch.setattr(adiabatic_mod, "recoherence_threshold_scan", no_integration)
    spec = tmp_path / "threshold.spec"
    spec.write_text(
        SWEEP_SPEC.replace("reduction = latetime_purity", "reduction = threshold")
        + line
        + "\n"
    )
    out = str(tmp_path / "sw")
    assert main(["sweep", "--spec", str(spec), "--out", out]) == 2
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not os.path.exists(out)
    with pytest.raises(ConfigError):
        parse_sweep_spec(spec.read_text())


@pytest.mark.parametrize("line", ["t_end_policy = fixed", "sample_dt = 0.5", "max_step = 0.1"])
@pytest.mark.parametrize(
    "reduction, entry", [("latetime_purity", "latetime_purity"), ("slope", "nonanalyticity_slope")]
)
def test_latetime_sweeps_reject_ignored_integrator_keys(
    reduction, entry, line, tmp_path, capsys, monkeypatch
):
    # A late-time purity takes no samples, so sample_dt would be ignored, and
    # the window has no end-time setting: the spec is rejected while parsing,
    # naming the key, before any cell is integrated.
    import oscpurity.adiabatic as adiabatic_mod

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a cell")

    monkeypatch.setattr(adiabatic_mod, entry, no_integration)
    spec = tmp_path / "latetime.spec"
    spec.write_text(
        SWEEP_SPEC.replace("reduction = latetime_purity", "reduction = " + reduction)
        + line
        + "\n"
    )
    out = str(tmp_path / "sw")
    assert main(["sweep", "--spec", str(spec), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and line.split(" =")[0] in err
    assert not os.path.exists(out)
    with pytest.raises(ConfigError):
        parse_sweep_spec(spec.read_text())
    # The keys these reductions honour stay accepted.
    spec.write_text(spec.read_text().replace(line, "rtol = 1e-9\natol = 1e-11"))
    assert parse_sweep_spec(spec.read_text())[1] == IntegratorConfig(rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize(
    "command, config, line",
    [
        ("isoso", "omega_e = 2\npsi = 0.9\nt0 = 1\nprofile = isoso\n", "rtol = 1e-3"),
        ("perturb", "omega_e = 2\npsi = 0.05\nt0 = 3\ntau = 0.5\n", "atol = 1e-9"),
        ("adiabatic", "omega_e = 2\npsi = 0.9\nt0 = 1\ntau = 4\n", "sample_dt = 0.1"),
    ],
)
def test_analytic_subcommands_reject_integrator_keys(command, config, line, tmp_path, capsys):
    # isoso, perturb and adiabatic integrate nothing, so an integrator key
    # in their config is a config error naming it (exit 2), before anything
    # is written; without it the same config runs.
    path = tmp_path / "scenario.cfg"
    path.write_text(config + line + "\n")
    out = str(tmp_path / "out")
    assert main([command, "--config", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and line.split(" =")[0] in err
    assert not os.path.exists(out)
    path.write_text(config)
    assert main([command, "--config", str(path), "--out", out]) == 0


@pytest.mark.parametrize("key", ["t_end_policy = cutoff", "cutoff_threshold = 1e-8"])
@pytest.mark.parametrize("command", ["simulate", "markov", "sweep"])
def test_end_time_keys_are_unknown(command, key, tmp_path, capsys):
    # Every solve covers [t_in, -t_in]: a config or sweep spec that sets an
    # end time is refused naming the key (exit 2), before anything is written.
    path = tmp_path / "end.cfg"
    path.write_text((SWEEP_SPEC if command == "sweep" else FAST_CONFIG) + key + "\n")
    out = str(tmp_path / "out")
    flag = "--spec" if command == "sweep" else "--config"
    assert main([command, flag, str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown key %r" % key.split(" =")[0] in err
    assert not os.path.exists(out)


def test_isoso_on_smooth_profile_is_config_error(tmp_path, capsys):
    # The top-hat closed form would ignore the smooth switch and its tau.
    path = tmp_path / "smooth.cfg"
    path.write_text("omega_e = 2\npsi = 0.9\nt0 = 3\ntau = 0.5\n")
    out = str(tmp_path / "iso")
    assert main(["isoso", "--config", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "profile = isoso" in err
    assert not os.path.exists(out)
    path.write_text("omega_e = 2\npsi = 0.9\nt0 = 3\nprofile = isoso\n")
    assert main(["isoso", "--config", str(path), "--out", out]) == 0


@pytest.mark.parametrize("order", ["0", "1"])
def test_adiabatic_on_top_hat_is_config_error(order, tmp_path, capsys):
    path = tmp_path / "tophat.cfg"
    path.write_text("omega_e = 2\npsi = 0.9\nt0 = 1\nprofile = isoso\n")
    out = str(tmp_path / "ad")
    assert main(["adiabatic", "--config", str(path), "--out", out, "--order", order]) == 2
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_runtime_never_imports_scipy(tmp_path):
    # A fresh interpreter runs every subcommand, and the map pair no
    # subcommand calls; none of them may pull SciPy into the process, so the
    # CLI's start-up cost stays numpy's.
    script = textwrap.dedent(
        """
        import os, sys
        from oscpurity.cli import main
        from oscpurity.markov import map_pair_evolve
        from oscpurity.model import ScenarioParams
        from oscpurity.transport import integrate

        out = sys.argv[1]
        cfg = os.path.join(out, "s.cfg")
        with open(cfg, "w") as f:
            f.write("omega_e = 2\\npsi = 0.9\\nt0 = 1\\ntau = 0.5\\n")
        iso = os.path.join(out, "iso.cfg")
        with open(iso, "w") as f:
            f.write("omega_e = 2\\npsi = 0.9\\nt0 = 1\\nprofile = isoso\\n")
        spec = os.path.join(out, "sweep.spec")
        with open(spec, "w") as f:
            f.write(%r)
        runs = [
            ["simulate", "--config", cfg],
            ["isoso", "--config", iso, "--expansion", "C2minus"],
            ["perturb", "--config", cfg],
            ["adiabatic", "--config", cfg, "--order", "1"],
            ["markov", "--config", cfg, "--surrogate", "best"],
            ["sweep", "--spec", spec],
            ["phase-diagram", "--w", "0.1:1:3", "--psi", "0.1:3:3"],
            ["preset", "fig9"],
        ]
        codes = [main(r + ["--out", out]) for r in runs]
        p = ScenarioParams.from_psi(1.0, 2.0, 0.9, 1.0, 0.5)
        map_pair_evolve(p, integrate(p), -1.0, 1.0)
        print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
        % SWEEP_SPEC
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == "[0, 0, 0, 0, 0, 0, 0, 0] []"


def test_cli_import_leaves_csv_formatter_tables_unbuilt(tmp_path):
    # The CSV formatter's power-of-ten table is built on the first write, so
    # importing the CLI pays neither for it nor for fractions or decimal.
    script = textwrap.dedent(
        """
        import sys
        import oscpurity.cli
        from oscpurity import output

        before = output._fmt_tables.cache_info().currsize
        loaded = sorted({"fractions", "decimal"} & set(sys.modules))
        output.write_csv(sys.argv[1], "x", [[0.5]])
        print(before, loaded, output._fmt_tables.cache_info().currsize)
        """
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    path = tmp_path / "x.csv"
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 [] 1"
    assert path.read_text() == "x\n5.0000000000000000e-01\n"


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_simulate_csv_is_byte_identical(config_file, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["simulate", "--config", config_file, "--out", out_a]) == 0
    assert main(["simulate", "--config", config_file, "--out", out_b]) == 0
    assert read_bytes(os.path.join(out_a, "trajectory.csv")) == read_bytes(
        os.path.join(out_b, "trajectory.csv")
    )


def test_parser_reused_across_main_calls(config_file, tmp_path, capsys):
    # One process runs a usage error, simulate and isoso --expansion on the
    # parser built by the first call; each gives the exit code and files of
    # the same call on a freshly built parser.
    t0, w, psi = REGIME_POINTS["U2a"]
    iso = tmp_path / "u2a.cfg"
    iso.write_text(
        "omega_s = 1\nomega_e = %r\npsi = %r\nt0 = %r\nprofile = isoso\n"
        % (1.0 / w, psi, t0)
    )
    runs = (
        ["simulate"],
        ["simulate", "--config", config_file],
        ["isoso", "--config", str(iso), "--expansion", "U2a"],
    )

    def run_all(out, fresh):
        codes = []
        for argv in runs:
            if fresh:
                build_parser.cache_clear()
            codes.append(main(argv + ["--out", out]))
        return codes, {n: read_bytes(os.path.join(out, n)) for n in os.listdir(out)}

    build_parser.cache_clear()
    reused = run_all(str(tmp_path / "reused"), fresh=False)
    assert build_parser.cache_info().misses == 1
    assert reused[0] == [2, 0, 0]
    assert sorted(reused[1]) == ["isoso.csv", "summary.json", "trajectory.csv"]
    assert reused == run_all(str(tmp_path / "fresh"), fresh=True)


def test_sweep_spec_rejects_workers(tmp_path, capsys):
    # Sweeps run serially: the worker count of the earlier process pool is
    # an unknown key, named in the error.
    with pytest.raises(ConfigError, match="workers"):
        parse_sweep_spec(SWEEP_SPEC + "workers = 2\n")
    spec = tmp_path / "workers.spec"
    spec.write_text(SWEEP_SPEC + "workers = 2\n")
    out = str(tmp_path / "sw")
    assert main(["sweep", "--spec", str(spec), "--out", out]) == 2
    assert "'workers'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_slope_sweep_below_the_deficit_floor_is_numerical_failure(
    tmp_path, capsys, monkeypatch
):
    # The slope reduction is fig12's: when every deficit is below
    # DEFICIT_FLOOR there is no slope to report.
    import oscpurity.adiabatic as adiabatic_mod

    monkeypatch.setattr(
        adiabatic_mod, "latetime_purity", lambda ps, cfg: np.full(len(ps), 1.0 - 1e-15)
    )
    spec = tmp_path / "slope.spec"
    spec.write_text(SWEEP_SPEC.replace("latetime_purity", "slope"))
    out = str(tmp_path / "sw")
    assert main(["sweep", "--spec", str(spec), "--out", out]) == 3
    assert "all purity deficits below" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("reduction", ["latetime_purity", "slope", "threshold"])
def test_sweep_cli_writes_csv(reduction, tmp_path, capsys):
    spec = tmp_path / "sweep.cfg"
    spec.write_text(SWEEP_SPEC.replace("latetime_purity", reduction))
    out = str(tmp_path / "sw")
    assert main(["sweep", "--spec", str(spec), "--out", out, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["kind"] == reduction
    assert summary["points"] == 4
    assert ("fit" in summary) == (reduction == "threshold")
    # The reduction's own call on the spec's grid, value for value.
    p, cfg, grid, _ = parse_sweep_spec(SWEEP_SPEC)
    if reduction == "threshold":
        res = adiabatic.recoherence_threshold_scan(p, grid / p.t0)
        column, expected = "T_omega_thr", res["T_omega_thr"]
        assert summary["fit"] == {k: res[k] for k in ("slope", "intercept", "r_squared")}
    elif reduction == "slope":
        column, expected = "gamma_inf", adiabatic.nonanalyticity_slope(p, grid, cfg)["gamma_inf"]
    else:
        column = "gamma_inf"
        expected = adiabatic.latetime_purity(
            [dataclasses.replace(p, tau=float(tau)) for tau in grid], cfg
        )
    files = {"sweep.csv"} | ({"sweep_slope.csv"} if reduction == "slope" else set())
    assert set(os.listdir(out)) == files
    rows = read_bytes(os.path.join(out, "sweep.csv")).decode().splitlines()
    assert rows[0] == "tau_over_t0," + column
    assert len(rows) == 5
    table = np.loadtxt(os.path.join(out, "sweep.csv"), delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table[:, 0], grid / p.t0)
    np.testing.assert_array_equal(table[:, 1], expected)
    if reduction == "slope":
        rows = read_bytes(os.path.join(out, "sweep_slope.csv")).decode().splitlines()
        assert rows[0] == "tau_over_t0,slope,flagged"
        assert len(rows) == 3


@pytest.mark.parametrize(
    "argv, spec",
    [
        (
            ["sweep"],
            SWEEP_SPEC.replace("max = 6.0", "max = 2.5").replace("count = 4", "count = 1"),
        ),
        (["sweep"], SWEEP_SPEC.replace("max = 6.0", "max = 2.0")),
        (["phase-diagram", "--w", "0.1:1:1", "--psi", "0.1:3:3"], None),
        (["phase-diagram", "--w", "0.1:1:3", "--psi", "0.5:3:1"], None),
    ],
    ids=["sweep-one-point", "sweep-no-width", "phase-diagram-w", "phase-diagram-psi"],
)
def test_one_point_grid_needs_max_equal_to_min(argv, spec, tmp_path, capsys):
    # A grid of one point would drop max, and one of several points at
    # min = max would repeat one tau.
    if spec is not None:
        path = tmp_path / "grid.spec"
        path.write_text(spec)
        argv = argv + ["--spec", str(path)]
    out = str(tmp_path / "out")
    assert main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "count" in err and "max" in err
    assert not os.path.exists(out)


def test_one_point_grid_is_written_min_equal_to_max(tmp_path, capsys):
    path = tmp_path / "grid.spec"
    path.write_text(SWEEP_SPEC.replace("max = 6.0", "max = 2.0").replace("count = 4", "count = 1"))
    out = str(tmp_path / "sw")
    assert main(["sweep", "--spec", str(path), "--out", out, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["points"] == 1
    out = str(tmp_path / "pd")
    argv = ["phase-diagram", "--w", "0.5:0.5:1", "--psi", "0.1:3:2", "--out", out, "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["cells"] == 2


# ---------------------------------------------------------------------------
# Sweep spec validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mutation",
    [
        ("param = tau", "param = psi"),  # unsupported sweep parameter
        ("reduction = latetime_purity", "reduction = bogus"),
        ("min = 2.0", "min = -1.0"),
        ("count = 4", "count = 0"),
        ("grid = log", "grid = cubic"),
        ("max = 6.0", ""),  # missing required key
        ("count = 4", "count = 4\nworkers = two"),
    ],
)
def test_sweep_spec_rejections(mutation):
    old, new = mutation
    with pytest.raises(ConfigError):
        parse_sweep_spec(SWEEP_SPEC.replace(old, new))


@pytest.mark.parametrize("reduction", ["latetime_purity", "slope", "threshold"])
def test_tau_sweep_rejects_the_top_hat(reduction, tmp_path, capsys):
    # The top-hat profile ignores tau: every point of the sweep would be the
    # same scenario.
    spec = SWEEP_SPEC.replace("profile = smooth", "profile = isoso").replace(
        "reduction = latetime_purity", "reduction = " + reduction
    )
    with pytest.raises(ConfigError, match="top-hat"):
        parse_sweep_spec(spec)
    path = tmp_path / "tophat.spec"
    path.write_text(spec)
    out = str(tmp_path / "sw")
    assert main(["sweep", "--spec", str(path), "--out", out]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "line", ["max = inf", "max = nan", "min = nan", "min = -inf", "min = inf"]
)
def test_sweep_spec_rejects_non_finite_bounds(line):
    # Rejected before the grid is built, so numpy warns of nothing.
    key = line.split(" =")[0]
    old = "%s = %s" % (key, "2.0" if key == "min" else "6.0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="0 < min < max < inf"):
            parse_sweep_spec(SWEEP_SPEC.replace(old, line))


def test_sweep_spec_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key 'count'"):
        parse_sweep_spec(SWEEP_SPEC + "\ncount = 7\n")


def test_sweep_spec_syntax_error_names_the_spec_line():
    # Sweep keys before the faulty line count too: it is line 8 of the spec.
    spec = (
        "param = tau\nmin = 2.0\nmax = 6.0\ncount = 4\nreduction = latetime_purity\n"
        "omega_e = 2.0\nt0 = 1.0\npsi 0.9\n"
    )
    with pytest.raises(ConfigError, match="^line 8: expected 'key = value'$"):
        parse_sweep_spec(spec)


def test_sweep_grid_kinds():
    _, _, log_grid, _ = parse_sweep_spec(SWEEP_SPEC)
    assert np.allclose(np.diff(np.log(log_grid)), np.log(log_grid[1] / log_grid[0]))
    _, _, lin_grid, _ = parse_sweep_spec(
        SWEEP_SPEC.replace("grid = log", "grid = linear")
    )
    assert np.allclose(np.diff(lin_grid), lin_grid[1] - lin_grid[0])


# ---------------------------------------------------------------------------
# Other subcommands
# ---------------------------------------------------------------------------


def test_isoso_subcommand_with_expansion(tmp_path, capsys):
    t0, w, psi = REGIME_POINTS["U2a"]
    path = tmp_path / "u2a.cfg"
    path.write_text(
        "omega_s = 1\nomega_e = %r\npsi = %r\nt0 = %r\nprofile = isoso\n"
        % (1.0 / w, psi, t0)
    )
    out = str(tmp_path / "iso")
    rc = main(
        ["isoso", "--config", str(path), "--out", out, "--expansion", "U2a", "--json"]
    )
    assert rc == 0
    rows = read_bytes(os.path.join(out, "isoso.csv")).decode().splitlines()
    assert rows[0] == "t,purity_analytic,purity_expansion"
    assert len(rows) == 2002


def test_isoso_expansion_names_are_exact(tmp_path, capsys):
    # Only the expansion cases and their domain labels are accepted: an
    # unknown name and a case label with a suffix are usage errors (exit 2)
    # before anything is written, and a domain label still runs.
    t0, w, psi = REGIME_POINTS["C2plus"]
    path = tmp_path / "c2plus.cfg"
    path.write_text(
        "omega_s = 1\nomega_e = %r\npsi = %r\nt0 = %r\nprofile = isoso\n"
        % (1.0 / w, psi, t0)
    )
    for bad in ("Z9", "C2foo"):
        out = str(tmp_path / bad)
        assert main(["isoso", "--config", str(path), "--out", out, "--expansion", bad]) == 2
        assert "invalid choice: %r" % bad in capsys.readouterr().err
        assert not os.path.exists(out)
    out = str(tmp_path / "ok")
    assert main(["isoso", "--config", str(path), "--out", out, "--expansion", "C2plus"]) == 0
    rows = read_bytes(os.path.join(out, "isoso.csv")).decode().splitlines()
    assert rows[0] == "t,purity_analytic,purity_expansion"
    assert len(rows) == 2002


def test_perturb_subcommand(config_file, tmp_path, capsys):
    path = tmp_path / "weak.cfg"
    path.write_text("omega_e = 2\npsi = 0.05\nt0 = 3\ntau = 0.5\n")
    out = str(tmp_path / "pt")
    assert main(["perturb", "--config", str(path), "--out", out, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["gamma_min"] < 1.0
    assert os.path.exists(os.path.join(out, "perturb.csv"))


def test_adiabatic_subcommand_orders(tmp_path, capsys):
    path = tmp_path / "slow.cfg"
    path.write_text("omega_e = 2\npsi = 0.9\nt0 = 1\ntau = 4\n")
    out = str(tmp_path / "ad")
    assert main(["adiabatic", "--config", str(path), "--out", out, "--order", "1"]) == 0
    rows = read_bytes(os.path.join(out, "adiabatic.csv")).decode().splitlines()
    assert rows[0] == "t,purity_lo,delta_nlo"


def test_markov_subcommand(config_file, tmp_path, capsys):
    out = str(tmp_path / "mk")
    rc = main(
        [
            "markov",
            "--config",
            config_file,
            "--out",
            out,
            "--surrogate",
            "drop-negative",
            "--json",
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["surrogate"] == "drop-negative"
    assert 0.0 <= summary["cp_fraction"] <= 1.0
    rows = read_bytes(os.path.join(out, "markov.csv")).decode().splitlines()
    assert rows[0].startswith("t,purity,lambda_minus")


# ---------------------------------------------------------------------------
# Phase diagram
# ---------------------------------------------------------------------------


def test_phase_diagram_symmetric_point():
    rows = phase_diagram(np.array([1.0]), np.array([1.0]))
    assert len(rows) == 1
    assert rows[0]["g_p"] == pytest.approx(0.5)
    assert rows[0]["near_critical"]


def test_phase_diagram_rejects_w_above_one():
    with pytest.raises(ConfigError):
        phase_diagram(np.array([1.5]), np.array([0.5]))


def test_phase_diagram_labels_regime_points():
    # Each labelled study point must classify to its own regime family.
    for case, (_, w, psi) in REGIME_POINTS.items():
        rows = phase_diagram(np.array([w]), np.array([psi]))
        family = case[0]
        assert rows[0]["label"].startswith(family), (case, rows[0]["label"])


def test_phase_diagram_cli(tmp_path, capsys):
    out = str(tmp_path / "pd")
    rc = main(
        ["phase-diagram", "--w", "0.1:0.9:3", "--psi", "0.1:10:4", "--out", out, "--json"]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cells"] == 12
    rows = read_bytes(os.path.join(out, "phase_diagram.csv")).decode().splitlines()
    assert rows[0] == "w,psi,label,perturbative,g_p,near_critical"
    assert len(rows) == 13


def test_phase_diagram_bad_grid(capsys):
    assert main(["phase-diagram", "--w", "0.1:0.9", "--psi", "1:2:2"]) == 2


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def test_unknown_preset_is_config_error(capsys):
    assert main(["preset", "no-such-figure"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_preset_names_registry():
    assert len(PRESET_NAMES) == 15
    assert "fig2" in PRESET_NAMES and "fig14c" in PRESET_NAMES


def test_fast_preset_runs(tmp_path, capsys):
    out = str(tmp_path / "fig5")
    assert main(["preset", "fig5", "--out", out, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["preset"] == "fig5"
    assert os.path.exists(os.path.join(out, "fig5_summary.json"))


def _strict_json(text):
    # json.loads accepts NaN and Infinity, which no strict parser does.
    def reject(constant):
        raise ValueError("non-standard JSON constant %s" % constant)

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "name, unreported", [("fig12", ["gamma_min"]), ("fig13", ["gamma_inf", "gamma_min"])]
)
def test_late_time_preset_summaries_are_strict_json(name, unreported, tmp_path, capsys):
    # A purity the preset does not report is null, not NaN.
    out = str(tmp_path / name)
    assert main(["preset", name, "--out", out, "--json"]) == 0
    printed = _strict_json(capsys.readouterr().out)
    with open(os.path.join(out, "%s_summary.json" % name)) as f:
        written = _strict_json(f.read())
    assert printed == written
    (run,) = written["runs"]
    assert [key for key in ("gamma_inf", "gamma_min") if run[key] is None] == unreported
