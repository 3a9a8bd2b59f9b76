"""Tests for scenario parameters, the coupling profile, the normal-mode
frame, regime classification, and config parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numutil import adiabatic_frame

from oscpurity.errors import ConfigError, CriticalPoint, DerivativeUndefined
from oscpurity.model import (
    ISOSO,
    SMOOTH,
    IntegratorConfig,
    ScenarioParams,
    classify_regime,
    coupling_xi,
    coupling_xi_dot,
    frame_from_xi,
    parse_config,
    perturbativity_gp,
    switch_segments,
)


def make_params(omega_e=2.0, psi=0.9, t0=10.0, tau=1.0, profile=SMOOTH):
    return ScenarioParams.from_psi(1.0, omega_e, psi, t0, tau, profile)


# ---------------------------------------------------------------------------
# ScenarioParams
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ConfigError):
        ScenarioParams(-1.0, 2.0, 1.0, 10.0)
    with pytest.raises(ConfigError):
        ScenarioParams(1.0, 2.0, 1.0, -10.0)
    with pytest.raises(ConfigError):
        ScenarioParams(1.0, 2.0, 1.0, 10.0, tau=0.0)
    with pytest.raises(ConfigError):
        ScenarioParams(1.0, 2.0, 1.0, 10.0, profile="square")
    with pytest.raises(ConfigError):
        ScenarioParams(1.0, 2.0, -0.5, 10.0)
    for key in ("omega_s", "omega_e", "xi0", "t0", "tau"):
        for value in (float("nan"), float("inf"), -float("inf")):
            kwargs = dict(omega_s=1.0, omega_e=2.0, xi0=1.0, t0=10.0, tau=1.0)
            kwargs[key] = value
            with pytest.raises(ConfigError):
                ScenarioParams(**kwargs)


def test_derived_quantities():
    p = make_params(omega_e=2.0, psi=0.9)
    assert p.xi_c == pytest.approx(2.0)
    assert p.psi == pytest.approx(0.9)
    assert p.w == pytest.approx(0.5)
    assert p.t_in == pytest.approx(-10.0 - 20.0)
    assert p.with_profile(ISOSO).t_in == pytest.approx(-10.0)


def test_perturbativity_closed_forms_agree():
    # g_p = psi sqrt(w / (2 (1 + w^2))) in dimensionless variables.
    p = make_params(omega_e=3.0, psi=1.3)
    w = p.w
    assert perturbativity_gp(p) == pytest.approx(
        p.psi * np.sqrt(w / (2.0 * (1.0 + w * w))), rel=1e-12
    )
    assert p.xi_c == pytest.approx(p.omega_s * p.omega_e)


def test_equal_frequencies_gp_half_at_critical():
    p = ScenarioParams.from_psi(1.0, 1.0, 1.0, 10.0)
    assert perturbativity_gp(p) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Coupling profile
# ---------------------------------------------------------------------------


def test_smooth_profile_peak_and_symmetry():
    p = make_params()
    ts = np.linspace(-30.0, 30.0, 101)
    assert np.allclose(coupling_xi(ts, p), coupling_xi(-ts, p))
    # Peak value is attained at t = 0.
    assert coupling_xi(0.0, p) == pytest.approx(np.max(coupling_xi(ts, p)))


@settings(max_examples=200)
@given(
    st.floats(-1e4, 1e4),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.sampled_from([SMOOTH, ISOSO]),
)
def test_profile_is_even_bit_for_bit(t, t0, tau, profile):
    # transport mirrors the propagator of t >= 0 onto t < 0, which is exact
    # only because xi(-t) and xi(t) are the same double.
    p = make_params(t0=t0, tau=tau, profile=profile)
    ts = np.array([t, t0, t0 + tau, 0.5 * t0])
    assert coupling_xi(-ts, p).tobytes() == coupling_xi(ts, p).tobytes()


def test_smooth_profile_peak_equals_xi0():
    p = make_params()
    assert coupling_xi(0.0, p) == pytest.approx(p.xi0, rel=1e-12)


def test_smooth_profile_decays():
    p = make_params(tau=1.0, t0=10.0)
    assert coupling_xi(p.t_in, p) < 1e-12 * p.xi0


def test_xi_dot_matches_finite_difference():
    p = make_params()
    ts = np.linspace(-15.0, 15.0, 41)
    h = 1e-6
    fd = (coupling_xi(ts + h, p) - coupling_xi(ts - h, p)) / (2.0 * h)
    assert np.allclose(coupling_xi_dot(ts, p), fd, rtol=1e-6, atol=1e-8)


def test_isoso_profile():
    p = make_params(profile=ISOSO)
    assert coupling_xi(0.0, p) == pytest.approx(p.xi0)
    assert coupling_xi(-p.t0 - 1e-9, p) == 0.0
    assert coupling_xi(p.t0 + 1e-9, p) == 0.0
    with pytest.raises(DerivativeUndefined):
        coupling_xi_dot(0.0, p)


def test_switch_segments_smooth_window():
    # Breaks at +-t0 -+ 10 tau; tau / 20 = 0.025 caps the two switch regions.
    p = make_params(t0=10.0, tau=0.5)
    assert switch_segments(p, p.t_in, -p.t_in, 0.3, switch_cap=p.tau / 20) == [
        (-20.0, -15.0, 17),
        (-15.0, -5.0, 400),
        (-5.0, 5.0, 34),
        (5.0, 15.0, 400),
        (15.0, 20.0, 17),
    ]


def test_switch_segments_top_hat_window():
    # Breaks at +-t0 only, and no tau / 20 cap anywhere.
    p = make_params(t0=10.0, tau=1.0, profile=ISOSO)
    assert switch_segments(p, -12.0, 12.0, 0.3, switch_cap=p.tau / 20) == [
        (-12.0, -10.0, 7),
        (-10.0, 10.0, 67),
        (10.0, 12.0, 7),
    ]
    assert switch_segments(p, p.t_in, -p.t_in, 0.3, switch_cap=p.tau / 20) == [
        (-10.0, 10.0, 67)
    ]
    # A break within 1e-12 of a window end leaves no sliver segment.
    assert switch_segments(p, -10.0 - 1e-13, 10.0 + 1e-13, 0.3, switch_cap=p.tau / 20) == [
        (-10.0 - 1e-13, 10.0 + 1e-13, 67)
    ]


def test_switch_segments_without_cap():
    # cap = inf: one step outside the switch regions, tau / 20 inside.
    p = make_params(t0=10.0, tau=0.5)
    segments = switch_segments(p, p.t_in, -p.t_in, np.inf, switch_cap=p.tau / 20)
    assert [n for _, _, n in segments] == [1, 400, 1, 400, 1]


def test_switch_segments_switch_cap():
    # The switch cap applies in the switch regions only.
    p = make_params(t0=10.0, tau=0.5)
    counts = [n for _, _, n in switch_segments(p, p.t_in, -p.t_in, 0.3, switch_cap=0.1)]
    assert counts == [17, 100, 34, 100, 17]
    # Every caller states where its switch grid starts.
    with pytest.raises(TypeError):
        switch_segments(p, p.t_in, -p.t_in, 0.3)


def test_switch_segments_window_starting_in_switch_region():
    p = make_params(t0=10.0, tau=0.5)
    assert switch_segments(p, -10.0, 0.0, 0.3, switch_cap=p.tau / 20) == [
        (-10.0, -5.0, 200),
        (-5.0, 0.0, 17),
    ]


# ---------------------------------------------------------------------------
# Normal-mode frame
# ---------------------------------------------------------------------------


def test_frame_diagonalizes_hamiltonian():
    p = make_params(omega_e=2.0, psi=0.7)
    fr = frame_from_xi(p.xi0, p)
    h = np.array([[p.omega_s**2, p.xi0], [p.xi0, p.omega_e**2]])
    c, s = np.cos(fr.theta), np.sin(fr.theta)
    rot = np.array([[c, -s], [s, c]])
    diag = rot @ h @ rot.T
    assert diag[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert diag[0, 0] == pytest.approx(fr.omega1_sq, rel=1e-12)
    assert diag[1, 1] == pytest.approx(fr.omega2_sq, rel=1e-12)


@settings(max_examples=60)
@given(st.floats(0.1, 0.99), st.floats(0.01, 5.0))
def test_frame_eigenvalues_match_numpy(w, psi):
    p = ScenarioParams.from_psi(1.0, 1.0 / w, psi, 10.0)
    if abs(1.0 - psi) < 1e-5:
        return
    fr = frame_from_xi(p.xi0, p)
    h = np.array([[p.omega_s**2, p.xi0], [p.xi0, p.omega_e**2]])
    ev = np.linalg.eigvalsh(h)
    assert fr.omega1_sq == pytest.approx(ev[0], rel=1e-9, abs=1e-9)
    assert fr.omega2_sq == pytest.approx(ev[1], rel=1e-9)
    assert fr.delta_flag == (1 if ev[0] < 0 else 0)


def test_supercritical_flag_and_complex_frequency():
    p = make_params(psi=1.5)
    fr = frame_from_xi(p.xi0, p)
    assert fr.delta_flag == 1
    assert fr.omega1_complex == pytest.approx(1j * fr.omega1_abs)
    sub = frame_from_xi(0.5 * p.xi_c, p)
    assert sub.delta_flag == 0
    assert sub.omega1_complex == pytest.approx(sub.omega1_abs)


def test_critical_point_raises():
    p = make_params(psi=1.0)
    with pytest.raises(CriticalPoint):
        frame_from_xi(p.xi_c, p)


def test_theta_quarter_pi_at_equal_frequencies():
    p = ScenarioParams.from_psi(1.0, 1.0, 0.5, 10.0)
    fr = frame_from_xi(p.xi0, p)
    assert fr.theta == pytest.approx(np.pi / 4.0)


def test_theta_dot_matches_finite_difference():
    p = make_params(psi=0.8)
    h = 1e-6
    for t in (-11.0, -9.5, 0.0, 9.5):
        f1 = adiabatic_frame(t + h, p)
        f2 = adiabatic_frame(t - h, p)
        fd = (f1.theta - f2.theta) / (2.0 * h)
        assert adiabatic_frame(t, p).theta_dot == pytest.approx(
            fd, rel=1e-5, abs=1e-9
        )


def test_beta_matches_finite_difference():
    p = make_params(psi=0.8)
    h = 1e-6
    for t in (-10.5, -9.0, 8.5):
        w1a = np.sqrt(adiabatic_frame(t + h, p).omega1_sq)
        w1b = np.sqrt(adiabatic_frame(t - h, p).omega1_sq)
        w1 = np.sqrt(adiabatic_frame(t, p).omega1_sq)
        fd = (w1a - w1b) / (2.0 * h) / (2.0 * w1)
        assert adiabatic_frame(t, p).beta1 == pytest.approx(fd, rel=1e-5, abs=1e-9)


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "w,psi,expected",
    [
        (1e-2, 1e-2, "U1"),
        (1.0 / 1.01, 0.1, "U2a"),
        (1.0 / 1.1, 0.01, "U2b"),
        (0.1, 1.1, "C1plus"),
        (0.1, 0.9, "C1minus"),
        (1.0 / 1.1, 1.1, "C2plus"),
        (1.0 / 1.1, 0.9, "C2minus"),
        (1e-2, 10.0, "O1a"),
        (0.1, 100.0, "O1b"),
        (1.0 / 1.1, 10.0, "O2"),
    ],
)
def test_labelled_points(w, psi, expected):
    assert classify_regime(w, psi).label == expected


def test_classifier_rejects_bad_input():
    with pytest.raises(ConfigError):
        classify_regime(1.5, 0.5)
    with pytest.raises(ConfigError):
        classify_regime(0.5, -1.0)


def test_perturbative_flag():
    assert classify_regime(1e-2, 1e-2).perturbative_flag
    assert not classify_regime(1.0 / 1.1, 1.1).perturbative_flag


def test_secular_times():
    lbl = classify_regime(1e-2, 1e-2)
    assert lbl.secular_time == pytest.approx(1.0 / 1e-4)
    assert classify_regime(1.0 / 1.1, 10.0).secular_time is None
    lbl = classify_regime(1.0 / 1.01, 0.1, omega_s=2.0)
    assert lbl.label == "U2a"
    assert lbl.secular_time == pytest.approx(1.0 / (2.0 * 0.1))


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_parse_config_roundtrip():
    p, cfg = parse_config(
        """
        # scenario
        omega_s = 1.0
        omega_e = 2.0
        psi = 0.9
        t0 = 10
        tau = 1
        profile = smooth
        rtol = 1e-9
        method = DOP853
        """
    )
    assert p.psi == pytest.approx(0.9)
    assert cfg == IntegratorConfig(rtol=1e-9)


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config("")
    with pytest.raises(ConfigError):
        parse_config("omega_e = 2\nt0 = 1\n")  # no coupling amplitude
    with pytest.raises(ConfigError):
        parse_config("omega_e = 2\nt0 = 1\nxi0 = 1\npsi = 0.5\n")  # both
    with pytest.raises(ConfigError):
        parse_config("omega_e = 2\nt0 = 1\npsi = 0.5\nbogus = 3\n")
    with pytest.raises(ConfigError):
        parse_config("omega_e = 2\nomega_e = 3\nt0 = 1\npsi = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config("omega_e = two\nt0 = 1\npsi = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config("omega_e = 2\nt0 = 1\npsi = 0.5\nt_end_policy = weird\n")
    with pytest.raises(ConfigError):
        parse_config("omega_e = 2\nt0 = 1\npsi = 0.5\nmethod = bogus\n")


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
def test_parse_config_accepts_and_drops_legacy_method(method):
    # Configs written for the earlier Runge-Kutta solvers still load.
    _, cfg = parse_config("omega_e = 2\nt0 = 1\npsi = 0.5\nmethod = %s\n" % method)
    assert cfg == IntegratorConfig()


_POSITIVE = st.floats(1e-3, 1e3)
_KNOWN_KEYS = (
    "omega_s omega_e xi0 psi t0 tau profile rtol atol max_step sample_dt "
    "t_end_policy cutoff_threshold method"
).split()


#: Valid values of each integrator key.
_INTEGRATOR_VALUES = {
    "rtol": st.floats(1e-14, 1e-2),
    "atol": st.floats(0.0, 1e-6),
    "max_step": _POSITIVE,
    "sample_dt": _POSITIVE,
    "t_end_policy": st.sampled_from(["fixed", "cutoff"]),
    "cutoff_threshold": st.floats(1e-12, 0.5),
}


@st.composite
def config_values(draw):
    """Values of a valid config: required keys, one coupling key, and a
    random subset of the optional scenario and integrator keys."""
    kv = {"omega_e": draw(_POSITIVE), "t0": draw(_POSITIVE)}
    kv[draw(st.sampled_from(["xi0", "psi"]))] = draw(st.floats(0.0, 10.0))
    optional = {
        "omega_s": _POSITIVE,
        "tau": _POSITIVE,
        "profile": st.sampled_from(["smooth", "isoso"]),
        **_INTEGRATOR_VALUES,
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        kv[key] = draw(optional[key])
    return kv


def config_text(kv, order=None, comments=False):
    """Config lines `key = value`, floats written with repr."""
    lines = []
    for k in order or kv:
        v = kv[k]
        lines.append("%s = %s" % (k, repr(v) if isinstance(v, float) else v))
    if comments:
        lines = ["# scenario", ""] + ["  %s  # note" % line for line in lines]
    return "\n".join(lines) + "\n"


@settings(max_examples=100)
@given(config_values(), st.randoms(use_true_random=False), st.booleans())
def test_parse_config_roundtrip_property(kv, rnd, comments):
    # Any valid config, in any key order and with comments, parses back to
    # exactly the written values.
    order = list(kv)
    rnd.shuffle(order)
    p, cfg = parse_config(config_text(kv, order, comments))
    omega_s = kv.get("omega_s", 1.0)
    assert (p.omega_s, p.omega_e, p.t0) == (omega_s, kv["omega_e"], kv["t0"])
    assert p.tau == kv.get("tau", 1.0)
    assert p.profile == kv.get("profile", SMOOTH)
    if "xi0" in kv:
        assert p.xi0 == kv["xi0"]
    else:
        assert p.xi0 == kv["psi"] * omega_s * kv["omega_e"]
    default = IntegratorConfig()
    for key in _INTEGRATOR_VALUES:
        assert getattr(cfg, key) == kv.get(key, getattr(default, key))


@settings(max_examples=50)
@given(
    config_values(),
    st.from_regex(r"[a-z_][a-z0-9_]{0,12}", fullmatch=True).filter(
        lambda key: key not in _KNOWN_KEYS
    ),
)
def test_parse_config_rejects_unknown_key(kv, key):
    kv[key] = 1.0
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(config_text(kv))


@settings(max_examples=50)
@given(config_values(), st.data())
def test_parse_config_rejects_duplicate_key(kv, data):
    key = data.draw(st.sampled_from(sorted(kv)))
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(config_text(kv) + config_text({key: kv[key]}))


@settings(max_examples=50)
@given(config_values(), st.booleans())
def test_parse_config_requires_exactly_one_coupling(kv, both):
    kv.pop("xi0", None)
    kv.pop("psi", None)
    if both:
        kv.update(xi0=0.5, psi=0.5)
    with pytest.raises(ConfigError, match="exactly one of xi0/psi"):
        parse_config(config_text(kv))


@settings(max_examples=100)
@given(config_values(), st.data(), st.sampled_from(["nan", "inf", "-inf"]))
def test_parse_config_rejects_non_finite_values(kv, data, bad):
    numeric = sorted(k for k, v in kv.items() if isinstance(v, float))
    key = data.draw(st.sampled_from(numeric))
    kv[key] = bad
    with pytest.raises(ConfigError):
        parse_config(config_text(kv))
