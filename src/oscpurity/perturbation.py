"""Second-order weak-coupling purity: a general quadrature over an
arbitrary coupling profile and the top-hat closed form.

The second-order purity is 1 - (1/4) Int Int lambda(t') lambda(t'')
{ [1 - 2 Theta] cos[(w_E - w_S)(t' - t'')] + [1 + 2 Theta] cos[(w_S + w_E)
(t' - t'')] } dt' dt'' with Theta = Theta(t' - t''), Theta(0) = 1/2, and
lambda(t) = xi(t)/sqrt(w_S w_E).  Under the symmetrization t' <-> t'' the
difference-frequency term integrates to zero exactly (its symmetrized
integrand is odd) and the step functions average to one, so the double
integral reduces to (1/2) [C^2 + S^2] with the one-dimensional
cosine/sine moments C, S of lambda at the sum frequency, which is the form
evaluated here.
"""

import numpy as np
from numpy.polynomial.legendre import legvander

from .errors import QuadratureNoConvergence
from .model import (
    ISOSO, ROUNDOFF, coupling_xi, perturbativity_gp, refine_panels, switch_segments,
)

#: The accumulated error estimate of each moment must stay within
#: 100 max(ABS_TOL, REL_TOL |moment|).
ABS_TOL = 1e-10
REL_TOL = 1e-8


def coupling_lambda(t, p):
    """Dimensionless coupling lambda(t) = xi(t)/sqrt(w_S w_E)."""
    return coupling_xi(t, p) / np.sqrt(p.omega_s * p.omega_e)


def spherical_jn_orders(n, x):
    """Spherical Bessel functions j_0 .. j_{n-1} at x >= 0 (any shape), as an
    array of shape x.shape + (n,).

    Orders k <= x come from the upward recurrence j_{k+1} = (2k + 1)/x j_k -
    j_{k-1}, which is stable there.  Orders k > x, where it is not, come from
    Miller's backward recurrence in ratio form, r_k = j_k / j_{k-1} =
    x / (2k + 1 - x r_{k+1}), started 20 orders above the highest one, and
    j_k = r_k j_{k-1}: j_{k-1} has no zero below x = k, so the product keeps
    its relative accuracy.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (n,))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        j0 = np.where(x == 0.0, 1.0, np.sin(x) / x)
        up = [j0, (j0 - np.cos(x)) / x]
        for k in range(1, n - 1):
            up.append((2 * k + 1) / x * up[k] - up[k - 1])
        ratios = [None] * (n + 21)
        r = np.zeros(x.shape)
        for k in range(n + 20, 0, -1):
            r = ratios[k] = x / (2 * k + 1 - x * r)
        out[..., 0] = j0
        for k in range(1, n):
            out[..., k] = np.where(x >= k, up[k], out[..., k - 1] * ratios[k])
    return out


def _filon_rule(n):
    """Nodes x_j and Legendre table (2k + 1) i^k w_j P_k(x_j) ((n, n), row j,
    column k) of the n-node Filon rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    k = np.arange(n)
    return x, (2 * k + 1) * 1j**k * (w[:, None] * legvander(x, n - 1))


#: Filon rules at 8 and 16 Gauss-Legendre nodes; the difference of their
#: panel results is the panel's error estimate.
_RULES = [_filon_rule(n) for n in (8, 16)]

#: Panels evaluated per batch, which bounds the temporaries of a pass.
_CHUNK = 4096


def _filon(lo, hi, p):
    """Int lambda(u) exp(i om u) du (om = w_S + w_E) over the panels [lo, hi]
    ((K,) arrays) under both rules: two complex (K,) arrays.

    Filon's rule integrates the polynomial interpolant of lambda at the
    Gauss-Legendre nodes against exp(i om u) exactly, through
    Int_{-1}^{1} P_k(x) exp(i kappa x) dx = 2 i^k j_k(kappa): it is the
    Gauss-Legendre rule at kappa = 0 and stays exact for any number of
    oscillations per panel while lambda is smooth there.  The weights
    depend on the panel width alone, and bisection leaves few distinct
    widths, so they are computed once per width.
    """
    om = p.omega_s + p.omega_e
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    phase = half * np.exp(1j * om * mid)
    widths, which = np.unique(half, return_inverse=True)
    out = []
    for x, table in _RULES:
        lam = coupling_lambda(mid[:, None] + half[:, None] * x, p)
        weights = (spherical_jn_orders(len(x), om * widths) @ table.T)[which]
        out.append(phase * np.sum(lam * weights, axis=1))
    return out


def _moments(t, p):
    """Moments C + i S of lambda at the sum frequency over [t_in, t] at the
    times t ((N,) array), and their error estimates.

    The first panel edges are the times and the steps of model.switch_segments
    with no cap outside the switch regions and a cap of tau, the scale on
    which the coupling changes, inside them.  model.refine_panels bisects a
    panel while its estimate |G16 - G8| of the 8- and 16-node Filon rules
    exceeds both its share ABS_TOL |panel| / |span| of the absolute
    tolerance and the round-off level of its value.  The 16-node values of
    the kept panels are summed into the first-grid panels they lie in, and
    cumulative sums of those give the moments at every time at once.
    """
    t_lo, t_hi = min(p.t_in, t.min()), max(p.t_in, t.max())
    if t_lo == t_hi:  # every time is t_in
        return np.zeros(len(t), dtype=complex), np.zeros(len(t))
    share = ABS_TOL / (t_hi - t_lo)

    def rule(lo, hi):
        parts = [
            _filon(lo[i : i + _CHUNK], hi[i : i + _CHUNK], p)
            for i in range(0, len(lo), _CHUNK)
        ]
        coarse, fine = (np.concatenate(r) for r in zip(*parts))
        delta = np.abs(fine - coarse)
        return delta <= np.maximum(share * (hi - lo), ROUNDOFF * np.abs(fine)), (fine, delta)

    segments = switch_segments(p, t_lo, t_hi, np.inf, switch_cap=p.tau)
    edges, (_, _, owner, _, fine, delta) = refine_panels(segments, rule, points=t)
    val, err = np.zeros(len(edges) - 1, dtype=complex), np.zeros(len(edges) - 1)
    np.add.at(val, owner, fine)
    np.add.at(err, owner, delta)
    val, err = (np.concatenate([[0], np.cumsum(a)]) for a in (val, err))
    lam0 = p.xi0 / np.sqrt(p.omega_s * p.omega_e)
    k, k_in = np.searchsorted(edges, t), np.searchsorted(edges, p.t_in)
    # A float time stands for an interval of width ~ |t| eps, over which a
    # moment moves by up to lam0 |t| eps; that floor joins the estimate.
    floor = np.finfo(float).eps * lam0 * (np.abs(t) + abs(p.t_in))
    return val[k] - val[k_in], np.abs(err[k] - err[k_in]) + floor


def purity_o2_quadrature(t, p):
    """Second-order purity by Filon panel quadrature (smooth profiles) or
    in closed form (top-hat: purity_o2_isoso).

    Args:
        t: evaluation time, or an array of times in any order.
        p: ScenarioParams (any profile).

    Returns:
        1 minus the symmetrized double integral of the second-order kernel
        over [t_in, t]^2, evaluated through its sum-frequency reduction: a
        float for a scalar t, else an array of t's shape.

    Raises:
        QuadratureNoConvergence: if the accumulated error estimate of the
            moments exceeds 100 max(ABS_TOL, REL_TOL |C|) or 100 max(ABS_TOL,
            REL_TOL |S|), or a purity is not finite; the message names the
            first such time.
    """
    t = np.asarray(t, dtype=float)
    if p.xi0 == 0.0:
        return 1.0 if t.ndim == 0 else np.ones(t.shape)
    if p.profile == ISOSO:
        return purity_o2_isoso(np.clip(t, -p.t0, p.t0) + p.t0, p)
    with np.errstate(over="ignore", invalid="ignore"):
        m, err = _moments(t.ravel(), p)
        gam = 1.0 - 0.5 * (m.real * m.real + m.imag * m.imag)
        small = np.minimum(np.abs(m.real), np.abs(m.imag))
        tol = 100.0 * np.maximum(ABS_TOL, REL_TOL * small)
    for bad, what in (
        (~(err <= tol), "moment error estimate too large"),
        (~np.isfinite(gam), "purity not finite"),
    ):
        if np.any(bad):
            raise QuadratureNoConvergence(
                "%s at t = %r" % (what, float(t.flat[np.argmax(bad)]))
            )
    gam = gam.reshape(t.shape)
    return float(gam) if gam.ndim == 0 else gam


def purity_o2_isoso(dt, p):
    """Closed-form second-order purity for the top-hat profile.

    Args:
        dt: time since the window start (frozen beyond the window).
        p: ScenarioParams.

    Returns:
        1 - 4 g_p^2 (1 + w^2)/(1 + w)^2 sin^2[(w_S + w_E) dt / 2].
    """
    dt = np.minimum(np.asarray(dt, dtype=float), 2.0 * p.t0)
    gp = perturbativity_gp(p)
    w = p.w
    amp = 4.0 * gp * gp * (1.0 + w * w) / (1.0 + w) ** 2
    val = 1.0 - amp * np.sin(0.5 * (p.omega_s + p.omega_e) * dt) ** 2
    if val.ndim == 0:
        return float(val)
    return val
