"""Second-order weak-coupling purity: a general quadrature over an
arbitrary coupling profile and the top-hat closed form.

The second-order purity is 1 - (1/4) Int Int lambda(t') lambda(t'')
{ [1 - 2 Theta] cos[(w_E - w_S)(t' - t'')] + [1 + 2 Theta] cos[(w_S + w_E)
(t' - t'')] } dt' dt'' with Theta = Theta(t' - t''), Theta(0) = 1/2, and
lambda(t) = xi(t)/sqrt(w_S w_E).  Under the symmetrization t' <-> t'' the
difference-frequency term integrates to zero exactly (its symmetrized
integrand is odd) and the step functions average to one, so the double
integral reduces to (1/2) [C^2 + S^2] with the one-dimensional
cosine/sine moments C, S of lambda at the sum frequency.  The
implementation evaluates that reduced form; the full symmetrized integrand
is exposed for direct grid checks.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legvander

from .errors import QuadratureNoConvergence
from .model import ISOSO, coupling_xi, perturbativity_gp, switch_segments


@dataclass(frozen=True)
class QuadratureConfig:
    """Panel quadrature controls: the accumulated error estimate of each
    moment must stay within 100 max(abs_tol, rel_tol |moment|), and a panel
    is bisected at most max_depth times."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_depth: int = 40


def coupling_lambda(t, p):
    """Dimensionless coupling lambda(t) = xi(t)/sqrt(w_S w_E)."""
    return coupling_xi(t, p) / np.sqrt(p.omega_s * p.omega_e)


def o2_integrand(tp, tpp, p):
    """Symmetrized second-order integrand (value of the double-integral
    kernel at (t', t''), including the 1/4 prefactor)."""
    theta = np.where(tp > tpp, 1.0, np.where(tp < tpp, 0.0, 0.5))
    lam = coupling_lambda(tp, p) * coupling_lambda(tpp, p)
    diff = (p.omega_e - p.omega_s) * (tp - tpp)
    tot = (p.omega_s + p.omega_e) * (tp - tpp)
    return 0.25 * lam * (
        (1.0 - 2.0 * theta) * np.cos(diff) + (1.0 + 2.0 * theta) * np.cos(tot)
    )


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

#: An error estimate below this fraction of a panel's value is round-off,
#: which bisection cannot lower.
_ROUNDOFF = 50.0 * np.finfo(float).eps

#: Bisection stops once more than this many panels would be refined; the
#: panels left keep their error estimates, which then fail the acceptance
#: test instead of exhausting memory.
MAX_PANELS = 1 << 18


def _filon(lo, hi, p):
    """Int lambda(u) exp(i om u) du (om = w_S + w_E) over the panels [lo, hi]
    ((K,) arrays) under both rules: two complex (K,) arrays.

    Filon's rule integrates the polynomial interpolant of lambda at the
    Gauss-Legendre nodes against exp(i om u) exactly, through
    Int_{-1}^{1} P_k(x) exp(i kappa x) dx = 2 i^k j_k(kappa): it is the
    Gauss-Legendre rule at kappa = 0 and stays exact for any number of
    oscillations per panel while lambda is smooth there.
    """
    om = p.omega_s + p.omega_e
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    phase = half * np.exp(1j * om * mid)
    out = []
    for x, table in _RULES:
        lam = coupling_lambda(mid[:, None] + half[:, None] * x, p)
        weights = spherical_jn_orders(len(x), om * half) @ table.T
        out.append(phase * np.sum(lam * weights, axis=1))
    return out


def _panel_moments(edges, p, q):
    """Sum-frequency moments C + i S of lambda over each panel [edges[k],
    edges[k + 1]] (complex (K,)), and their error estimates (real (K,)).

    Each panel is integrated with the 8- and 16-node Filon rules; a panel
    whose estimate |G16 - G8| exceeds both its share abs_tol |panel| /
    |span| of the absolute tolerance and the round-off level of its value
    is bisected, at most q.max_depth times, and the 16-node values of its
    pieces are summed back into it.
    """
    lo, hi = edges[:-1], edges[1:]
    owner = np.arange(len(lo))
    val = np.zeros(len(lo), dtype=complex)
    err = np.zeros(len(lo))
    share = q.abs_tol / (edges[-1] - edges[0])
    for depth in range(q.max_depth + 1):
        parts = [
            _filon(lo[i : i + _CHUNK], hi[i : i + _CHUNK], p)
            for i in range(0, len(lo), _CHUNK)
        ]
        coarse, fine = (np.concatenate(r) for r in zip(*parts))
        delta = np.abs(fine - coarse)
        done = delta <= np.maximum(share * (hi - lo), _ROUNDOFF * np.abs(fine))
        if depth == q.max_depth or 2 * np.count_nonzero(~done) > MAX_PANELS:
            done[:] = True
        np.add.at(val, owner[done], fine[done])
        np.add.at(err, owner[done], delta[done])
        if np.all(done):
            break
        lo, hi, owner = lo[~done], hi[~done], owner[~done]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        owner = np.tile(owner, 2)
    return val, err


def _moments(t, p, q):
    """Moments C + i S of lambda at the sum frequency over [t_in, t] at the
    times t ((N,) array), and their error estimates.

    The panel edges are the times and the steps of model.switch_segments
    with no cap: the profile breakpoints, and a tau / 20 grid in the switch
    regions.  Cumulative sums of the panel moments give the moments at every
    time at once.
    """
    om = p.omega_s + p.omega_e
    lam0 = p.xi0 / np.sqrt(p.omega_s * p.omega_e)
    if p.profile == ISOSO:
        ts = np.clip(t, -p.t0, p.t0)
        c = lam0 * (np.sin(om * ts) - np.sin(om * -p.t0)) / om
        s = lam0 * (np.cos(om * -p.t0) - np.cos(om * ts)) / om
        return c + 1j * s, np.zeros(len(t))
    segments = switch_segments(p, min(p.t_in, t.min()), max(p.t_in, t.max()), np.inf)
    edges = np.unique(
        np.concatenate([t] + [np.linspace(lo, hi, n + 1) for lo, hi, n in segments])
    )
    if len(edges) < 2:  # every time is t_in
        return np.zeros(len(t), dtype=complex), np.zeros(len(t))
    val, err = _panel_moments(edges, p, q)
    val, err = (np.concatenate([[0], np.cumsum(a)]) for a in (val, err))
    k, k_in = np.searchsorted(edges, t), np.searchsorted(edges, p.t_in)
    # A float time stands for an interval of width ~ |t| eps, over which a
    # moment moves by up to lam0 |t| eps; that floor joins the estimate.
    floor = np.finfo(float).eps * lam0 * (np.abs(t) + abs(p.t_in))
    return val[k] - val[k_in], np.abs(err[k] - err[k_in]) + floor


def purity_o2_quadrature(t, p, q=QuadratureConfig()):
    """Second-order purity by Filon panel quadrature (smooth profiles) or
    in closed form (top-hat).

    Args:
        t: evaluation time, or an array of times in any order.
        p: ScenarioParams (any profile).
        q: QuadratureConfig.

    Returns:
        1 minus the symmetrized double integral of the second-order kernel
        over [t_in, t]^2, evaluated through its sum-frequency reduction: a
        float for a scalar t, else an array of t's shape.

    Raises:
        QuadratureNoConvergence: if the accumulated error estimate of the
            moments exceeds 100 max(abs_tol, rel_tol |C|) or 100 max(abs_tol,
            rel_tol |S|), or a purity is not finite; the message names the
            first such time.
    """
    t = np.asarray(t, dtype=float)
    if p.xi0 == 0.0:
        return 1.0 if t.ndim == 0 else np.ones(t.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        m, err = _moments(t.ravel(), p, q)
        gam = 1.0 - 0.5 * (m.real * m.real + m.imag * m.imag)
        small = np.minimum(np.abs(m.real), np.abs(m.imag))
        tol = 100.0 * np.maximum(q.abs_tol, q.rel_tol * small)
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
