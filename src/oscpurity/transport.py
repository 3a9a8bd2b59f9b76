"""Exact numerical integration of the two-mode transport equation;
ground-truth oracle for every analytic module.

The only integrated state is the 4x4 symplectic propagator U from t_in,
dU/dt = K(xi(t)) U with the generator K = Omega H = K0 + xi K1, ordered
(x_S, p_S, x_E, p_E).  The covariance matrix is derived from it as
sigma = L L^T with L = U diag(sqrt(vacuum)), so the two cannot disagree.
Purities are a Cauchy-Binet sum of squared 2x2 minors of L, which stays
accurate deep in the supercritical phase where det sigma_S is exponentially
smaller than the sigma_S entries.

The integrator is the sixth-order Magnus method at the three Gauss-Legendre
nodes of each step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151):
every step is the exponential of a Hamiltonian matrix, so U stays symplectic
to round-off, and a step is exact wherever xi is constant.  K0 holds only 1,
-w_S^2 and -w_E^2 and K1 only -1, so _exponents writes each entry of the
exponent Omega^[6] directly, as the polynomial in h, w_S^2, w_E^2 and the xi
at the nodes that the textbook commutator formula expands to (with sympy);
there is no commutator at run time.

The switch profile is even, so only t >= 0 is stepped.  With R = diag(1, -1,
1, -1), R K(t) R = -K(-t), and the propagator of [-b, -a] is S U^T S for the
propagator U of [a, b], S swapping x and p within each mode; the step nodes
of t < 0 are the running products of these mirrored steps.  Every solve
covers the window [t_in, -t_in], where the switch-off is complete.  The
segments of model.switch_segments on [0, -t_in] refine together: each starts
from a coarse step count m (a fifth of the fastest period, tau / 5 in the
switch regions) that serves only as the first Richardson estimate, and its
next level has 2m equal steps.  A level of n steps after one of m is accepted
once its sixth-order error estimate |P_n - P_m| / ((n/m)^6 - 1) is at most
atol + rtol |P_n| (max-abs norms; the segment at 0 is tested with its
mirror); a level that fails has the error model predict the next one, the
step count whose error would be a tenth of the tolerance, at most eight times
its own (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  So the tolerance
alone, not a fixed step, sets the accepted grid.

Scenarios that share an IntegratorConfig refine together too: each pass
evaluates the next level of every segment still refining, of every scenario,
in one batch of Magnus exponentials (at most _CHUNK steps per call), and the
first pass evaluates the coarse level and the one of twice its steps at once.
The exponential of each step does not depend on the batch it is computed in,
so a scenario's propagator is the same bit for bit alone or in any batch.

`integrate` returns a Trajectory that holds the propagator at every step node;
its samples, like every arbitrary-time query (`propagator_at`, `sigma_at`),
are one partial Magnus step from the node before each time.  `propagate`
returns only U at the end point -t_in of each of a list of scenarios, for
callers that need nothing but the late-time value, and `node_purities` only
the system purity at the step nodes.
"""

import functools
import math
from itertools import groupby

import numpy as np

from .errors import ConfigError, StepFailure
from .model import MAX_STEPS, IntegratorConfig, coupling_xi, switch_segments, vacuum_root
from .symplectic import cauchy_binet

#: Gauss-Legendre nodes of the sixth-order Magnus step, as fractions of it.
_SQRT15 = math.sqrt(15.0)
_GAUSS = np.array([0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0])

#: (1/(2k)!, 1/(2k+1)!) for k = 9, ..., 0: the even and odd parts of the
#: exponential series, highest order first for Horner's rule, as (10, 2, 1).
#: The even constant term 1 is left out and added last.  With the eigenvalues
#: of the squared exponent inside the unit disc, the terms left out sum to
#: about 1/20! ~ 4e-19.
_SERIES = np.array(
    [[1.0 / math.factorial(2 * k), 1.0 / math.factorial(2 * k + 1)] for k in range(9, -1, -1)]
)[:, :, None]
_SERIES[-1, 0] = 0.0

_EYE = np.eye(4)

#: S swaps x and p within each mode: the permutation (1, 0, 3, 2).
_SWAP = [1, 0, 3, 2]

#: Steps computed per batch, which bounds the temporaries of a level.
_CHUNK = 4096

#: Scenarios refined together at most: longer lists are solved in groups,
#: which bounds the state that one pass holds.
_GROUP = 64


def sigma_from_propagator(u, p):
    """Covariance sigma = L L^T evolved from the vacuum by U (one matrix or a
    (N, 4, 4) stack)."""
    l = np.asarray(u) * vacuum_root(p)
    return l @ np.swapaxes(l, -1, -2)


def purity_from_propagator(u, p):
    """System purity 1/sqrt(det sigma_S) from the propagator.

    With L = U diag(sqrt(vacuum)), sigma_S is L_r L_r^T for the system rows
    r of L, so its determinant is the sum of squared 2x2 minors of L_r -- a
    cancellation-free form even when the block entries are exponentially
    large.  Works on one propagator or on a (N, 4, 4) stack.
    """
    l = np.asarray(u) * vacuum_root(p)
    return 1.0 / np.sqrt(cauchy_binet(l[..., 0, :], l[..., 1, :]))


# ---------------------------------------------------------------------------
# Sixth-order Magnus steps
# ---------------------------------------------------------------------------


def _exponents(t0, h, p):
    """Magnus exponents Omega^[6] of the steps [t0, t0 + h] ((N,) arrays) of
    scenario p as a (N, 4, 4) stack.

    With A_i = K0 + x_i K1 at the Gauss nodes, the sixth-order exponent is
        alpha1 = h A2, alpha2 = (sqrt15 h / 3)(A3 - A1),
        alpha3 = (10 h / 3)(A3 - 2 A2 + A1), C1 = [alpha1, alpha2],
        C2 = -[alpha1, 2 alpha3 + C1] / 60,
        Omega = alpha1 + alpha3 / 12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240.
    K0 holds only 1, -w_S^2 and -w_E^2 and K1 only -1, so each entry of Omega
    is a polynomial in h, a = w_S^2, b = w_E^2, x2, d = x3 - x1 and e = x3 -
    2 x2 + x1.  The entries below are that formula expanded with sympy;
    eight distinct polynomials occur.  The entries that a Hamiltonian matrix
    ties together are written once, so every exponent is exactly
    Hamiltonian.
    """
    x1, x2, x3 = coupling_xi(t0[:, None] + h[:, None] * _GAUSS, p).T
    a, b = p.omega_s * p.omega_s, p.omega_e * p.omega_e
    d, e = x3 - x1, x3 - 2.0 * x2 + x1
    h2 = h * h
    dh2 = d * h2
    q = dh2 * dh2 / 2160.0
    g = _SQRT15 / 2160.0 * dh2
    c = h * (0.5 * (a + b) * q + dh2 * d / 72.0 - h2 * e * (e + 6.0 * x2) / 324.0)
    diag = g * h2 * (e + 12.0 * x2) / 3.0
    om = np.empty((len(h), 4, 4))
    om[:, 0, 0] = om[:, 2, 2] = diag
    om[:, 1, 1] = om[:, 3, 3] = -diag
    om[:, 0, 1] = om[:, 2, 3] = h + h * q
    om[:, 0, 3] = om[:, 2, 1] = h2 * h * e / 54.0
    om[:, 0, 2] = g * (60.0 + (a + 3.0 * b) * h2)
    om[:, 3, 1] = -om[:, 0, 2]
    om[:, 2, 0] = g * (60.0 + (3.0 * a + b) * h2)
    om[:, 1, 3] = -om[:, 2, 0]
    om[:, 1, 2] = om[:, 3, 0] = -h * ((1.0 + q) * x2 + (5.0 / 18.0 - (a + b) * h2 / 108.0) * e)
    om[:, 1, 0] = -a * h - c
    om[:, 3, 2] = -b * h - c
    return om


def _expm(om):
    """exp(om) of each 4x4 Hamiltonian matrix of a (N, 4, 4) stack.

    X = om^2 satisfies X^2 + a X + b = 0 with a = -tr(X)/2 and
    b = (tr(X)^2/2 - tr(X^2))/4 (Cayley-Hamilton; the odd traces of a
    Hamiltonian matrix vanish).  So every power series in X reduces to
    p + q X, and exp(om) = c0 + s0 om + (c1 + s1 om) X with (c0, c1) the
    reduction of sum_k X^k/(2k)! and (s0, s1) that of sum_k X^k/(2k+1)!.

    Each matrix's series is summed at om / 2^s, with its own s, the least
    that puts the eigenvalues of its X inside the unit disc, and the result
    squared s times; both series always run all ten terms.  So no matrix's
    exponential depends on the stack it is computed in: a scenario's
    propagator is the same bit for bit whatever it is batched with.
    """
    x = om @ om
    # The 16 entries of X, as (N,) arrays.
    (x00, x01, x02, x03, x10, x11, x12, x13,
     x20, x21, x22, x23, x30, x31, x32, x33) = x.reshape(-1, 16).T
    tr = x00 + x11 + x22 + x33
    tr2 = x00 * x00 + x11 * x11 + x22 * x22 + x33 * x33 + 2.0 * (
        x01 * x10 + x02 * x20 + x03 * x30 + x12 * x21 + x13 * x31 + x23 * x32
    )
    a = -0.5 * tr
    b = 0.25 * (0.5 * tr * tr - tr2)
    # Bound on the eigenvalue moduli of X (roots of z^2 + a z + b), and the
    # squarings s = ceil(log4(radius)) from its exact binary exponent.
    radius = 0.5 * np.abs(a) + np.sqrt(0.25 * a * a + np.abs(b))
    mantissa, exponent = np.frexp(radius)
    s = np.maximum(0, (exponent - (mantissa == 0.5) + 1) // 2)
    # Horner's rule in the basis (1, X') of both series at once for the
    # scaled X' = X / 4^s, in place: (p + q X') X' + e = (e - b' q) +
    # (p - a' q) X'.  c0 - 1 is summed instead of c0, and the identity added
    # last, entry by entry: a rounded c0 ~ 1 would shift the whole diagonal
    # alike, a symplecticity defect that repeats coherently over thousands of
    # steps.
    scale = np.ldexp(1.0, -s)
    sq = scale * scale
    a, b = a * sq, b * (sq * sq)
    p, q, t = np.repeat(_SERIES[0], len(a), axis=1), np.zeros((2, len(a))), np.empty((2, len(a)))
    for e in _SERIES[1:]:
        np.subtract(e, np.multiply(b, q, out=t), out=t)
        np.subtract(p, np.multiply(a, q, out=q), out=q)
        p, t = t, p
    # exp(om / 2^s) - 1 = c0 + s0 om / 2^s + (c1 + s1 om / 2^s) X / 4^s, the
    # powers of two folded exactly into the coefficients; the identity terms
    # go on the diagonals only.
    c0, s0, c1, s1 = p[0], p[1] * scale, q[0] * sq, q[1] * (sq * scale)
    f = s1[:, None, None] * om
    _add_to_diagonals(f, c1)
    f = f @ x
    f += s0[:, None, None] * om
    _add_to_diagonals(f, c0)
    for j in range(s.max(initial=0)):
        g = f[s > j]
        f[s > j] = 2.0 * g + g @ g
    _add_to_diagonals(f, 1.0)
    return f


def _add_to_diagonals(f, c):
    """f[n] += c[n] I in place for a (N, 4, 4) stack (c an (N,) array or a
    float)."""
    for i in range(4):
        f[:, i, i] += c


def _product(e):
    """e[m-1] ... e[1] e[0] of a (m, 4, 4) stack by pairwise reduction; an
    odd last factor joins the last pair."""
    while len(e) > 1:
        pairs = e[1::2] @ e[0:-1:2]
        if len(e) % 2:
            pairs[-1] = e[-1] @ pairs[-1]
        e = pairs
    return e[0]


def _prefix(e):
    """Running products e[j] ... e[0] of a (m, 4, 4) stack.

    The stack is cut into about sqrt(m) blocks; one batched product per
    position runs through all blocks at once, then each block is carried
    by the product of the blocks before it.
    """
    m = len(e)
    width = max(1, math.isqrt(m))
    blocks = -(-m // width)
    q = np.concatenate([e, np.broadcast_to(_EYE, (blocks * width - m, 4, 4))])
    q = q.reshape(blocks, width, 4, 4)
    for j in range(1, width):
        q[:, j] = q[:, j] @ q[:, j - 1]
    carry = np.empty((blocks, 4, 4))
    carry[0] = _EYE
    for i in range(1, blocks):
        carry[i] = q[i - 1, -1] @ carry[i - 1]
    return (q @ carry[:, None]).reshape(-1, 4, 4)[:m]


def _mirror(u):
    """S u^T S of one matrix or a (N, 4, 4) stack, with S swapping x and p
    within each mode: by time reversal, the propagator of the mirrored
    interval.  Only permutes entries, so it is exact."""
    return np.swapaxes(u, -1, -2)[..., _SWAP, :][..., :, _SWAP]


def _segment_propagators(levels):
    """Propagators of the levels (p, t_lo, t_hi, n, keep), each the product
    of n equal Magnus steps of its own scenario p.

    Each level is cut into pieces of at most _CHUNK steps from its start;
    consecutive pieces, of one level or of several and of one scenario or of
    several, share one _expm batch of at most _CHUNK steps, and each piece's
    product is folded into its own level's propagator.

    Returns:
        (totals, steps): the (L, 4, 4) stack of the levels' propagators, and
        per level the list of its step propagators' pieces in time order
        with keep, else None.  The pieces are views into a batch.
    """
    batches, size = [[]], 0
    for k, (_, _, _, n, _) in enumerate(levels):
        for start in range(0, n, _CHUNK):
            count = min(n - start, _CHUNK)
            if size + count > _CHUNK:
                batches.append([])
                size = 0
            batches[-1].append((k, start, count))
            size += count
    totals = np.broadcast_to(_EYE, (len(levels), 4, 4)).copy()
    steps = [[] if keep else None for *_, keep in levels]
    for batch in batches:
        ks, starts, counts = (np.array(v) for v in zip(*batch))
        t_lo = np.array([levels[k][1] for k in ks])
        h = np.repeat([(levels[k][2] - levels[k][1]) / levels[k][3] for k in ks], counts)
        # Step j of a piece starts at t_lo + h (start + j).
        t0 = np.repeat(t_lo, counts) + h * (
            np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - starts, counts)
        )
        # One exponent call per run of pieces of the same scenario.
        om, lo = [], 0
        for p, run in groupby(zip(ks, counts), lambda piece: levels[piece[0]][0]):
            hi = lo + sum(count for _, count in run)
            om.append(_exponents(t0[lo:hi], h[lo:hi], p))
            lo = hi
        e = _expm(om[0] if len(om) == 1 else np.concatenate(om))
        lo = 0
        for k, count in zip(ks, counts):
            piece, lo = e[lo : lo + count], lo + count
            totals[k] = _product(piece) @ totals[k]
            if steps[k] is not None:
                steps[k].append(piece)
    return totals, steps


class Trajectory:
    """Time-ordered propagator samples plus the series derived from them.

    Attributes:
        t: sample times (strictly increasing).
        propagator: (N, 4, 4) symplectic propagators from t_in at t.
        purity_s: system purity (propagator route).
        sigma, xi: covariance samples and coupling at each sample, derived
            on first access.
        step_t, step_u: times (strictly increasing from t_in to -t_in) and
            propagators of the integrator's step nodes, between which every
            query is one smooth partial step; the nodes of t < 0 mirror
            those of t > 0.
    """

    def __init__(self, t, params, step_t, step_u):
        self.params = params
        self.step_t, self.step_u = step_t, step_u
        self.t = np.asarray(t)
        self.propagator = self.propagator_at(self.t)
        self.purity_s = purity_from_propagator(self.propagator, params)

    @functools.cached_property
    def sigma(self):
        return sigma_from_propagator(self.propagator, self.params)

    @functools.cached_property
    def xi(self):
        return np.asarray(coupling_xi(self.t, self.params), dtype=float)

    def propagator_at(self, t):
        """Propagator at an arbitrary time, or a (N, 4, 4) stack at an array
        of times: one partial Magnus step from the last step node at or
        before each time.

        Raises:
            ValueError: for a time outside the integrated window.
        """
        ts = np.asarray(t, dtype=float)
        nodes = self.step_t
        if np.any(ts < nodes[0] - 1e-12) or np.any(ts > nodes[-1] + 1e-12):
            raise ValueError("time %s outside trajectory range" % (t,))
        flat = ts.reshape(-1)
        k = np.clip(np.searchsorted(nodes, flat, side="right") - 1, 0, len(nodes) - 1)
        u = np.empty((len(flat), 4, 4))
        for lo in range(0, len(flat), _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            e = _expm(_exponents(nodes[k[sl]], flat[sl] - nodes[k[sl]], self.params))
            u[sl] = e @ self.step_u[k[sl]]
        return u[0] if ts.ndim == 0 else u.reshape(ts.shape + (4, 4))

    def sigma_at(self, t):
        """Covariance matrix at an arbitrary time, or a (N, 4, 4) stack at an
        array of times."""
        return sigma_from_propagator(self.propagator_at(t), self.params)


def default_sample_dt(p):
    """Default output cadence (2 pi / omega2)/40 at peak coupling."""
    return 2.0 * np.pi / p.omega2_peak / 40.0


def _start_segments(p, t_start, t_end):
    """Segments of [t_start, t_end] with the step counts of the first level.

    The first level is only ever the coarse Richardson estimate of the
    second, of twice its steps, so its steps are four times those of a grid
    that resolves the motion: a fifth of the fastest period and tau / 5 in
    the switch regions.  The tolerance alone then sets the accepted grid,
    whose steps are at most half of these.
    """
    cap = 0.2 * 2.0 * np.pi / p.omega2_peak
    return switch_segments(p, t_start, t_end, cap, switch_cap=p.tau / 5.0)


def _solve(ps, cfg, keep_nodes):
    """Propagate U over the window [t_in, -t_in] of each scenario of the
    list ps, stepping only t >= 0 and mirroring it onto t < 0.

    xi is even, so with R = diag(1, -1, 1, -1) the generator obeys
    R K(t) R = -K(-t), and a symplectic propagator U over [a, b] has the
    mirror image _mirror(U) = S U^T S over [-b, -a].  Only the segments of
    [0, -t_in] are stepped; the window's [t_in, 0] is their mirror.

    The segments of all scenarios refine together, in groups of at most
    _GROUP scenarios: each pass is one _segment_propagators call over every
    segment still refining, and a segment stops once its Richardson estimate
    meets the tolerance.  The first pass evaluates each segment at its
    _start_segments step count n and at 2n: the first level is compared with
    a NaN estimate, which meets no tolerance, so it is only ever the coarse
    estimate of the next.  After that, a level of m steps that fails with
    the estimate e against its tolerance tol is followed by
    ceil(m (10 e / tol)^(1/6)) steps, at most 8m: the sixth-order error model
    aimed at tol / 10.  Each decision reads only the segment's own levels,
    so a scenario's grid does not depend on its batch.  The segment that
    starts at 0 is tested on the whole mirrored segment [-hi, hi],
    P S P^T S: its half alone would converge a level early.  Every segment
    refines until it converges or fails; then the first failure, in the
    order of the scenarios and of their segments, is raised, which is the
    one refining the segments one after the other would raise.

    The nodes of t < 0 are the running products of the mirrored steps
    S e^T S in reverse order, marched forward from t_in like every other
    node.  Deriving them from the nodes of t > 0 would need the inverse of
    U(-t_in, 0), which cancels like exp(2 gamma t) where U grows.

    Returns:
        per scenario (U(-t_in), times, props): the times and propagators of
        all step nodes with keep_nodes, else None.
    """
    if len(ps) > _GROUP:
        groups = (ps[g : g + _GROUP] for g in range(0, len(ps), _GROUP))
        return [r for group in groups for r in _solve(group, cfg, keep_nodes)]
    # Every scenario's segments of [0, -t_in] in one list, in the order
    # failures are raised; starts[s] is the first segment of scenario s, the
    # central one, and starts[-1] the end of the list.
    owner, bounds, n, starts = [], [], [], []
    for s, p in enumerate(ps):
        starts.append(len(bounds))
        for lo, hi, count in _start_segments(p, 0.0, -p.t_in):
            owner.append(s)
            bounds.append((lo, hi))
            n.append(count)
    starts.append(len(bounds))
    centres = set(starts[:-1])
    # The intervals that failure messages name: a central segment's
    # Richardson test covers its mirror too.
    span = [(-hi, hi) if k in centres else (lo, hi) for k, (lo, hi) in enumerate(bounds)]
    # result[k]: None while refining, (P, steps) once converged, or the
    # failure message.
    result = [
        "[%g, %g] needs more than %d steps" % (lo, hi, MAX_STEPS)
        if count > MAX_STEPS else None
        for (lo, hi), count in zip(span, n)
    ]
    # coarse[k]: the estimate of segment k's last level, and below[k] that
    # level's step count; NaN, which meets no tolerance, before its first.
    coarse = np.full((len(bounds), 4, 4), np.nan)
    below = np.full(len(bounds), np.nan)
    first_pass = True
    while any(r is None for r in result):
        # (segment, steps, keep): the first pass evaluates each segment's
        # first level, only ever the coarse estimate, which keeps no steps,
        # and its doubling.
        levels = [
            (k, count, keep)
            for k, r in enumerate(result)
            if r is None
            for count, keep in (
                ((n[k], False), (2 * n[k], keep_nodes)) if first_pass else ((n[k], keep_nodes),)
            )
            if count <= MAX_STEPS
        ]
        first_pass = False
        # An overflowing product is caught by the finite check below.
        with np.errstate(over="ignore", invalid="ignore"):
            totals, pieces = _segment_propagators(
                [(ps[owner[k]],) + bounds[k] + (count, keep) for k, count, keep in levels]
            )
            # The Richardson estimates of all levels at once, a central
            # segment's with its mirror.
            estimate = totals.copy()
            mid = [i for i, (k, _, _) in enumerate(levels) if k in centres]
            estimate[mid] = totals[mid] @ _mirror(totals[mid])
            finite = np.isfinite(estimate).all(axis=(1, 2))
            tol = cfg.atol + cfg.rtol * np.abs(estimate).max(axis=(1, 2))
        # Each level's outcome, in the order of the per-segment loop.
        for i, (k, count, _) in enumerate(levels):
            if result[k] is not None:
                continue
            lo, hi = span[k]
            if not finite[i]:
                result[k] = "propagator overflow on [%g, %g]" % (lo, hi)
                continue
            # The sixth-order error of this level, from the one below it.
            err = np.abs(estimate[i] - coarse[k]).max() / ((count / below[k]) ** 6 - 1.0)
            if err <= tol[i]:
                # A copy, so that no batch outlives its pass.
                result[k] = (totals[i], None if pieces[i] is None else np.concatenate(pieces[i]))
                continue
            # The step count whose predicted error is a tenth of the
            # tolerance, at most eight times this one; twice it without an
            # error estimate.
            grow = (err / (tol[i] / 10.0)) ** (1.0 / 6.0) if np.isfinite(err) else 2.0
            step = math.ceil(count * min(grow, 8.0))
            if step > MAX_STEPS:
                result[k] = "no convergence on [%g, %g] within %d steps" % (lo, hi, MAX_STEPS)
            else:
                coarse[k], below[k], n[k] = estimate[i], count, step
    failed = next((r for r in result if isinstance(r, str)), None)
    if failed is not None:
        raise StepFailure(failed)
    return [
        _nodes(p, bounds[a:b], n[a:b], result[a:b], keep_nodes)
        for p, a, b in zip(ps, starts, starts[1:])
    ]


def _nodes(p, bounds, n, done, keep_nodes):
    """U(-t_in) and, with keep_nodes, the step node times and propagators of
    one scenario from its converged segments of [0, -t_in]: done[k] = (P,
    steps) for the segments of bounds with n[k] steps."""
    if not keep_nodes:
        w = _EYE
        for total, _ in done:
            w = total @ w
        return w @ _mirror(w), None, None
    # Lay the steps of [0, -t_in] out in time order in one buffer after room
    # for their m mirrored steps, then march them in place into the nodes.
    m = sum(n)
    size = 1 + 2 * m
    times, props = np.empty(size), np.empty((size, 4, 4))
    times[0], props[0], end = p.t_in, _EYE, 1 + m
    for (lo, hi), count, (_, steps) in zip(bounds, n, done):
        times[end : end + count] = lo + (hi - lo) / count * np.arange(1, count + 1)
        times[end + count - 1] = hi
        props[end : end + count] = steps
        end += count
    # Each step of t >= 0 ends at a node of t > 0 and starts at one of
    # t >= 0, whose negative is a node of the mirrored half.
    times[1:m] = -times[m + 1 : 2 * m][::-1]
    times[m] = 0.0
    props[1 : m + 1] = _mirror(props[m + 1 :][::-1])
    for lo in range(1, size, _CHUNK):
        hi = min(size, lo + _CHUNK)
        np.matmul(_prefix(props[lo:hi]), props[lo - 1], out=props[lo:hi])
    return props[-1], times, props


def propagate(ps, cfg=IntegratorConfig()):
    """Propagator U(-t_in) over each scenario's window [t_in, -t_in], without
    samples.

    Args:
        ps: list of ScenarioParams, solved together.
        cfg: IntegratorConfig shared by all of them.

    Returns:
        list of U(-t_in), one per scenario, each the same bit for bit as
        when its scenario is solved alone.

    Raises:
        StepFailure: if a step grid cannot meet the tolerances within the
            step budget, or a propagator overflows; the first failing
            scenario of ps raises it.
    """
    return [u for u, _, _ in _solve(ps, cfg, keep_nodes=False)]


def node_purities(ps, cfg=IntegratorConfig()):
    """System purities at every step node of each scenario's window,
    without samples.

    The scenarios are solved together as in propagate.  The last node is the
    end point, so the last purity is the last sample's of integrate.

    Returns:
        list of (M + 1,) arrays, one per scenario.

    Raises:
        StepFailure: as propagate.
    """
    return [
        purity_from_propagator(props, p)
        for p, (_, _, props) in zip(ps, _solve(ps, cfg, keep_nodes=True))
    ]


def integrate(p, cfg=IntegratorConfig()):
    """Integrate the transport equation over the scenario window
    [t_in, -t_in].

    Args:
        p: ScenarioParams.
        cfg: IntegratorConfig.

    Returns:
        Trajectory sampled every cfg.sample_dt (or the default cadence),
        with arbitrary-time queries.

    Raises:
        StepFailure: if the step grid cannot meet the tolerances within the
            step budget, or the propagator overflows.
        ConfigError: if the window holds more than MAX_STEPS samples (checked
            after the steps: a window too long to step is a StepFailure).
    """
    sample_dt = cfg.sample_dt if cfg.sample_dt is not None else default_sample_dt(p)
    ((_, step_t, step_u),) = _solve([p], cfg, keep_nodes=True)
    intervals = -2.0 * p.t_in / sample_dt
    if intervals + 1 > MAX_STEPS:
        raise ConfigError(
            "sample_dt = %g asks for %.4g samples, more than %d"
            % (sample_dt, intervals + 1, MAX_STEPS)
        )
    n_samples = max(int(np.ceil(intervals)) + 1, 2)
    ts = np.linspace(p.t_in, -p.t_in, n_samples)
    return Trajectory(ts, p, step_t, step_u)
