"""In-memory span tracer that wraps oscpurity's public functions from the
outside, so the package itself carries no tracing code.

Every wrapped call pushes a frame on one stack. On return it records its
duration, the part of that interval its wrapped children covered, and adds
itself to its parent's child time, so self time = duration - child time.
Calls named in ``SPAN_NAMES`` are also kept as individual spans
(name, start, end, parent); the high-frequency ones (``coupling_xi`` runs once
per right-hand-side evaluation) are only aggregated, which keeps the span list
small and the overhead low.
"""

import functools
import sys
import time

# Public functions wrapped as (module, attribute) -> layer name.  A function
# that a later version of the package no longer has is skipped, and its
# metrics then read zero.
FUNCTIONS = (
    ("transport", "integrate", "transport.integrate"),
    ("transport", "purity_from_propagator", "transport.purity_from_propagator"),
    ("model", "coupling_xi", "model.coupling_xi"),
    ("adiabatic", "latetime_purity", "adiabatic.latetime_purity"),
    ("adiabatic", "nonanalyticity_slope", "adiabatic.nonanalyticity_slope"),
    ("adiabatic", "recoherence_threshold_scan", "adiabatic.recoherence_threshold_scan"),
    ("adiabatic", "accumulate_phases", "adiabatic.accumulate_phases"),
    ("adiabatic", "purity_nlo_correction", "adiabatic.purity_nlo_correction"),
    ("markov", "markov_series", "markov.markov_series"),
    ("markov", "map_pair_evolve", "markov.map_pair_evolve"),
    ("perturbation", "purity_o2_quadrature", "perturbation.purity_o2_quadrature"),
    ("isoso", "isoso_purity", "isoso.isoso_purity"),
    ("isoso", "regime_purity", "isoso.regime_purity"),
    ("presets", "run_preset", "presets.run_preset"),
    ("cli", "run_sweep", "cli.run_sweep"),
)

# Trajectory methods wrapped on the class.
METHODS = (
    ("state_at", "transport.state_at"),
    ("to_csv", "transport.to_csv"),
)

# Modules whose own solve_ivp calls are counted, and the counter prefix.
SOLVERS = {
    "transport": "transport",
    "adiabatic": "adiabatic.accumulate_phases",
    "markov": "markov.map_pair",
}

SPAN_NAMES = frozenset(
    {
        "op",
        "transport.integrate",
        "adiabatic.latetime_purity",
        "adiabatic.nonanalyticity_slope",
        "adiabatic.recoherence_threshold_scan",
        "adiabatic.accumulate_phases",
        "markov.markov_series",
        "markov.map_pair_evolve",
        "presets.run_preset",
        "cli.run_sweep",
        "transport.to_csv",
        "scipy.solve_ivp",
    }
)

THRESHOLD_SCAN = "adiabatic.recoherence_threshold_scan"


class Tracer:
    """Spans, per-name aggregates and counters of one traced run."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent_id, child_time)
        self.agg = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self.probe_keys = []  # (params, config) of each threshold probe
        self._stack = []  # frames: [id, name, start, child_time]
        self._next_id = 0
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        entry = self.agg.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        if name in SPAN_NAMES:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((span_id, name, start, end, parent, child))

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def in_span(self, name):
        return any(frame[1] == name for frame in self._stack)

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    # -- installing wrappers -----------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if name == "transport.integrate":
                tracer._after_integrate(args, kwargs, out)
            elif name == "markov.markov_series":
                tracer.count("markov.points", len(out["t"]))
            return out

        return wrapper

    def _after_integrate(self, args, kwargs, traj):
        self.count("transport.samples", len(traj.t))
        if self.in_span(THRESHOLD_SCAN):
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
            self.probe_keys.append((args[0], cfg))

    def _wrap_solver(self, solve_ivp, prefix):
        tracer = self

        @functools.wraps(solve_ivp)
        def wrapper(*args, **kwargs):
            sol = tracer.span("scipy.solve_ivp", solve_ivp, *args, **kwargs)
            tracer.count(prefix + ".rhs_evals", int(sol.nfev))
            tracer.count(prefix + ".steps", len(sol.t) - 1)
            return sol

        return wrapper

    def _wrap_quad(self, quad):
        tracer = self

        @functools.wraps(quad)
        def wrapper(func, *args, **kwargs):
            def counted(*a):
                tracer.counters["perturbation.integrand_evals"] = (
                    tracer.counters.get("perturbation.integrand_evals", 0) + 1
                )
                return func(*a)

            return quad(counted, *args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the package's functions in every oscpurity module that
        refers to them, so calls made through imported names are seen too."""
        modules = {
            name[len("oscpurity."):]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("oscpurity.") and mod is not None
        }
        for mod_name, attr, layer in FUNCTIONS:
            target = getattr(modules.get(mod_name), attr, None)
            if target is None:
                continue
            wrapper = self._wrap(target, layer)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._set(mod, key, wrapper)
        trajectory = getattr(modules.get("transport"), "Trajectory", None)
        for attr, layer in METHODS:
            method = getattr(trajectory, attr, None)
            if method is not None:
                self._set(trajectory, attr, self._wrap(method, layer))
        for mod_name, prefix in SOLVERS.items():
            mod = modules.get(mod_name)
            if mod is not None and hasattr(mod, "solve_ivp"):
                self._set(mod, "solve_ivp", self._wrap_solver(mod.solve_ivp, prefix))
        pert = modules.get("perturbation")
        if pert is not None and hasattr(pert, "quad"):
            self._set(pert, "quad", self._wrap_quad(pert.quad))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading -----------------------------------------------------------

    def total(self, name):
        return self.agg.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name):
        return self.agg.get(name, [0, 0.0, 0.0])[0]

    def layer_metrics(self, rounds):
        """Per-layer metrics per round (rounds are identical, so every count
        divides exactly)."""
        c = self.counters
        integrate_calls = self.calls("transport.integrate")
        probes = len(self.probe_keys)
        distinct = len(set(self.probe_keys))

        def per(value):
            return value / rounds

        return {
            "transport.integrate_s": (per(self.total("transport.integrate")), "s"),
            "transport.integrate_calls": (per(integrate_calls), "count"),
            "transport.rhs_evals": (per(c.get("transport.rhs_evals", 0)), "count"),
            "transport.steps": (per(c.get("transport.steps", 0)), "count"),
            "transport.samples_per_call": (
                c.get("transport.samples", 0) / integrate_calls if integrate_calls else 0.0,
                "count",
            ),
            "transport.purity_s": (per(self.total("transport.purity_from_propagator")), "s"),
            "transport.state_at_calls": (per(self.calls("transport.state_at")), "count"),
            "transport.state_at_s": (per(self.total("transport.state_at")), "s"),
            "transport.to_csv_s": (per(self.total("transport.to_csv")), "s"),
            "model.coupling_xi_calls": (per(self.calls("model.coupling_xi")), "count"),
            "model.coupling_xi_s": (per(self.total("model.coupling_xi")), "s"),
            "adiabatic.threshold_probes": (per(probes), "count"),
            "adiabatic.threshold_distinct_ratio": (
                distinct / probes if probes else 0.0,
                "ratio",
            ),
            "adiabatic.accumulate_phases_s": (
                per(self.total("adiabatic.accumulate_phases")),
                "s",
            ),
            "adiabatic.accumulate_phases_rhs_evals": (
                per(c.get("adiabatic.accumulate_phases.rhs_evals", 0)),
                "count",
            ),
            "adiabatic.nlo_s": (per(self.total("adiabatic.purity_nlo_correction")), "s"),
            "markov.map_pair_evolve_s": (per(self.total("markov.map_pair_evolve")), "s"),
            "markov.map_pair_rhs_evals": (per(c.get("markov.map_pair.rhs_evals", 0)), "count"),
            "markov.markov_series_s": (per(self.total("markov.markov_series")), "s"),
            "markov.points": (per(c.get("markov.points", 0)), "count"),
            "perturbation.o2_quadrature_s": (
                per(self.total("perturbation.purity_o2_quadrature")),
                "s",
            ),
            "perturbation.integrand_evals": (
                per(c.get("perturbation.integrand_evals", 0)),
                "count",
            ),
            "isoso.purity_s": (per(self.total("isoso.isoso_purity")), "s"),
            "isoso.regime_purity_s": (per(self.total("isoso.regime_purity")), "s"),
        }

    def dump(self):
        """JSON-ready record: spans, and per-name calls, total and self time."""
        return {
            "spans": [
                {
                    "id": i,
                    "name": n,
                    "start": s,
                    "end": e,
                    "parent": p,
                    "self_s": (e - s) - child,
                }
                for i, n, s, e, p, child in self.spans
            ],
            "layers": {
                name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in sorted(self.agg.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }
