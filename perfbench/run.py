"""Benchmark of oscpurity: one workload per run, timed end to end or traced
layer by layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones (setup_s, wall_s, ops_per_s, peak_rss_mb); with --trace 1
they are the per-layer ones, from rounds run with tracing on after one round
run with it off. Spans go to .perfbench_out/trace-<workload>-<seed>.json.
See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported; the set-up
# probes inherit it.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: Fresh interpreter start-ups per run whose median is setup_s.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(configs, listing):
    """Median time from process start to "ready" over fresh interpreters
    that import oscpurity and parse the workload's configs."""
    with open(listing, "w") as f:
        for kind, path in configs:
            f.write("%s\t%s\n" % (kind, path))
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, listing]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed with exit code %s" % rc)
        times.append(elapsed)
    return statistics.median(times)


class Runner:
    """Runs rounds of a workload's operations and keeps the bookkeeping."""

    def __init__(self, ops, digest, errors):
        self.ops = ops
        self.digest = digest
        self.errors = errors
        self.round_times = []  # per round: one duration per operation
        self.attempted = 0
        self.failed = 0
        self.completed_time = 0.0
        self.completed = 0
        self.bytes_written = []  # per round
        self._digests = {}

    def run_round(self, tracer=None):
        times = []
        bytes_written = 0
        first = not self._digests
        for op in self.ops:
            error = None
            start = time.perf_counter()
            try:
                raw = tracer.span("op", op.run) if tracer else op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if not op.expect_fail:
                    self.errors.append("%s failed: %s" % (op.label, _describe(error)))
                continue
            self.completed += 1
            self.completed_time += elapsed
            try:
                output = op.collect(raw)
                if first:
                    for message in op.check(output):
                        self.errors.append("%s: %s" % (op.label, message))
                digest = self.digest(output)
            except Exception as exc:
                self.errors.append("%s: check raised %s" % (op.label, _describe(exc)))
                continue
            if op.label in self._digests and self._digests[op.label] != digest:
                self.errors.append("%s: output differs from the first round" % op.label)
            self._digests.setdefault(op.label, digest)
            if op.cli_dir:
                bytes_written += sum(
                    os.path.getsize(os.path.join(op.cli_dir, name))
                    for name in os.listdir(op.cli_dir)
                )
        self.round_times.append(times)
        self.bytes_written.append(bytes_written)
        return sum(times)

    def wall_s(self, rounds):
        """Sum over the round's operations of each one's median time."""
        return sum(statistics.median(col) for col in zip(*rounds))


def _describe(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def rounds_for(seconds, first_round_s):
    """Whole rounds that fit the requested time, at least two so that every
    operation runs twice."""
    return max(2, int(seconds / first_round_s))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oscpurity", "__init__.py")):
        print("perfbench: no oscpurity package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import numpy as np

    import workloads
    from oscpurity import adiabatic, cli, markov, transport
    from oscpurity.model import ScenarioParams

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    pkg = SimpleNamespace(
        cli=cli, transport=transport, adiabatic=adiabatic, markov=markov,
        ScenarioParams=ScenarioParams,
    )
    run_dir = os.path.join(OUT, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        ctx = workloads.Context(run_dir, pkg)
        ops = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), ctx)
        if not args.trace:
            setup_s = measure_setup(ctx.configs, os.path.join(run_dir, "configs.txt"))
        errors = []
        runner = Runner(ops, workloads.digest, errors)

        # Warm-up: the first operation once, untimed and uncounted.
        try:
            ops[0].run()
        except Exception:
            pass

        first = runner.run_round()
        n_rounds = rounds_for(args.seconds, first)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                for _ in range(n_rounds - 1):
                    runner.run_round(tracer)
            finally:
                tracer.uninstall()
            traced = runner.round_times[1:]
            plain = runner.wall_s(runner.round_times[:1])
            layers = tracer.layer_metrics(len(traced))
            layers["cli.bytes_written"] = (runner.bytes_written[-1], "bytes")
            layers["trace.overhead_pct"] = (
                100.0 * (runner.wall_s(traced) - plain) / plain,
                "%",
            )
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
            with open(os.path.join(OUT, "trace-%s-%d.json" % (args.workload, args.seed)), "w") as f:
                json.dump(dict(tracer.dump(), rounds=len(traced)), f)
        else:
            for _ in range(n_rounds - 1):
                runner.run_round()
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": runner.wall_s(runner.round_times), "unit": "s"},
                "ops_per_s": {
                    "value": runner.completed / runner.completed_time,
                    "unit": "1/s",
                },
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        for message in errors:
            print("perfbench: %s" % message, file=sys.stderr)
        result = {
            "correct": not errors,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
        record = dict(
            result,
            errors=errors,
            op_seconds={op.label: col for op, col in zip(ops, zip(*runner.round_times))},
        )
        name = "result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)
        with open(os.path.join(OUT, name), "w") as f:
            json.dump(record, f, indent=1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
