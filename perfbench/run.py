"""slocc4 benchmark: one workload, one seed, one closed loop with one client.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload haar-mix --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs every round twice on the same inputs, once plain and
once with spans recorded at the module boundaries (see ``spans.py``),
checks that both give identical verdicts and reports the per-layer
metrics.  Earlier stdout lines are a readable report; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 1 when any verdict is silently wrong, 2 when the checkout
holds no ``src/slocc4``.
"""

import argparse
import array
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Rounds per run; the per-round rates give the spread within a run.
ROUNDS = 20
#: Fresh interpreters per run for setup_s and the cli.* start-up figures.
SETUP_RUNS = 7
#: Untimed calls before timing, so that lazy set-up has finished.
WARMUP_CALLS = 3
#: In-process cli.main calls behind cli.main_ms.
CLI_MAIN_CALLS = 20
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

#: End-to-end metrics of the JSON result, with units.
END_TO_END_UNITS = {
    "states_per_s": "1/s",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: Printed in the report only.  On a shared 2-vCPU machine whose speed switches
#: between two states 1.6x apart, the median latency moved 13-25%
#: (quartile spread over 10 runs) with the share of the run spent in the
#: slow state, so it cannot hold a 25% bound; error_rate is 0 on most
#: workloads and travels as attempted/failed.
REPORT_ONLY_UNITS = {"latency_p50_ms": "ms", "error_rate": "ratio"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("us"):
        return "us/state"
    if name.endswith(".calls"):
        return "calls/state"
    if name == "kernels.rows_per_call":
        return "rows/call"
    if name == "pencil.candidates":
        return "points/pencil"
    return "ratio"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values) -> tuple:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    return tuple(statistics.quantiles(values, n=4))


def tail(latencies_ns, percentile: float) -> tuple:
    """Nearest-rank latency at ``percentile``, stepping down the ladder
    while fewer than MIN_BEYOND samples lie beyond it.

    Returns ``(value_ns, percentile, samples_beyond)``.
    """
    ordered = sorted(latencies_ns)
    n = len(ordered)
    ladder = [p for p in TAIL_LADDER if p <= percentile]
    for p in ladder:
        rank = max(math.ceil(p / 100.0 * n), 1)
        if n - rank >= MIN_BEYOND or p == ladder[-1]:
            return ordered[rank - 1], p, n - rank
    raise AssertionError("unreachable")


def first_line_seconds(argv, env) -> float:
    """Wall time from spawning ``argv`` to its first line on stdout (or to
    its exit, for a CLI call that ends in a ``Slocc4Error``)."""
    start = perf_counter()
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True
    ) as proc:
        proc.stdout.readline()
        elapsed = perf_counter() - start
        _, err = proc.communicate()
    if "Traceback" in err:
        raise RuntimeError(f"{argv[:3]} crashed:\n{err}")
    return elapsed


class Tally:
    """Counts of calls, errors and silent misclassifications."""

    def __init__(self):
        self.attempted = 0
        self.errors = {}
        self.mismatches = []

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def record(self, workload, case, outcome):
        self.attempted += 1
        if outcome[0] == "error":
            self.errors[outcome[1]] = self.errors.get(outcome[1], 0) + 1
        problem = workload.check(case, outcome)
        if problem is not None:
            self.mismatch(f"{problem} (amps {case.amps.tolist()})")

    def mismatch(self, text: str):
        self.mismatches.append(text)
        print(f"perfbench: silent misclassification: {text}", file=sys.stderr)


def run_untraced(workload, cases, seconds, tally):
    """ROUNDS rounds of about seconds/ROUNDS busy time each; returns the
    latencies of the rounds.  They are kept as 8-byte integers so that the
    benchmark's own memory grows little with the number of calls."""
    slice_ns = seconds * 1e9 / ROUNDS
    rounds = []
    for _ in range(ROUNDS):
        latencies = array.array("q")
        busy = 0
        while busy < slice_ns:
            case = next(cases)
            elapsed, outcome = workload.timed(case)
            latencies.append(elapsed)
            busy += elapsed
            tally.record(workload, case, outcome)
        rounds.append(latencies)
    return rounds


def run_traced(workload, cases, seconds, tally, tracer, totals):
    """Each round runs its inputs plain, then again with spans recorded;
    returns (plain ns, traced ns, states traced)."""
    slice_ns = seconds * 1e9 / ROUNDS / 2
    plain_ns = traced_ns = states = 0
    for _ in range(ROUNDS):
        batch = []
        busy = 0
        while busy < slice_ns:
            case = next(cases)
            elapsed, outcome = workload.timed(case)
            batch.append((case, outcome))
            busy += elapsed
        plain_ns += busy
        traced = []
        with tracer:
            for case, _ in batch:
                tracer.request = states
                elapsed, outcome = workload.timed(case)
                traced.append(outcome)
                traced_ns += elapsed
                states += 1
        totals.add(tracer.spans)
        tracer.spans.clear()
        for (case, plain), outcome in zip(batch, traced):
            tally.record(workload, case, plain)
            if outcome != plain:
                tally.mismatch(f"traced verdict {outcome} != untraced {plain}")
    return plain_ns, traced_ns, states


def setup_seconds(workload, cases, env) -> list:
    """Fresh interpreter through ``import slocc4`` to the first completed
    call of the workload's entry point, SETUP_RUNS times."""
    return [first_line_seconds(workload.setup_argv(next(cases)), env) for _ in range(SETUP_RUNS)]


def cli_startup_ms(env) -> dict:
    """Interpreter start and ``import slocc4.cli`` cost, from fresh
    interpreters."""
    bare = [sys.executable, "-c", "print('done', flush=True)"]
    with_import = [sys.executable, "-c", "import slocc4.cli; print('done', flush=True)"]
    interpreter = statistics.median(first_line_seconds(bare, env) for _ in range(SETUP_RUNS))
    imported = statistics.median(first_line_seconds(with_import, env) for _ in range(SETUP_RUNS))
    return {"cli.interpreter_ms": interpreter * 1e3, "cli.import_ms": (imported - interpreter) * 1e3}


def environment(args, slocc4, numpy) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "slocc4.BACKEND": getattr(slocc4, "BACKEND", None),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb(workload) -> float:
    """Peak resident set of the process that runs the workload (the CLI
    children for cli-oneshot), in MiB."""
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(usage).ru_maxrss / 1024.0


def end_to_end(workload, rounds, setups, peak_mb, tally, report) -> dict:
    latencies = [ns for r in rounds for ns in r]
    rates = [len(r) / sum(r) * 1e9 for r in rounds]
    p50s = [statistics.median(r) / 1e6 for r in rounds]
    tail_ns, tail_p, beyond = tail(latencies, workload.tail_percentile)
    errors = ", ".join(f"{k} {v}" for k, v in sorted(tally.errors.items())) or "none"
    rows = (
        ("states_per_s", len(latencies) / sum(latencies) * 1e9,
         "%d calls / busy time; round quartiles %.6g .. %.6g" % (len(latencies), *quartiles(rates)[::2])),
        ("latency_p50_ms", statistics.median(latencies) / 1e6,
         "round-median quartiles %.6g .. %.6g" % quartiles(p50s)[::2]),
        ("latency_tail_ms", tail_ns / 1e6,
         "p%g of %d calls, %d beyond" % (tail_p, len(latencies), beyond)),
        ("error_rate", tally.failed / tally.attempted,
         f"{tally.failed} of {tally.attempted} calls raised Slocc4Error ({errors})"),
        ("setup_s", statistics.median(setups),
         "median of %d fresh interpreters, quartiles %.6g .. %.6g" % (len(setups), *quartiles(setups)[::2])),
        ("peak_rss_mb", peak_mb,
         "max resident set of the process running the workload, read when the timed loop ends"),
    )
    units = {**END_TO_END_UNITS, **REPORT_ONLY_UNITS}
    for name, value, note in rows:
        report(f"{name:<18} {value:12.6g} {units[name]:<5} {note}")
    return {name: {"value": v, "unit": units[name]} for name, v, _ in rows if name in END_TO_END_UNITS}


def per_layer(workload, cases, tally, seconds, env, workdir, seed, report) -> dict:
    import numpy
    import spans
    import workloads

    for _ in range(WARMUP_CALLS):
        workload.timed(next(cases))
    tracer = spans.Tracer()
    totals = spans.LayerTotals()
    plain_ns, traced_ns, states = run_traced(workload, cases, seconds, tally, tracer, totals)
    metrics = totals.metrics(states)
    metrics.update(cli_startup_ms(env))
    cli_wl = workloads.make("cli-oneshot", workdir, env, in_process_cli=True)
    cli_cases = cli_wl.cases(numpy.random.default_rng([seed, 2]))
    metrics["cli.main_ms"] = statistics.median(
        cli_wl.timed(next(cli_cases))[0] for _ in range(CLI_MAIN_CALLS)
    ) / 1e6
    metrics["trace.overhead_frac"] = traced_ns / plain_ns - 1.0
    report(f"traced {states} states; spans at {len(spans.BOUNDARIES)} module boundaries")
    for name, value in metrics.items():
        report(f"{name:<36} {value:12.6g} {per_layer_unit(name)}")
    return {name: {"value": v, "unit": per_layer_unit(name)} for name, v in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "slocc4", "__init__.py")):
        print(f"perfbench: no slocc4 package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ, PYTHONPATH=SRC)

    import numpy
    import slocc4
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2

    def report(line):
        print(line, flush=True)

    report("env " + json.dumps(environment(args, slocc4, numpy)))
    if args.workload in workloads.UNGATED:
        report(f"{args.workload} is not in BENCHMARK.json: {workloads.UNGATED[args.workload]}")
    tally = Tally()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = workloads.make(args.workload, workdir, env, in_process_cli=bool(args.trace))
        cases = wl.cases(numpy.random.default_rng(args.seed))
        if args.trace:
            report(f"{wl.name}: closed loop, 1 client, {ROUNDS} rounds, each run plain then traced")
            metrics = per_layer(wl, cases, tally, args.seconds, env, workdir, args.seed, report)
        else:
            setup_cases = wl.cases(numpy.random.default_rng([args.seed, 1]))
            setups = setup_seconds(wl, setup_cases, env)
            if args.workload != "cli-oneshot":  # each CLI call is a fresh process
                for _ in range(WARMUP_CALLS):
                    wl.timed(next(setup_cases))
            report(f"{wl.name}: closed loop, 1 client, {ROUNDS} rounds of {args.seconds / ROUNDS:g} s busy time")
            rounds = run_untraced(wl, cases, args.seconds, tally)
            peak_mb = peak_rss_mb(wl)
            metrics = end_to_end(wl, rounds, setups, peak_mb, tally, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = not tally.mismatches
    if not correct:
        report(f"{len(tally.mismatches)} silent misclassifications")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
