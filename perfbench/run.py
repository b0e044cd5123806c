"""schedsec benchmark: one workload per process, closed loop, one caller.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and workloads.py for why each is there):

    paper_pipeline    cli.main(["reproduce-paper", "--out", DIR]), one
                      reproduction of the bundled study per job
    attack_synthesis  bnb_optimal_attack on one random exclusive schedule
                      per job, equal shares of (N, T) = (6, 12), (8, 16),
                      (10, 20)
    design_sweep      schedule search, near-marginal steady states and
                      shift-invariant construction plus bounds, fixed mix

``--trace 0`` runs the timed loop for about ``--seconds`` (it stops at the
round boundary nearest to that time, so every run holds whole rounds of
the workload's mix) and reports the end-to-end metrics.  Building a round
after the first is off the clock; the first is built during set-up.  Every
time reported is scaled to a fixed host speed with a reference kernel run
between the jobs (see hostspeed.py); the measured times are printed too.
``--trace 1`` runs the workload's fixed counted set twice, untraced and
then with spans around every public function of each layer, and reports
per-layer calls, self and total time, work counters and the tracing
overhead.  Outputs are checked
after the timed loop; the last line of standard output is one JSON object.
``--smoke`` shrinks every workload for the benchmark's own tests.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 12
SETUP_SAMPLES = 8  # reference kernel runs next to each set-up step
MIN_BEYOND = 10   # jobs slower than the reported tail percentile
# the import, then the reference kernel in the same fresh interpreter
IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                  "t = time.perf_counter(); import schedsec, schedsec.cli; "
                  "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
                  "import hostspeed; log = hostspeed.SpeedLog(); "
                  "log.sample(minimum=int(sys.argv[3])); print(t, log.mean())")


@dataclass
class JobRecord:
    job: object
    result: object
    error: str | None
    start: float
    end: float
    problem: str | None = None
    adjusted: float = 0.0   # seconds scaled to the reference host speed

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def passed(self) -> bool:
        return self.error is None and self.problem is None


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    """Import schedsec from this checkout, or fail."""
    if not (SRC / "schedsec" / "__init__.py").is_file():
        fail(f"no schedsec package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import schedsec
    import schedsec.cli  # noqa: F401
    if Path(schedsec.__file__).resolve().parent != SRC / "schedsec":
        fail(f"imported schedsec from {schedsec.__file__}, not from {SRC}")


def child_import_seconds() -> tuple[float, float]:
    """Import time of the package in a fresh interpreter, and the mean time
    of the reference kernel run right after it there."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC),
                           str(Path(__file__).resolve().parent),
                           str(SETUP_SAMPLES)],
                          capture_output=True, text=True, timeout=120,
                          check=True, env=os.environ.copy())
    seconds, reference = proc.stdout.split()
    return float(seconds), float(reference)


def run_jobs(workload, rounds, seconds: float, tracer=None, speed=None):
    """Closed loop with one caller: run whole rounds and stop at the round
    boundary nearest to `seconds`, or when `rounds` runs out.  The clock
    runs only while a round's jobs run, not while `rounds` builds the next
    round.  With a tracer, spans carry the job id.

    With a SpeedLog, the reference kernel runs after every job, each job's
    adjusted time is set from it, and the stopping clock is the adjusted job
    time: so a slow stretch of the host does not change how many rounds a
    run holds, only a faster or slower package does.  A run still stops
    once twice `seconds` have gone by on the wall clock."""
    records = []
    wall = 0.0
    clock = 0.0
    for round_index, rnd in enumerate(rounds):
        t_round = time.perf_counter()
        first = len(records)
        for job in rnd:
            if tracer is not None:
                tracer.job_id = job.index
            t0 = time.perf_counter()
            try:
                result, error = workload.run(job), None
            except Exception:  # a failed job is counted, the loop goes on
                result, error = None, traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            records.append(JobRecord(job, result, error, t0, t1))
            if speed is not None:
                speed.sample(t1 - t0)
        wall += time.perf_counter() - t_round
        if speed is None:
            clock = wall
        else:
            for r in records[first:]:
                r.adjusted = speed.adjust(r.seconds, r.start, r.end)
                clock += r.adjusted
        if clock + 0.5 * clock / (round_index + 1) >= seconds \
                or wall >= 2 * seconds:
            break
    return records, wall


def check(workload, records) -> list[str]:
    """Per-job checks (feeding failed) plus whole-run checks."""
    for r in records:
        if r.ok:
            try:
                r.problem = workload.check_job(r.job, r.result)
            except Exception:
                r.problem = "check raised: " + traceback.format_exc(limit=3)
    try:
        return workload.check_run(records)
    except Exception:
        return ["run check raised: " + traceback.format_exc(limit=3)]


def tail(sorted_values):
    """(percentile, value, jobs beyond) for the highest percentile of job
    time that still has MIN_BEYOND jobs beyond it: the (MIN_BEYOND + 1)-th
    largest time.  With too few jobs for that, the median."""
    n = len(sorted_values)
    if n <= MIN_BEYOND:
        return 50.0, statistics.median(sorted_values), n // 2
    return 100.0 * (n - MIN_BEYOND) / n, sorted_values[n - MIN_BEYOND - 1], MIN_BEYOND


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def end_to_end(records, wall, setup, rss_mb, speed):
    from hostspeed import REFERENCE_S
    times = sorted(r.adjusted for r in records)
    raw = sorted(r.seconds for r in records)
    n = len(records)
    passed = sum(r.passed for r in records)
    pct, tail_value, beyond = tail(times)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "jobs_per_s": (passed / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_value, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "setup_s": (f"median of {SETUP_REPEATS} fresh package imports "
                    f"{setup['import_s']:.4f} s + median of {SETUP_REPEATS} "
                    f"builds of the workload and its first round "
                    f"{setup['build_s']:.4f} s; measured "
                    f"{setup['raw_setup_s']:.4f} s"),
        "jobs_per_s": (f"{passed} passed of {n} attempted in {sum(times):.3f} "
                       f"s of job time; measured {passed / sum(raw):.6g} "
                       f"in {sum(raw):.3f} s, loop wall {wall:.3f} s"),
        "job_p50_s": (f"median of {n} jobs; measured "
                      f"{statistics.median(raw):.6g} s"),
        "job_tail_s": (f"p{pct:.4g} of {n} jobs, {beyond} beyond it; "
                       f"measured {tail(raw)[1]:.6g} s"),
        "peak_rss_mb": "ru_maxrss after the timed loop, before the checks",
    }
    print(f"times scaled to a host that runs the reference kernel in "
          f"{REFERENCE_S * 1e3:.3g} ms; here its mean was "
          f"{speed.mean() * 1e3:.4g} ms over {len(speed.seconds)} runs")
    for name, (value, unit) in metrics.items():
        print(f"{name:<12} = {value:.6g} {unit:<4} ({notes[name]})")
    kinds = sorted({r.job.kind for r in records})
    if len(kinds) > 1:
        print("jobs by kind: " + "; ".join(
            f"{k} {len(ts)} jobs, median {statistics.median(ts):.4g} s, "
            f"max {max(ts):.4g} s"
            for k in kinds
            for ts in [[r.adjusted for r in records if r.job.kind == k]]))
    failed = n - passed
    print(f"{'failed_frac':<12} = {failed / n:.6g} ratio "
          f"({failed} of {n} jobs raised or failed their check; reported as "
          f"the result's failed count, not a metric, since it is 0)")
    print("wait time: not measured; one thread runs one job at a time and "
          "no layer waits on another")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(tracer, untraced_wall, traced_wall, n_jobs):
    from tracer import LAYERS
    c = tracer.counters
    layers = tracer.layer_times()
    metrics = {}
    for layer in LAYERS:
        rec = layers[layer]
        metrics[f"{layer}.calls"] = (rec["calls"], "count")
        metrics[f"{layer}.self_s"] = (rec["self_s"], "s")
        metrics[f"{layer}.total_s"] = (rec["total_s"], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    enumerated = c["scheduling.assignments_enumerated"]
    priced = tracer.calls("scheduling.average_cost")
    ratios = {  # name: (numerator, denominator)
        "attack.blocking_frac": (c["attack.blocking"], c["attack.searches"]),
        "simplex.infeasible_frac": (c["simplex.infeasible"], c["simplex.solves"]),
        "protocol_sequences.exhaustive_frac": (
            c["protocol_sequences.exhaustive"], c["protocol_sequences.checks"]),
        # only the pricing done by the search itself, against its enumeration
        "scheduling.priced_per_enumerated": (
            tracer.calls("scheduling.average_cost",
                         "scheduling.optimal_schedule_search"), enumerated),
    }
    counts = {
        "attack.nodes": c["attack.nodes"],
        "simplex.pivots": c["simplex.pivots"],
        "protocol_sequences.correlation_evals":
            tracer.calls("protocol_sequences.hamming_cross_correlation"),
        "scheduling.assignments_enumerated": enumerated,
        "scheduling.schedules_priced": priced,
        "lti_estimation.steady_state_iterations":
            c["lti_estimation.steady_state_iterations"],
        "lti_estimation.lyapunov_steps":
            tracer.calls("lti_estimation.lyapunov_step"),
        "simulation.series_slots": c["simulation.series_slots"],
        "simulation.mc_trials": c["simulation.mc_trials"],
        "simulation.overflow_events": c["simulation.overflow_events"],
        "trace.spans": tracer.n_spans,
    }
    metrics.update({k: (v, "count") for k, v in counts.items()})
    metrics.update({k: (ratio(*nd), "ratio") for k, nd in ratios.items()})
    overhead = ratio(untraced_wall, traced_wall)
    metrics["trace.jobs_per_s_ratio"] = (overhead, "ratio")
    print(f"tracing overhead on the counted set of {n_jobs} jobs: untraced "
          f"{n_jobs / untraced_wall:.4g} jobs/s, traced "
          f"{n_jobs / traced_wall:.4g} jobs/s, traced/untraced {overhead:.4f}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name in ratios and not ratios[name][1]:
            note = "  (undefined: no calls on this workload; reported as 0)"
        print(f"{name:<40} = {value:.6g} {unit}{note}")
    print("wait time: not measured; one thread, so no layer waits on another")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper_pipeline", "attack_synthesis", "design_sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from hostspeed import SpeedLog, scale
    from tracer import Tracer

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    cls = workloads.WORKLOADS[args.workload]
    print(f"why: {cls.why}")
    prov = provenance(args)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    # package imports in fresh interpreters taking turns with the builds,
    # each scaled by the reference kernel run next to it
    speed = SpeedLog()
    workdir = OUT / "work"
    builds, imports = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample(minimum=SETUP_SAMPLES)
        t0 = time.perf_counter()
        workload = cls(args.seed, args.smoke, workdir)
        t1 = time.perf_counter()
        speed.sample(minimum=SETUP_SAMPLES)
        builds.append((t1 - t0, t0, t1))
        imports.append(child_import_seconds())
    setup = {
        "import_s": statistics.median(scale(*x) for x in imports),
        "build_s": statistics.median(speed.adjust(*x) for x in builds),
        "raw_setup_s": (statistics.median(x[0] for x in imports)
                        + statistics.median(x[0] for x in builds)),
    }
    setup["setup_s"] = setup["import_s"] + setup["build_s"]

    try:
        if args.trace:
            rounds = list(itertools.islice(workload.rounds(),
                                           workload.counted_rounds))
            untraced, untraced_wall = run_jobs(workload, rounds, math.inf)
            tracer = Tracer()
            with tracer:
                records, traced_wall = run_jobs(workload, rounds, math.inf,
                                                tracer)
            problems = check(workload, untraced + records)
            metrics = per_layer(tracer, untraced_wall, traced_wall,
                                len(records))
            records = untraced + records
            span_file = OUT / f"spans_{args.workload}.jsonl"
            tracer.write(span_file)
            print(f"spans: {tracer.n_spans} written to "
                  f"{span_file.relative_to(ROOT)}")
        else:
            records, wall = run_jobs(workload, workload.rounds(), args.seconds,
                                     speed=speed)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            problems = check(workload, records)
            print(f"loop: closed, one caller, no threads; {len(records)} jobs "
                  f"in {wall:.3f} s, whole rounds only")
            metrics = end_to_end(records, wall, setup, rss_mb, speed)
    finally:
        workload.close()

    failed_jobs = [r for r in records if not r.passed]
    for r in failed_jobs[:5]:
        print(f"FAILED job {r.job.index} ({r.job.kind}): {r.error or r.problem}")
    for p in problems:
        print(f"FAILED check: {p}")
    correct = not failed_jobs and not problems
    print("checks: " + ("all passed" if correct else "FAILED"))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed_jobs), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
