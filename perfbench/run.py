"""somblocks benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
A run's job list is fixed by S (see workloads.Workload): about S seconds of
jobs on the reference machine.  With --trace 0 the run times them and prints
every end-to-end metric, times scaled to a reference machine speed (see
speed.py); with --trace 1 it runs the same jobs under the tracer, then again
untraced, and prints the per-layer metrics and the tracing overhead.
Metric names, their order and their units are read from BENCHMARK.json.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Human-readable lines above it repeat each metric with its unit and the
environment.  Results and spans are also written under .perfbench_out/.
"""

import time

T0 = time.perf_counter()   # set-up is timed from here

import os

# One thread per process for numpy's pools, before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

import numpy as np

import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

WORKLOAD_NAMES = ("iris-pipeline", "sweep-default", "sweep-variants", "oracle-audit")
SETUP_SAMPLES = 3          # fresh processes whose set-up time is measured
SETUP_SAMPLE_EVERY_S = 0.05
# Set-up time is scaled by the reference loop's speed to this power (see
# speed.py).  The import, most of the set-up on iris-pipeline and
# oracle-audit, slows less than the loop when the machine slows: over 25
# iris-pipeline runs the scaled set-up time spread (IQR over median) 0.20
# with the power 1 and 0.07 with 0.8; on sweep-default, where training
# dominates the set-up, 0.04 and 0.07.
SETUP_ELASTICITY = 0.8
# Safety cap: no pass is started after CAP_FACTOR * --seconds of wall time,
# so a run on a far slower machine or program still ends in time.  Hitting
# it changes the job list, which the report says.
CAP_FACTOR = 2.0
TAIL_BEYOND = 10           # jobs beyond the reported tail percentile
MAX_REPORTED_FAILURES = 5
MAX_FAILURES = 100         # a run this broken stops early instead of spinning


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import somblocks from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "somblocks", "__init__.py")):
        sys.exit(f"perfbench: no somblocks sources under {SRC}")
    sys.path.insert(0, SRC)
    import somblocks
    if os.path.dirname(os.path.dirname(os.path.abspath(somblocks.__file__))) != SRC:
        sys.exit(f"perfbench: imported somblocks from {somblocks.__file__}, not {SRC}")
    return somblocks


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload_seed": seed,
        "loadavg_start": list(os.getloadavg()),
        "numpy_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def setup_probe(args) -> tuple[float, float]:
    """Set-up seconds of a fresh process, raw and scaled (see setup_only)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    setup_s, scale = json.loads(done.stdout.strip().splitlines()[-1])
    return setup_s, setup_s * scale ** SETUP_ELASTICITY


def setup_only(args) -> int:
    """Print this process's set-up seconds, from its start until the inputs are
    ready, and the speed scale of the reference loop sampled meanwhile.  The loop
    runs every SETUP_SAMPLE_EVERY_S from the library import on; its own time
    is left out of the set-up time."""
    loop = speed.ReferenceLoop()
    samples: list[tuple[float, float]] = []
    with loop.sampling(samples, every=SETUP_SAMPLE_EVERY_S):
        import_library()
        import workloads
        workloads.WORKLOADS[args.workload](ROOT, args.seed, SCRATCH).setup()
    setup_s = time.perf_counter() - T0 - sum(s for _, s in samples)
    for _ in range(speed.BEFORE_JOB):
        loop.sample(samples)
    print(json.dumps([setup_s, speed.scale(samples)]))
    return 0


class Runner:
    """Runs jobs one at a time and records latency and outcome of each.

    The reference loop is sampled before, during and after every job, so
    every latency also has a machine-speed scaled value (see speed.py); the
    time of the samples taken during a job is not part of its latency.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.capped = False
        self.loop = speed.ReferenceLoop()
        self.loop_samples: list[tuple[float, float]] = []
        self.spans: list[tuple[float, float]] = []
        self.latencies: list[float] = []
        self.failed = 0
        self.ok: list[bool] = []
        self.jobs = []

    def run_job(self, job) -> None:
        index = len(self.latencies)
        for _ in range(speed.BEFORE_JOB):
            self.loop.sample(self.loop_samples)
        in_job: list[tuple[float, float]] = []
        t0 = time.perf_counter()
        try:
            with self.loop.sampling(in_job):
                if self.tracer is None:
                    job.run()
                else:
                    with self.tracer.job_span(index):
                        job.run()
            ok = True
        except Exception:      # a job that raises is counted failed, and the run goes on
            ok = False
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"perfbench: job {index} ({job.label}) failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
        t1 = time.perf_counter()
        self.loop_samples += in_job
        self.spans.append((t0, t1))
        self.latencies.append(t1 - t0 - sum(s for _, s in in_job))
        self.jobs.append(job)
        self.ok.append(ok)

    def fail_labels(self, reasons: dict[str, str]) -> None:
        """Count as failed every passed job whose label has a reason."""
        for i, job in enumerate(self.jobs):
            if self.ok[i] and job.label in reasons:
                self.ok[i] = False
                self.failed += 1

    def run(self, passes, cap_s: float = math.inf) -> float:
        """Every pass in turn, none started after cap_s; returns wall time."""
        start = time.perf_counter()
        for i, jobs in enumerate(passes):
            if self.failed >= MAX_FAILURES:
                break
            if i and time.perf_counter() - start >= cap_s:
                self.capped = True
                print(f"perfbench: time cap of {cap_s:g} s reached after {i} of "
                      f"{len(passes)} passes", file=sys.stderr)
                break
            for job in jobs:
                self.run_job(job)
        return self._finish(start)

    def _finish(self, start: float) -> float:
        wall = time.perf_counter() - start
        for _ in range(speed.BEFORE_JOB):
            self.loop.sample(self.loop_samples)
        self.scaled = [latency * s for latency, s in
                       zip(self.latencies, speed.job_scales(self.loop_samples, self.spans))]
        return wall

    def samples(self) -> dict:
        """Per-job record for the results file."""
        t0 = self.spans[0][0]
        return {"label": [job.label for job in self.jobs],
                "span_s": [(a - t0, b - t0) for a, b in self.spans],
                "latency_s": self.latencies, "scaled_s": self.scaled,
                "loop_s": [(t - t0, s) for t, s in self.loop_samples]}


def fail_late(workload, *runners) -> None:
    """Apply the workload's checks made after the timed jobs to each runner's
    jobs; all runners ran the same jobs."""
    reasons = workload.failed_labels({job.label for job in runners[0].jobs})
    for reason in reasons.values():
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    for runner in runners:
        runner.fail_labels(reasons)


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND jobs beyond it.

    With too few jobs for that, the slowest job; returns (value, percentile).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    i = n - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / n


def emit(workload, args, env, metrics, units, extra, correct, attempted, failed, samples):
    """Print the report lines and the result line; keep both, with samples."""
    os.makedirs(OUT, exist_ok=True)
    env["loadavg_end"] = list(os.getloadavg())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w") as f:
        json.dump({"environment": env, "extra": extra, **result, "samples": samples}, f)
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for k, unit in units.items():
        note = extra.get("notes", {}).get(k, "")
        print(f"  {k:<36} {metrics[k]:>14.6g} {unit}{'  ' + note if note else ''}")
    for k, v in extra.items():
        if k != "notes":
            print(f"  {k}: {json.dumps(v)}")
    print("  environment: " + json.dumps(env))
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    sb = import_library()
    import workloads

    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, scratch)
        if args.trace:
            return traced_run(args, sb, workload)
        return timed_run(args, workload, workloads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


def timed_run(args, workload, workloads) -> int:
    """setup_s is the median set-up time of SETUP_SAMPLES fresh processes:
    most of a set-up can be the import, which only a fresh process pays."""
    workload.setup()
    env = environment(args.seed)
    setups = [setup_probe(args) for _ in range(SETUP_SAMPLES)]

    runner = Runner()
    passes = workload.passes(args.seconds)
    wall = runner.run(passes, CAP_FACTOR * args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fail_late(workload, runner)
    quality_ok = True
    try:
        quality = workloads.quality_metrics(ROOT)
    except workloads.CheckFailed as e:
        print(f"perfbench: check failed: quality audit: {e}", file=sys.stderr)
        quality_ok = False
        quality = dict.fromkeys(("kappa_mean", "accuracy_mean", "k_band_share",
                                 "greedy_gap_mean", "greedy_exact_share"), 0.0)

    n = len(runner.latencies)
    tail_s, tail_pct = tail(runner.scaled)
    raw_tail_s, _ = tail(runner.latencies)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "jobs_per_s": n / sum(runner.scaled),
        "job_p50_ms": statistics.median(runner.scaled) * 1e3,
        "job_tail_ms": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (n - runner.failed) / n,
        **quality,
    }
    scaled_note = "scaled to reference speed; raw "
    extra = {
        "notes": {
            "setup_s": f"median of {len(setups)} fresh processes, {scaled_note}"
                       f"{statistics.median(raw for raw, _ in setups):.6g} s",
            "jobs_per_s": f"over the summed job time, {scaled_note}"
                          f"{n / sum(runner.latencies):.6g} 1/s, {n / wall:.6g} 1/s "
                          "over the whole wall time",
            "job_p50_ms": f"{scaled_note}{statistics.median(runner.latencies) * 1e3:.6g} ms",
            "job_tail_ms": f"p{tail_pct:.1f} of {n} jobs, {scaled_note}{raw_tail_s * 1e3:.6g} ms",
            "pass_ratio": f"fail_ratio {runner.failed / n:.6g} ({runner.failed}/{n})",
        },
        "fail_ratio": runner.failed / n,
        "tail_percentile": tail_pct,
        "jobs": n,
        "passes": len(passes),
        "capped": runner.capped,
        "wall_s": wall,
        "setup_samples_s": setups,
        "reference_loop_ms": _quartiles_ms([s for _, s in runner.loop_samples]),
        "job_mix": _mix(runner),
    }
    emit(args.workload, args, env, metrics, declared_metrics("end_to_end"), extra,
         runner.failed == 0 and quality_ok, n, runner.failed, runner.samples())
    return 0


def traced_run(args, sb, workload) -> int:
    tracer = tracing.Tracer()
    with tracer.installed(sb):
        workload.setup()
        env = environment(args.seed)
        traced = Runner(tracer)
        passes = workload.passes(args.seconds)
        traced_wall = traced.run(passes, CAP_FACTOR * args.seconds)
    # The same jobs again with the original functions back in place.
    untraced = Runner()
    untraced_wall = untraced.run([traced.jobs])

    n = len(traced.latencies)
    metrics = tracer.layer_metrics(n)
    metrics["trace.overhead_ratio"] = sum(traced.scaled) / sum(untraced.scaled)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    tracer.write(spans_path)
    extra = {
        "jobs": n,
        "passes": len(passes),
        "capped": traced.capped,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "spans": len(tracer.start),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "job_mix": _mix(traced),
    }
    fail_late(workload, traced, untraced)
    failed = traced.failed + untraced.failed
    emit(args.workload, args, env, metrics, declared_metrics("per_layer"), extra, failed == 0,
         2 * n, failed, {"traced": traced.samples(), "untraced": untraced.samples()})
    return 0


def _quartiles_ms(samples) -> list[float]:
    return [round(q * 1e3, 4) for q in statistics.quantiles(samples, n=4)]


def _mix(runner) -> dict:
    """Job count and median scaled latency in ms per job label."""
    groups: dict[str, list[float]] = {}
    for job, latency in zip(runner.jobs, runner.scaled):
        groups.setdefault(job.label, []).append(latency)
    return {label: [len(v), round(statistics.median(v) * 1e3, 3)]
            for label, v in sorted(groups.items())}


if __name__ == "__main__":
    sys.exit(main())
