"""Self-test of the benchmark: every workload at its smallest size.

    python3 perfbench/selftest.py

Each workload runs with --seconds 1, which is its first pass only, once
untraced and once traced.  The test checks that every end-to-end and
per-layer metric declared in BENCHMARK.json is printed with a finite value
and its unit, and that no job failed.  It also checks that the benchmark
exits non-zero, printing no result, in a directory holding only
BENCHMARK.json and the benchmark.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec, workload, trace) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    for metric in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(metric["name"], {})
        value = got.get("value")
        if (got.get("unit") != metric["unit"] or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"{where}: {metric['name']} printed as {got}, "
                            f"unit should be {metric['unit']}")
    return problems


def check_refuses_without_sources() -> list[str]:
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "oracle-audit", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_tmp"))
        except OSError:
            pass
    if done.returncode == 0 or done.stdout.strip():
        return ["benchmark without sources: expected a non-zero exit and no output"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = check_refuses_without_sources()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            print(f"{workload['name']} trace={trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
