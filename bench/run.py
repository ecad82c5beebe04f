"""heraldsim benchmark: one seeded workload, closed loop, one process, one thread.

Run from the root of a source checkout:

    python3 bench/run.py --workload optics-cold --seed 1 --seconds 15 --trace 0

With ``--trace 0`` jobs run back to back for ``--seconds`` (then to the end
of the workload's job cycle) and the end-to-end metrics, corrected for the
host's speed as ``hostspeed.py`` describes, are reported; with ``--trace 1``
a fixed, seed-determined list of jobs runs under the span tracer and the
per-layer metrics are reported.  Human-readable lines come first; the last
line of standard output is one JSON object.  Exit code 2 means the checkout holds no program
to measure, 1 that a run could not complete.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed
from spans import PER_LAYER, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5

# Typical job cost on a 2 vCPU Xeon; sizes the fixed job list of a traced run.
NOMINAL_JOB_S = {"optics-cold": 1.0, "fit-warm": 3.0, "tomo-mc": 4.5}

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "cpu_per_job_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> tuple[float, float]:
    """Median time to start a fresh interpreter and import heraldsim.cli, corrected and raw.

    Each probe is corrected by the host slowdown that ``setup_probe.py``
    samples just before and after the import, in the same process.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py")],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout
        probe = json.loads(out)
        raw.append(time.perf_counter() - t0 - probe["kernel_s"])
        times.append(raw[-1] / probe["slowdown"])
    return statistics.median(times), statistics.median(raw)


def load_program():
    """Import the program from the checkout's sources."""
    sys.path.insert(0, str(SRC))
    import heraldsim
    import heraldsim.cli

    return heraldsim


def tail(times: list[float]) -> float:
    """Interpolated 75th percentile of job times.

    A 15 s run holds 4-22 jobs; a higher percentile would rest on fewer than
    ten of them.
    """
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[-1]


def run_jobs(workload, n_jobs: int | None, seconds: float, tracer=None, speed=None) -> dict:
    """Closed loop: each job starts when the previous one has finished and been checked.

    Without a fixed job count the loop runs for ``seconds`` and then finishes
    the workload's current cycle, so every run holds the same job mix.
    ``jobs`` holds the wall and CPU clock at the start and end of every job,
    and whether it passed its check.
    """
    jobs, failures = [], []
    i = 0
    start, cpu_start = time.perf_counter(), time.process_time()
    with speed if speed is not None else contextlib.nullcontext():
        while (i < n_jobs) if n_jobs is not None else (
            time.perf_counter() - start < seconds or i % workload.cycle
        ):
            inp = workload.inputs(i)
            if tracer is not None:
                tracer.start_job(i)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    result = workload.run(inp)
            except Exception:
                result = None
                failures.append((i, traceback.format_exc(limit=3)))
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.end_job()
            ok = False
            if result is not None:
                try:
                    workload.check(i, inp, result)
                    ok = True
                except Exception:
                    failures.append((i, traceback.format_exc(limit=3)))
            jobs.append((t0, t1, c0, c1, ok))
            i += 1
    return {
        "attempted": i,
        "jobs": jobs,
        "failures": failures,
        "wall": (start, time.perf_counter()),
        "cpu": (cpu_start, time.process_time()),
    }


def end_to_end(run: dict, speed: HostSpeed, setup_s: tuple[float, float]) -> tuple[dict, dict]:
    """End-to-end metrics corrected for host speed, and the same figures uncorrected.

    Every job's wall and CPU time, less the kernel's, is divided by the host
    slowdown sampled during that job; the loop's time between jobs by the
    run's median job slowdown.  ``setup_s`` is the corrected and the raw
    median of ``measure_setup``.
    """
    attempted, failed = run["attempted"], len(run["failures"])
    (start, end), (cpu_start, cpu_end) = run["wall"], run["cpu"]
    raw = {"wall": [], "cpu": []}
    cor = {"wall": [], "cpu": []}
    ok_raw, ok_cor, slowdowns = [], [], []
    for t0, t1, c0, c1, ok in run["jobs"]:
        wall = t1 - t0 - speed.spent(t0, t1)
        cpu = c1 - c0 - speed.spent(t0, t1, cpu=True)
        slowdown = speed.slowdown(t0, t1)
        slowdowns.append(slowdown)
        raw["wall"].append(wall)
        raw["cpu"].append(cpu)
        cor["wall"].append(wall / slowdown)
        cor["cpu"].append(cpu / slowdown)
        if ok:
            ok_raw.append(wall)
            ok_cor.append(wall / slowdown)
    run_slowdown = statistics.median(slowdowns)
    gap_wall = end - start - speed.spent(start, end) - sum(raw["wall"])
    gap_cpu = cpu_end - cpu_start - speed.spent(start, end, cpu=True) - sum(raw["cpu"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = []
    for times, per_job, slowdown, setup in (
        (ok_cor, cor, run_slowdown, setup_s[0]), (ok_raw, raw, 1.0, setup_s[1]),
    ):
        out.append({
            "setup_s": setup,
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail(times),
            "jobs_per_s": len(times) / (sum(per_job["wall"]) + gap_wall / slowdown),
            "cpu_per_job_s": (sum(per_job["cpu"]) + gap_cpu / slowdown) / attempted,
            "peak_rss_mb": rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
        })
    out[1]["host_slowdown"] = run_slowdown
    return out[0], out[1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heraldsim" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"no heraldsim sources under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = None if args.trace else measure_setup()
        heraldsim = load_program()
        tracer = speed = n_jobs = None
        workload = WORKLOADS[args.workload](heraldsim, ROOT, work, args.seed)
        if args.trace:
            tracer = Tracer()
            tracer.install(heraldsim)
            jobs = max(2, round(args.seconds / NOMINAL_JOB_S[args.workload]))
            n_jobs = math.ceil(jobs / workload.cycle) * workload.cycle
        else:
            speed = HostSpeed()
            speed.burst()
        run = run_jobs(workload, n_jobs, args.seconds, tracer, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for i, tb in run["failures"]:
        print(f"job {i} failed:\n{tb}", file=sys.stderr)
    attempted, failed = run["attempted"], len(run["failures"])
    times = [job for job in run["jobs"] if job[4]]
    print(f"workload {args.workload} seed {args.seed}: {attempted} jobs, {failed} failed")
    if not times:
        print("no job succeeded", file=sys.stderr)
        return 1
    if tracer is not None:
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        values = tracer.summary(attempted, sum(t1 - t0 for t0, t1, *_ in run["jobs"]))
        units = PER_LAYER
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        values, raw = end_to_end(run, speed, setup_s)
        units = END_TO_END
        print(f"job_tail_s is the p75 of {len(times)} jobs")
        print(f"fail_ratio {failed / attempted:.6g} ratio")
        print("uncorrected: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
