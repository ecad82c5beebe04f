"""Self-test of the benchmark's tracing and its refusal to run without a program.

Run from the root of a source checkout:

    python3 bench/selftest.py

It traces one short cycle of jobs of each workload twice with one seed and
checks that every named wrapper fires where the workload uses its layer,
stays at zero where the workload never enters it, and that the per-layer
counts of the two runs are identical.  An import moved in the program would otherwise
silently blind a layer.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

OPTICS, FIT, TOMO = "optics-cold", "fit-warm", "tomo-mc"

# metric: (workloads on which it must be > 0, workloads on which it must be 0)
EXPECT = {
    "fock.apply_mode_map.calls": ((OPTICS, FIT), (TOMO,)),
    "fock.apply_mode_map.kets_in": ((OPTICS, FIT), (TOMO,)),
    "fock.apply_mode_map.kets_out": ((OPTICS, FIT), (TOMO,)),
    "elements.build_paper_circuit.calls": ((OPTICS, FIT), (TOMO,)),
    "elements.CircuitLayout.run.self_s": ((OPTICS, FIT), (TOMO,)),
    "elements.CircuitLayout.total_matrix.calls": ((OPTICS, FIT), (TOMO,)),
    "experiments.heralded_ensemble.calls": ((OPTICS, FIT), (TOMO,)),
    "experiments.block_repeat_share": ((OPTICS, FIT), (TOMO,)),
    "source.emission_components.self_s": ((OPTICS, FIT), (TOMO,)),
    "source.components": ((OPTICS, FIT), (TOMO,)),
    "detection.herald.calls": ((OPTICS, FIT), (TOMO,)),
    "detection.herald.components": ((OPTICS, FIT), (TOMO,)),
    "detection.classical.self_s": ((OPTICS, FIT), (TOMO,)),
    "detection.number_table.self_s": ((OPTICS, FIT), (TOMO,)),
    "detection.postselect_two_qubit.self_s": ((OPTICS, FIT), (TOMO,)),
    "detection.arm_click_probability.self_s": ((OPTICS,), (TOMO,)),
    "detection.convention_correction.misses": ((OPTICS, FIT), (TOMO,)),
    "tomography.ingest_counts.self_s": ((TOMO,), (OPTICS, FIT)),
    "tomography.mle_reconstruct.calls": ((TOMO,), (OPTICS, FIT)),
    "tomography.mle_reconstruct.iterations": ((TOMO,), (OPTICS, FIT)),
    "tomography.optimize_local_fidelity.calls": ((TOMO,), (OPTICS, FIT)),
    "tomography.optimize_local_fidelity.nfev": ((TOMO,), (OPTICS, FIT)),
    "tomography.monte_carlo_report.self_s": ((TOMO,), (OPTICS, FIT)),
    "metrics.self_s": ((OPTICS, FIT, TOMO), ()),
    "cli.main.self_s": ((FIT, TOMO), (OPTICS,)),
}

# Per-layer metrics that are counts and so must repeat exactly under one seed.
COUNT_SUFFIXES = (".calls", ".kets_in", ".kets_out", ".iterations", ".nfev", ".components",
                  ".misses", ".failures", "_share")

MIN_COVERAGE = 0.9
# A block evolution repeats in fit-warm's bisection; in optics-cold only the
# correction's three-pair block does.
MIN_FIT_REPEAT_SHARE = 0.9
MAX_OPTICS_REPEAT_SHARE = 0.25
# Each fit-warm job runs two CLI commands, each starting with empty module
# caches as a fresh process would, so each builds its own layout.
MIN_FIT_LAYOUTS = 2


def run(workload: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main() -> int:
    problems = []
    metrics = {}
    for workload in (OPTICS, FIT, TOMO):
        runs = []
        for _ in range(2):
            code, result = run(workload)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{workload}: traced run failed (exit {code}, {result})")
                break
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        if len(runs) < 2:
            continue
        metrics[workload] = runs[0]
        for name, value in runs[0].items():
            if name.endswith(COUNT_SUFFIXES) and runs[1][name] != value:
                problems.append(f"{workload}: {name} differs between runs: {value} vs {runs[1][name]}")
        if runs[0]["trace.coverage"] < MIN_COVERAGE:
            problems.append(f"{workload}: spans cover {runs[0]['trace.coverage']:.3f} of job time")

    for name, (fires, flat) in EXPECT.items():
        for workload in fires:
            if workload in metrics and not metrics[workload][name] > 0:
                problems.append(f"{workload}: {name} never fired")
        for workload in flat:
            if workload in metrics and metrics[workload][name] != 0:
                problems.append(f"{workload}: {name} = {metrics[workload][name]}, expected 0")
    if FIT in metrics and metrics[FIT]["experiments.block_repeat_share"] < MIN_FIT_REPEAT_SHARE:
        problems.append(f"{FIT}: block repeat share {metrics[FIT]['experiments.block_repeat_share']}")
    layouts = metrics.get(FIT, {}).get("elements.build_paper_circuit.calls", MIN_FIT_LAYOUTS)
    if layouts < MIN_FIT_LAYOUTS:
        problems.append(f"{FIT}: {layouts} layouts per job")
    if OPTICS in metrics and metrics[OPTICS]["experiments.block_repeat_share"] > MAX_OPTICS_REPEAT_SHARE:
        problems.append(f"{OPTICS}: block repeat share {metrics[OPTICS]['experiments.block_repeat_share']}")

    # Without the program's sources the benchmark must fail and print no result.
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result = run(OPTICS, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result is not None:
        problems.append(f"bare directory: exit {code}, result {result}")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
