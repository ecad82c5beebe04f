"""In-memory span tracer that wraps heraldsim's public functions from outside.

Callers import many functions by name (``from .fock import apply_mode_map``),
so a function is wrapped at every module global of the package that holds
it, not only where it is defined.  Spans carry name, start, end, parent and
job id, plus the time the wrapper itself spent on bookkeeping, so that self
times and the tracing overhead both derive from the spans alone.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# The program's layers, in the order the per-layer metrics list them.
LAYERS = ("fock", "elements", "source", "detection", "experiments", "tomography", "metrics", "cli")

# Methods wrapped in addition to every public module-level function.
METHODS = {"elements": {"CircuitLayout": ("run", "total_matrix")}}

# Functions whose spans are reported together under one name.
GROUPS = {
    "detection.classical_occupation_distribution": "detection.classical",
    "detection.herald_classical": "detection.classical",
}

_clock = time.perf_counter


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, job id, overhead_s].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = None
        self._stack: list[int] = []
        self._seen_blocks: set = set()

    # -- recording -----------------------------------------------------------------

    def start_job(self, job_id: int) -> None:
        self.job = job_id
        self._seen_blocks = set()

    def end_job(self) -> None:
        self.job = None

    def _wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            t0 = _clock()
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, t0, 0.0, parent, tracer.job, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            t1 = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._stack.pop()
                span[2] = _clock()
                span[5] = t1 - t0
                raise
            t2 = _clock()
            tracer._stack.pop()
            if counter is not None:
                counter(tracer, args, result)
            t3 = _clock()
            span[2] = t3
            span[5] = (t1 - t0) + (t3 - t2)
            return result

        return traced

    # -- installing wrappers -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function and the listed methods of each layer."""
        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(name, obj, COUNTERS.get(name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig, COUNTERS.get(name)))
        # scipy's minimizer is counted (function evaluations) but is not a span:
        # its time belongs to the tomography function that calls it.
        tomography = modules["tomography"]
        if hasattr(tomography, "minimize"):
            tomography.minimize = self._counting(tomography.minimize)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != package.__name__ and not name.startswith(package.__name__ + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])

    def _counting(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.job is not None:
                tracer.counts["tomography.optimize_local_fidelity.nfev"] += int(result.nfev)
            return result

        return counted

    # -- analysis ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus its children's durations and its own bookkeeping."""
        own = [s[2] - s[1] - s[5] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self, n_jobs: int, job_wall_s: float) -> dict[str, float]:
        """Per-layer metrics, as totals over the traced jobs divided by the job count."""
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        children: dict[int, int] = defaultdict(int)
        for i, s in enumerate(self.spans):
            name = s[0]
            calls[name] += 1
            self_s[name] += own[i]
            self_s[name.split(".", 1)[0]] += own[i]
            group = GROUPS.get(name)
            if group:
                self_s[group] += own[i]
            if s[3] >= 0:
                children[s[3]] += 1
        misses = sum(
            1 for i, s in enumerate(self.spans)
            if s[0] == "detection.convention_correction" and children[i]
        )
        overhead = sum(s[5] for s in self.spans)
        covered = sum(own)
        blocks = self.counts["experiments.blocks"]
        per_job = 1.0 / max(n_jobs, 1)
        out: dict[str, float] = {}
        for metric in PER_LAYER:
            name, _, kind = metric.rpartition(".")
            if kind == "calls":
                value = calls[name]
            elif kind == "self_s":
                value = self_s[name]
            elif kind == "misses":
                value = misses
            else:
                value = self.counts.get(metric, 0.0)
            out[metric] = value * per_job
        out["experiments.block_repeat_share"] = (
            self.counts["experiments.block_repeats"] / blocks if blocks else 0.0
        )
        out["trace.coverage"] = covered / job_wall_s if job_wall_s > 0 else 0.0
        out["trace.overhead_ratio"] = (
            job_wall_s / (job_wall_s - overhead) if job_wall_s > overhead else 0.0
        )
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job", "overhead_s")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts)}, fh)
            fh.write("\n")


def _count_kets(tracer: Tracer, args, result) -> None:
    tracer.counts["fock.apply_mode_map.kets_in"] += len(args[0].amplitudes)
    tracer.counts["fock.apply_mode_map.kets_out"] += len(result.amplitudes)


def _count_block(tracer: Tracer, args, result) -> None:
    """A block evolution repeats when the same ket already went through the same circuit in this job."""
    layout, state = args[0], args[1]
    key = (layout.t1, layout.t2, tuple(layout.settings), tuple(sorted(state.amplitudes.items())))
    tracer.counts["experiments.blocks"] += 1
    if key in tracer._seen_blocks:
        tracer.counts["experiments.block_repeats"] += 1
    tracer._seen_blocks.add(key)


def _count_herald(tracer: Tracer, args, result) -> None:
    tracer.counts["detection.herald.components"] += len(result.components)


def _count_emission(tracer: Tracer, args, result) -> None:
    tracer.counts["source.components"] += len(result)


def _count_mle(tracer: Tracer, args, result) -> None:
    tracer.counts["tomography.mle_reconstruct.iterations"] += result.iterations


def _count_mc(tracer: Tracer, args, result) -> None:
    tracer.counts["tomography.monte_carlo_report.failures"] += max(
        (r.n_failures for r in result.values()), default=0
    )


COUNTERS = {
    "fock.apply_mode_map": _count_kets,
    "elements.CircuitLayout.run": _count_block,
    "detection.herald": _count_herald,
    "source.emission_components": _count_emission,
    "tomography.mle_reconstruct": _count_mle,
    "tomography.monte_carlo_report": _count_mc,
}

# Per-layer metrics (traced run only) with their units; BENCHMARK.json lists the same.
PER_LAYER = {
    "fock.apply_mode_map.calls": "count",
    "fock.apply_mode_map.self_s": "s",
    "fock.apply_mode_map.kets_in": "count",
    "fock.apply_mode_map.kets_out": "count",
    "fock.self_s": "s",
    "elements.build_paper_circuit.calls": "count",
    "elements.build_paper_circuit.self_s": "s",
    "elements.CircuitLayout.run.self_s": "s",
    "elements.CircuitLayout.total_matrix.calls": "count",
    "elements.CircuitLayout.total_matrix.self_s": "s",
    "elements.self_s": "s",
    "experiments.heralded_ensemble.calls": "count",
    "experiments.heralded_ensemble.self_s": "s",
    "experiments.block_repeat_share": "ratio",
    "experiments.self_s": "s",
    "source.emission_components.self_s": "s",
    "source.components": "count",
    "source.self_s": "s",
    "detection.herald.calls": "count",
    "detection.herald.self_s": "s",
    "detection.herald.components": "count",
    "detection.classical.self_s": "s",
    "detection.number_table.self_s": "s",
    "detection.postselect_two_qubit.self_s": "s",
    "detection.arm_click_probability.self_s": "s",
    "detection.convention_correction.misses": "count",
    "detection.self_s": "s",
    "tomography.ingest_counts.self_s": "s",
    "tomography.mle_reconstruct.calls": "count",
    "tomography.mle_reconstruct.self_s": "s",
    "tomography.mle_reconstruct.iterations": "count",
    "tomography.optimize_local_fidelity.calls": "count",
    "tomography.optimize_local_fidelity.self_s": "s",
    "tomography.optimize_local_fidelity.nfev": "count",
    "tomography.monte_carlo_report.self_s": "s",
    "tomography.monte_carlo_report.failures": "count",
    "tomography.self_s": "s",
    "metrics.self_s": "s",
    "cli.main.self_s": "s",
    "cli.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}
