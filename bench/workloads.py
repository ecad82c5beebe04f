"""Seeded inputs, jobs and correctness checks of the three benchmark workloads.

Inputs come from the benchmark's own random streams and constants, never
from the program, so a change to heraldsim cannot change what it is fed.
Jobs reach the program through its module attributes at call time, so that
the tracer's wrappers see every call.
Job ``i`` of a run draws from ``SeedSequence([seed, workload, i])`` and so
does not depend on how many jobs ran before it.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

# Reference one-pair-per-arm probabilities and splitter transmissions, copied
# from the paper's photon-number tables.
REFERENCE_P11 = {0.17: 2.58e-4, 0.30: 6.14e-4, 0.50: 3.06e-3, 0.70: 8.03e-3}

FIXTURES = ("counts_17_83.csv", "counts_30_70.csv", "counts_50_50.csv", "counts_70_30.csv")
MC_SAMPLES = 50

# Relative width at which the CLI's tau bisection stops; the fitted P11 may
# miss its target by the slope d ln P11 / d ln tau (below 2 here) times half of it.
CALIBRATE_REL_TOL = 1e-4
P11_TOL = 10 * CALIBRATE_REL_TOL

# Two-qubit basis HH, HV, VH, VV; eigenvectors seen at the H-side and V-side
# ports of each analysis setting.
_PORTS = {
    "z": (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    "x": (np.array([1.0, 1.0]) / math.sqrt(2.0), np.array([1.0, -1.0]) / math.sqrt(2.0)),
    "y": (np.array([1.0, 1.0j]) / math.sqrt(2.0), np.array([1.0, -1.0j]) / math.sqrt(2.0)),
}
_COINCIDENCE_PATTERNS = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))
_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
_MAGIC_BASIS = np.array(
    [[1.0, 0.0, 0.0, 1.0], [1.0j, 0.0, 0.0, -1.0j], [0.0, 1.0j, 1.0j, 0.0], [0.0, 1.0, -1.0, 0.0]]
).T / math.sqrt(2.0)


class CheckFailed(Exception):
    """A job's output failed its correctness check."""


def _rng(seed: int, workload: int, job: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, workload, job])))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def fully_entangled_fraction(rho: np.ndarray) -> float:
    """Closed-form local-unitary-optimized fidelity: top eigenvalue of Re rho in the magic basis."""
    m = _MAGIC_BASIS.conj().T @ rho @ _MAGIC_BASIS
    return float(np.linalg.eigvalsh((m + m.conj().T).real / 2.0).max())


def _rho_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def run_cli(hs, argv: list[str]) -> int:
    """One CLI command as a fresh process would run it, with heraldsim's module caches empty."""
    for name, module in list(sys.modules.items()):
        if name != hs.__name__ and not name.startswith(hs.__name__ + "."):
            continue
        for obj in list(vars(module).values()):
            while not hasattr(obj, "cache_clear") and hasattr(obj, "__wrapped__"):
                obj = obj.__wrapped__
            owner = getattr(obj, "__module__", None) or ""
            if hasattr(obj, "cache_clear") and owner.startswith(hs.__name__):
                obj.cache_clear()
    return hs.cli.main(argv)


# -- optics-cold ---------------------------------------------------------------------


class OpticsCold:
    """simulate_experiment at max_pairs=6 on a new random splitter pair per job."""

    name = "optics-cold"
    cycle = 1
    max_pairs = 6
    photon_cap = 12

    def __init__(self, hs, root: Path, work: Path, seed: int):
        self.hs = hs
        self.seed = seed
        golden = json.loads((Path(__file__).parent / "golden_optics.json").read_text())
        self.golden = golden["jobs"] if seed == golden["seed"] else []

    def inputs(self, i: int) -> dict:
        rng = _rng(self.seed, 0, i)
        t1, t2 = rng.uniform(0.1, 0.9, size=2)
        return {
            "t1": float(t1),
            "t2": float(t2),
            "tau": float(rng.uniform(0.15, 0.35)),
            "visibility": float(rng.uniform(0.8, 1.0)),
            "efficiency": float(rng.uniform(0.05, 0.25)),
        }

    def run(self, inp: dict):
        hs = self.hs
        spdc = hs.source.SpdcParams(
            tau=inp["tau"], max_pairs=self.max_pairs, visibility=inp["visibility"],
            photon_cap=self.photon_cap,
        )
        config = hs.experiments.ExperimentConfig(
            t1=inp["t1"], t2=inp["t2"], spdc=spdc,
            detectors=hs.detection.DetectorModel(efficiency=inp["efficiency"]),
        )
        return hs.experiments.simulate_experiment(config)

    def check(self, i: int, inp: dict, result) -> None:
        total = sum(result.table.values())
        _require(abs(total - 1.0) <= 1e-12, f"number table sums to {total!r}")
        try:
            self.hs.metrics.check_density_matrix(result.rho_post)
        except ValueError as exc:
            raise CheckFailed(f"rho_post: {exc}") from None
        p = result.herald_probability
        _require(0.0 < p <= 1.0, f"herald probability {p!r} outside (0, 1]")
        if i < len(self.golden):
            for key, want in self.golden[i].items():
                got = result.metrics[key]
                _require(
                    math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15),
                    f"{key} = {got!r}, golden {want!r}",
                )


# -- fit-warm ------------------------------------------------------------------------


class FitWarm:
    """CLI calibrate then power-compare; job i takes the (i mod 4)-th reference splitter."""

    name = "fit-warm"
    cycle = len(REFERENCE_P11)

    def __init__(self, hs, root: Path, work: Path, seed: int):
        self.hs = hs
        self.seed = seed
        self.out = work / "fit"

    def inputs(self, i: int) -> dict:
        rng = _rng(self.seed, 1, i)
        t = sorted(REFERENCE_P11)[i % self.cycle]
        return {"t": t, "target_p11": REFERENCE_P11[t] * float(rng.uniform(0.8, 1.25))}

    def run(self, inp: dict):
        hs, out, t = self.hs, str(self.out), repr(inp["t"])
        code = run_cli(
            hs, ["calibrate", "--t", t, "--target-p11", repr(inp["target_p11"]), "--out", out],
        )
        if code != 0:
            return code, None, None
        cal = json.loads((self.out / "calibration.json").read_text())
        code = run_cli(
            hs, ["power-compare", "--tau-high", repr(cal["tau"]), "--t", t, "--out", out],
        )
        if code != 0:
            return code, cal, None
        return code, cal, json.loads((self.out / "power_comparison.json").read_text())

    def check(self, i: int, inp: dict, result) -> None:
        code, cal, power = result
        _require(code == 0, f"CLI exited with {code}")
        rel = abs(cal["achieved_p11"] / inp["target_p11"] - 1.0)
        _require(rel <= P11_TOL, f"achieved P11 off target by {rel:.2e}")
        _require(
            power["F_post_low"] > power["F_post_high"],
            f"F_post low {power['F_post_low']} <= high {power['F_post_high']}",
        )


# -- tomo-mc -------------------------------------------------------------------------


def werner_counts(rng: np.random.Generator, path: Path) -> None:
    """Write a Werner-state count table with 15-65 coincidences per setting."""
    p = float(rng.uniform(0.5, 0.95))
    rho = p * np.outer(_PHI_PLUS, _PHI_PLUS) + (1.0 - p) * np.eye(4) / 4.0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ratio", "setting_1", "setting_2", "n1H", "n1V", "n2H", "n2V", "count"])
        for a in "xyz":
            for b in "xyz":
                probs = np.array([
                    np.real(np.kron(u, v).conj() @ rho @ np.kron(u, v))
                    for u in _PORTS[a] for v in _PORTS[b]
                ])
                draws = rng.multinomial(int(rng.integers(15, 66)), probs / probs.sum())
                for pattern, n in zip(_COINCIDENCE_PATTERNS, draws):
                    writer.writerow([f"werner:{p:.4f}", a, b, *pattern, int(n)])


class TomoMc:
    """CLI reconstruct with local-fidelity search and 50 Monte Carlo samples.

    Even jobs take the four reference fixtures in turn, odd jobs a seeded
    Werner-state table.  A run holds whole cycles of eight jobs, so every run
    sees each fixture once per four Werner tables.
    """

    name = "tomo-mc"
    cycle = 2 * len(FIXTURES)

    def __init__(self, hs, root: Path, work: Path, seed: int):
        self.hs = hs
        self.seed = seed
        self.root = root
        self.work = work
        self.out = work / "tomo"

    def inputs(self, i: int) -> dict:
        rng = _rng(self.seed, 2, i)
        if i % 2 == 0:
            counts = self.root / "fixtures" / FIXTURES[(i // 2) % len(FIXTURES)]
        else:
            counts = self.work / f"werner_{i}.csv"
            werner_counts(rng, counts)
        return {"counts": counts, "mc_seed": int(rng.integers(2**31))}

    def run(self, inp: dict):
        code = run_cli(self.hs, [
            "reconstruct", "--counts", str(inp["counts"]), "--optimize-local",
            "--mc-samples", str(MC_SAMPLES), "--seed", str(inp["mc_seed"]), "--out", str(self.out),
        ])
        if code != 0:
            return code, None
        return code, json.loads((self.out / "reconstruction.json").read_text())

    def check(self, i: int, inp: dict, result) -> None:
        code, rec = result
        _require(code == 0, f"CLI exited with {code}")
        rho = _rho_from_json(rec["rho"])
        try:
            self.hs.metrics.check_density_matrix(rho)
        except ValueError as exc:
            raise CheckFailed(f"reconstructed rho: {exc}") from None
        want = fully_entangled_fraction(rho)
        got = rec["fidelity_optimized"]
        _require(abs(got - want) <= 1e-9, f"fidelity_optimized {got!r}, closed form {want!r}")
        for name, mc in rec["monte_carlo"].items():
            _require(
                mc["n_samples"] + mc["n_failures"] == MC_SAMPLES and math.isfinite(mc["std"]),
                f"Monte Carlo {name}: {mc}",
            )


WORKLOADS = {w.name: w for w in (OpticsCold, FitWarm, TomoMc)}
