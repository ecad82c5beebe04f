"""Two-qubit tomography: measurement simulation, MLE reconstruction, errors.

Nine Pauli settings (sigma_i on arm 1, sigma_j on arm 2) are measured in
the coincidence basis.  Reconstruction maximizes the Poissonian likelihood
of the observed coincidence counts over the Cholesky-style parameterization
rho = T†T / tr(T†T), with the per-setting intensity profiled out (the
likelihood reduces to the multinomial form).  Uncertainties come from a
Monte Carlo over Poisson-resampled count tables.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .detection import COINCIDENCE_PATTERNS
from .metrics import check_density_matrix

AXES = ("x", "y", "z")
SETTINGS: tuple[tuple[str, str], ...] = tuple((a, b) for a in AXES for b in AXES)

# Per axis: the eigenvector detected at the H-side and the V-side port of
# the analysis PBS (matching the circuit's analysis wave plates).
_BASIS_VECTORS = {
    "z": (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)),
    "x": (
        np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
        np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    ),
    "y": (
        np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
        np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
    ),
}

CSV_HEADER = ("ratio", "setting_1", "setting_2", "n1H", "n1V", "n2H", "n2V", "count")

LOG_LIKELIHOOD_TOL = 1e-10
MAX_ITERATIONS = 100_000


class ConvergenceError(RuntimeError):
    """Raised when the likelihood ascent fails to converge."""


def setting_projectors(setting: tuple[str, str]) -> list[np.ndarray]:
    """Four coincidence projectors of a setting, ordered as HH, HV, VH, VV ports."""
    a, b = setting
    if a not in AXES or b not in AXES:
        raise ValueError(f"unknown setting {setting}")
    vecs1 = _BASIS_VECTORS[a]
    vecs2 = _BASIS_VECTORS[b]
    projs = []
    for i in range(2):
        for j in range(2):
            v = np.kron(vecs1[i], vecs2[j])
            projs.append(np.outer(v, v.conj()))
    return projs


def expected_coincidences(rho: np.ndarray, setting: tuple[str, str]) -> np.ndarray:
    """Probabilities of the four coincidence outcomes for one setting."""
    rho = check_density_matrix(rho)
    probs = np.array(
        [float(np.real(np.trace(p @ rho))) for p in setting_projectors(setting)]
    )
    return np.clip(probs, 0.0, None)


@dataclass
class CountTable:
    """Per-setting, per-click-pattern event counts.

    Keys are ((setting_1, setting_2), (n1H, n1V, n2H, n2V)); values are
    non-negative integers.  ``ratio`` tags the splitter configuration the
    data came from.
    """

    counts: dict[tuple[tuple[str, str], tuple[int, int, int, int]], int] = field(
        default_factory=dict
    )
    ratio: str | None = None

    def add(self, setting: tuple[str, str], pattern: tuple[int, int, int, int], count: int):
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting}")
        if len(pattern) != 4 or any(n < 0 for n in pattern):
            raise ValueError(f"bad pattern {pattern}")
        if count < 0:
            raise ValueError(f"negative count {count}")
        key = (tuple(setting), tuple(int(n) for n in pattern))
        if key in self.counts:
            raise ValueError(f"duplicate entry for {key}")
        self.counts[key] = int(count)

    def settings_present(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted({s for s, _ in self.counts}))

    def coincidences(self, setting: tuple[str, str]) -> np.ndarray:
        """Counts of the four single-coincidence patterns for one setting."""
        return np.array(
            [self.counts.get((setting, p), 0) for p in COINCIDENCE_PATTERNS], dtype=float
        )

    def coincidence_matrix(self) -> np.ndarray:
        """(n_settings, 4) coincidence counts in canonical setting order."""
        return np.array([self.coincidences(s) for s in SETTINGS])


def simulate_counts(
    rho: np.ndarray,
    settings: Sequence[tuple[str, str]],
    events_per_setting: int,
    seed: int,
) -> CountTable:
    """Draw multinomial coincidence counts for each setting."""
    if events_per_setting < 1:
        raise ValueError("events_per_setting must be at least 1")
    rho = check_density_matrix(rho)
    table = CountTable()
    streams = np.random.SeedSequence(seed).spawn(len(settings))
    for setting, stream in zip(settings, streams):
        rng = np.random.Generator(np.random.Philox(stream))
        probs = expected_coincidences(rho, setting)
        probs = probs / probs.sum()
        draws = rng.multinomial(events_per_setting, probs)
        for pattern, n in zip(COINCIDENCE_PATTERNS, draws):
            table.add(setting, pattern, int(n))
    return table


def ingest_counts(path) -> CountTable:
    """Read a count table CSV (header ratio,setting_1,setting_2,n1H,n1V,n2H,n2V,count)."""
    table = CountTable()
    ratios = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty counts file") from None
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValueError(f"{path}: bad header {header}")
        n_rows = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields")
            ratio, s1, s2, *rest = [f.strip() for f in row]
            try:
                n1h, n1v, n2h, n2v, count = (int(x) for x in rest)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer field") from None
            table.add((s1, s2), (n1h, n1v, n2h, n2v), count)
            ratios.add(ratio)
            n_rows += 1
        if n_rows == 0:
            raise ValueError(f"{path}: no data rows")
    if len(ratios) == 1:
        table.ratio = ratios.pop()
    return table


def write_counts(table: CountTable, path) -> None:
    """Write a count table in the ingestible CSV format (rows sorted)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for (setting, pattern), count in sorted(table.counts.items()):
            writer.writerow([table.ratio or "", *setting, *pattern, count])


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -1, -2)


def _psd_floor(rho: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    """Project onto strictly positive states (eigenvalue floor, retrace)."""
    eigs, vecs = np.linalg.eigh((rho + _dagger(rho)) / 2.0)
    rho = (vecs * np.clip(eigs, floor, None)[..., None, :]) @ _dagger(vecs)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def _lower_triangular_factor(rho: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T†T = rho (Cholesky with reversed ordering)."""
    flip = np.eye(4)[::-1]
    chol = np.linalg.cholesky(flip @ rho @ flip)
    return _dagger(flip @ chol @ flip)


# Parameter layout: the four real diagonal entries of T, then the real and
# imaginary parts of each strictly-lower entry, row by row.
_DIAG = np.arange(4)
_ROWS, _COLS = np.tril_indices(4, -1)


def _params_to_t(params: np.ndarray) -> np.ndarray:
    t = np.zeros(params.shape[:-1] + (4, 4), dtype=complex)
    t[..., _DIAG, _DIAG] = params[..., :4]
    t[..., _ROWS, _COLS] = params[..., 4::2] + 1.0j * params[..., 5::2]
    return t


def _t_to_params(t: np.ndarray) -> np.ndarray:
    params = np.empty(t.shape[:-2] + (16,))
    params[..., :4] = t[..., _DIAG, _DIAG].real
    lower = t[..., _ROWS, _COLS]
    params[..., 4::2] = lower.real
    params[..., 5::2] = lower.imag
    return params


# The 36 projectors flattened to rows; as Pi_k is Hermitian,
# q_k = tr(Pi_k A) = sum_ij conj(Pi_k)_ij A_ij.  Products with them keep a
# row axis of length one per sample: a stack of small BLAS calls, where one
# (S, 16) x (16, 36) product lets OpenBLAS start threads from S ~ 100 on,
# which on a 2-core host with the other core busy took 8 ms, not 0.05 ms.
_PROJECTORS = np.stack([p for s in SETTINGS for p in setting_projectors(s)]).reshape(36, 16)
_PROJECTORS_CONJ_T = _PROJECTORS.conj().T
# Least-squares inverse of rho -> (q_k): (36, 16) -> (16, 36), stored transposed.
_INVERSION_T = np.linalg.pinv(_PROJECTORS.conj()).T


def _linear_inversion(coincidences: np.ndarray) -> np.ndarray:
    """Least-squares estimate of rho from (..., 9, 4) per-setting counts.

    The pseudo-inverse of the 36 projectors maps the per-setting
    frequencies to rho; a setting without counts reads 0.25 per port.
    """
    totals = coincidences.sum(axis=-1, keepdims=True)
    freqs = np.divide(
        coincidences, totals, out=np.full(coincidences.shape, 0.25), where=totals > 0
    )
    rows = freqs.reshape(freqs.shape[:-2] + (1, 36))
    return (rows @ _INVERSION_T).reshape(freqs.shape[:-2] + (4, 4))


def _log_likelihood_and_grad(params: np.ndarray, counts: np.ndarray):
    """Poisson log-likelihood (intensity profiled out) and its gradient.

    ``params`` is (..., 16) and ``counts`` (..., 36); every leading index is
    an independent sample.
    """
    t = _params_to_t(params)
    a = _dagger(t) @ t
    trace = np.square(params).sum(axis=-1)  # tr(T†T) = sum of |T_ij|^2
    q = (a.reshape(a.shape[:-2] + (1, 16)) @ _PROJECTORS_CONJ_T)[..., 0, :].real
    q = np.clip(q, 1e-300, None)
    n_total = counts.sum(axis=-1)
    logl = (counts * np.log(q)).sum(axis=-1) - n_total * np.log(trace)
    # d q_k / dT = 2 T Pi_k (real part for Re-params, imag part for Im-params)
    weighted_pi = ((counts / q)[..., None, :] @ _PROJECTORS).reshape(t.shape)
    grad_matrix = 2.0 * t @ weighted_pi - (2.0 * n_total / trace)[..., None, None] * t
    return logl, _t_to_params(grad_matrix)


@dataclass(frozen=True)
class MleResult:
    """Reconstruction output: state, likelihood and iteration diagnostics."""

    rho: np.ndarray
    log_likelihood: float
    iterations: int
    history: tuple[float, ...] | None = None


def _coincidence_matrix(table: CountTable) -> np.ndarray:
    """(9, 4) counts of a table that has every setting and some counts."""
    missing = [s for s in SETTINGS if s not in set(table.settings_present())]
    if missing:
        raise ValueError(f"count table is missing settings: {missing}")
    coincidences = table.coincidence_matrix()
    if coincidences.sum() == 0:
        raise ValueError("all coincidence counts are zero; cannot reconstruct")
    return coincidences


def _ascend(coincidences: np.ndarray, keep_history: bool = False):
    """Likelihood ascent for each of S count tables, all in one loop.

    ``coincidences`` is (S, 9, 4).  Each sample starts from its PSD-projected
    linear inversion and runs its own gradient ascent on the 16 real
    parameters of the lower-triangular factor: a step that raises the
    log-likelihood is taken and the step grows by 1.6, otherwise the step
    halves.  A sample stops when an accepted step improves the
    log-likelihood by less than 1e-10 relative, or when no step above
    1e-300 improves it, and then leaves the active set.  A sample still
    running after ``MAX_ITERATIONS`` accepted steps has not converged.

    Returns rho (S, 4, 4), log-likelihood (S,), iterations (S,), a converged
    flag (S,) and, if asked, each sample's log-likelihood at the start and
    after every accepted step.
    """
    n_samples = coincidences.shape[0]
    counts = coincidences.reshape(n_samples, 36)
    params = _t_to_params(_lower_triangular_factor(_psd_floor(_linear_inversion(coincidences))))
    logl, grad = _log_likelihood_and_grad(params, counts)
    step = 1.0 / np.maximum(1.0, counts.sum(axis=1))
    iterations = np.ones(n_samples, dtype=int)
    converged = np.zeros(n_samples, dtype=bool)
    history = [[value] for value in logl] if keep_history else None
    active = np.arange(n_samples)
    while active.size:
        trial = params[active] + step[active, None] * grad[active]
        trial_logl, trial_grad = _log_likelihood_and_grad(trial, counts[active])
        last = logl[active]
        up = np.isfinite(trial_logl) & (trial_logl > last)
        small = trial_logl - last < LOG_LIKELIHOOD_TOL * np.maximum(1.0, np.abs(trial_logl))
        accepted = active[up]
        params[accepted] = trial[up]
        logl[accepted] = trial_logl[up]
        grad[accepted] = trial_grad[up]
        if history is not None:
            for s in accepted:
                history[s].append(logl[s])
        step[active] *= np.where(up, 1.6, 0.5)
        done = np.where(up, small, ~(step[active] > 1e-300))
        converged[active[done]] = True
        stay = ~done & (~up | (iterations[active] < MAX_ITERATIONS))
        iterations[active[stay & up]] += 1
        active = active[stay]
    t = _params_to_t(params)
    rho = _dagger(t) @ t
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    rho = (rho + _dagger(rho)) / 2.0
    return rho, logl, iterations, converged, history


def mle_reconstruct(table: CountTable, keep_history: bool = False) -> MleResult:
    """Maximum-likelihood density matrix from coincidence counts.

    Deterministic gradient ascent with step halving on the 16 real
    parameters of the lower-triangular factor, started from the
    PSD-projected linear inversion, until the relative log-likelihood
    improvement drops below 1e-10.
    """
    coincidences = _coincidence_matrix(table)
    rho, logl, iterations, converged, history = _ascend(coincidences[None], keep_history)
    if not converged[0]:
        raise ConvergenceError(
            f"likelihood ascent did not converge within {MAX_ITERATIONS} iterations "
            f"(last log-likelihood {logl[0]:.6f})"
        )
    return MleResult(
        rho=rho[0],
        log_likelihood=float(logl[0]),
        iterations=int(iterations[0]),
        history=tuple(float(v) for v in history[0]) if history is not None else None,
    )


# Columns Phi+, i Phi-, i Psi+, Psi-: every real unit vector in this basis is
# a maximally entangled state, and local unitaries act as real rotations.
_MAGIC_BASIS = np.array(
    [[1.0, 0.0, 0.0, 1.0], [1.0j, 0.0, 0.0, -1.0j], [0.0, 1.0j, 1.0j, 0.0], [0.0, 1.0, -1.0, 0.0]]
).T / math.sqrt(2.0)


def optimize_local_fidelity(rho: np.ndarray) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Maximize <phi+|(U1 x U2) rho (U1 x U2)†|phi+> over local unitaries.

    The maximum is the fully entangled fraction: the largest eigenvalue of
    Re(M† rho M) in the magic basis M.  Its eigenvector v gives the
    maximally entangled state psi = M v that rho overlaps most.  With
    C = psi.reshape(2, 2), psi = (1 x sqrt(2) C^T) phi+, so U1 = 1 and
    U2 = (sqrt(2) C^T)† = sqrt(2) conj(C) map psi onto phi+.  Returns the
    fidelity and the per-arm unitaries.
    """
    rho = check_density_matrix(rho)
    m = _MAGIC_BASIS.conj().T @ rho @ _MAGIC_BASIS
    eigs, vecs = np.linalg.eigh((m + m.conj().T).real / 2.0)
    psi = _MAGIC_BASIS @ vecs[:, -1]
    u2 = math.sqrt(2.0) * psi.reshape(2, 2).conj()
    return float(eigs[-1]), (np.eye(2, dtype=complex), u2)


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    std: float
    n_samples: int
    n_failures: int


def _poisson_resample(table: CountTable, rng: np.random.Generator) -> CountTable:
    # One draw per entry in sorted key order, as rng.poisson fills an array in order.
    keys = sorted(table.counts)
    draws = rng.poisson([table.counts[k] for k in keys])
    return CountTable(dict(zip(keys, draws.tolist())), ratio=table.ratio)


def monte_carlo_report(
    table: CountTable,
    n_samples: int,
    seed: int,
    functionals: Mapping[str, Callable[[np.ndarray], float]],
    resampler: Callable[[CountTable, np.random.Generator], CountTable] = _poisson_resample,
) -> dict[str, MonteCarloResult]:
    """Propagate Poissonian count errors through reconstruction.

    Each sample resamples every count; all resampled tables are
    reconstructed together, each exactly as ``mle_reconstruct`` would, and
    every functional is evaluated on each state.  Tables that cannot be
    reconstructed (missing settings, no counts, no convergence) are counted
    as failures and skipped.
    """
    if n_samples < 2:
        raise ValueError("need at least two Monte Carlo samples")
    streams = np.random.SeedSequence(seed).spawn(n_samples)
    coincidences = []
    for stream in streams:
        rng = np.random.Generator(np.random.Philox(stream))
        resampled = resampler(table, rng)
        try:
            coincidences.append(_coincidence_matrix(resampled))
        except ValueError:
            pass  # counted as a failure below
    rhos = []
    if coincidences:
        rho, _, _, converged, _ = _ascend(np.stack(coincidences))
        rhos = rho[converged]
    failures = n_samples - len(rhos)
    values = {name: [float(fn(r)) for r in rhos] for name, fn in functionals.items()}
    report = {}
    for name, vals in values.items():
        if len(vals) < 2:
            raise ConvergenceError(
                f"only {len(vals)} of {n_samples} Monte Carlo samples reconstructed"
            )
        arr = np.array(vals)
        report[name] = MonteCarloResult(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)),
            n_samples=len(vals),
            n_failures=failures,
        )
    return report
