"""Two-qubit tomography: measurement simulation, MLE reconstruction, errors.

Nine Pauli settings (sigma_i on arm 1, sigma_j on arm 2) are measured in
the coincidence basis.  Reconstruction maximizes the Poissonian likelihood
of the observed coincidence counts over the Cholesky-style parameterization
rho = T†T / tr(T†T), with the per-setting intensity profiled out (the
likelihood reduces to the multinomial form), by a few diluted RrhoR steps
on rho and then damped Newton steps on T, and certifies the maximum it
reaches.  Uncertainties come from a
Monte Carlo over Poisson-resampled count tables: the observed table and
its resamples are maximized together, as one batch whose row 0 is the
point estimate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .detection import COINCIDENCE_PATTERNS
from .elements import ANALYSIS_BASES, ANALYSIS_SETTINGS
from .metrics import PSD_TOL, _dagger, _per_state, check_density_matrix

SETTINGS: tuple[tuple[str, str], ...] = tuple(
    (a, b) for a in ANALYSIS_SETTINGS for b in ANALYSIS_SETTINGS
)

CSV_HEADER = ("ratio", "setting_1", "setting_2", "n1H", "n1V", "n2H", "n2V", "count")

# A reconstruction stops once its certificate, an upper bound on how far its
# log-likelihood is below the maximum, is at most CERTIFICATE_TOL times its
# number of counts N.  The certificate is an eigenvalue of a matrix of scale
# N, so its rounding grows with N, and a fixed bound would not be reachable
# on large tables.
CERTIFICATE_TOL = 1e-10
MAX_ITERATIONS = 1_000
_DAMPING_START = 1e-2
# A Newton step promising less than this times certificate^2 / N marks a
# saddle; near the maximum the promise is of order certificate^2 / N.
_STALL = 1e-6
_ESCAPE_MIN_STEP = 1e-12
# Diluted RrhoR steps, and their dilution e, before the Newton iteration.  They
# start from the linear inversion floored at _WARM_UP_FLOOR: an RrhoR step
# grows an eigenvalue by a bounded factor, so one floored lower takes more
# steps to reach a maximum inside the state space.
_WARM_UP_STEPS = 15
_WARM_UP_DILUTION = 10.0
_WARM_UP_FLOOR = 1e-3


class ConvergenceError(RuntimeError):
    """Raised when the likelihood maximization ends without a certificate."""


# The 36 coincidence projectors flattened to rows: the settings in SETTINGS
# order, each as its HH, HV, VH, VV ports.
_PROJECTORS = np.stack([
    np.outer(v, v.conj())
    for a, b in SETTINGS
    for v in (np.kron(va, vb) for va in ANALYSIS_BASES[a] for vb in ANALYSIS_BASES[b])
]).reshape(36, 16)


def expected_coincidences(rho: np.ndarray, setting: tuple[str, str]) -> np.ndarray:
    """Probabilities of the four coincidence outcomes for one setting.

    Rounding can leave a probability that is zero for the state slightly
    negative; one within ``PSD_TOL`` of zero reads 0, one further below
    raises ``ValueError``.
    """
    rho = check_density_matrix(rho)
    if tuple(setting) not in SETTINGS:
        raise ValueError(f"unknown setting {setting}")
    projectors = _PROJECTORS.reshape(9, 4, 4, 4)[SETTINGS.index(tuple(setting))]
    probs = np.array([float(np.real(np.trace(p @ rho))) for p in projectors])
    if probs.min() < -PSD_TOL:
        raise ValueError(f"negative coincidence probability {probs.min()} in setting {setting}")
    return np.maximum(probs, 0.0)


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
        setting = tuple(setting)
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting}")
        if len(pattern) != 4 or any(n < 0 for n in pattern):
            raise ValueError(f"bad pattern {pattern}")
        if count < 0:
            raise ValueError(f"negative count {count}")
        key = (setting, tuple(int(n) for n in pattern))
        if key in self.counts:
            raise ValueError(f"duplicate entry for {key}")
        self.counts[key] = int(count)

    def coincidence_matrix(self) -> np.ndarray:
        """(9, 4) coincidences in SETTINGS and port order; a missing setting raises ValueError."""
        present = {s for s, _ in self.counts}
        missing = [s for s in SETTINGS if s not in present]
        if missing:
            raise ValueError(f"count table is missing settings: {missing}")
        return np.array(
            [[self.counts.get((s, p), 0) for p in COINCIDENCE_PATTERNS] for s in SETTINGS],
            dtype=float,
        )


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


# Each projector row as 16 (real, imaginary) pairs, (36, 32).  A real-weighted
# sum of these rows, viewed as complex, is sum_k w_k Pi_k; and as Pi_k is
# Hermitian, tr(Pi_k rho) = sum_ij Re(conj(Pi_k)_ij rho_ij) is the dot product
# of its row with rho's 16 pairs.  Products with the projector rows keep a row
# axis of length one per sample: a stack of small BLAS calls, where one
# (S, 32) x (32, 36) product lets OpenBLAS start threads from S ~ 100 on,
# which on a 2-core host with the other core busy took 8 ms, not 0.05 ms.
_PROJECTORS_REAL = _PROJECTORS.view(float)
_PROJECTORS_REAL_T = _PROJECTORS_REAL.T.copy()
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


# Each q_k = tr(Pi_k T†T) is a quadratic form p^T H_k p in the 16 parameters:
# with T = sum_i p_i B_i, H_k[i, j] = Re tr(Pi_k B_i† B_j).  Rows of H_k p are
# taken per sample as one (1, 16) x (16, 36*16) product (see above); the
# Hessian's weighted sum of the H_k is not taken from these tables but read
# off R (below).
_BASIS = _params_to_t(np.eye(16))
_BASIS_PRODUCTS = _dagger(_BASIS)[:, None] @ _BASIS[None, :]  # B_i† B_j, (16, 16, 4, 4)
_FORMS = (_PROJECTORS.conj() @ _BASIS_PRODUCTS.reshape(256, 16).T).real.reshape(36, 16, 16)
_FORM_ROWS = _FORMS.transpose(1, 0, 2).reshape(16, 36 * 16)
# The weighted form sum sum_k w_k H_k[i, j] = Re tr(R B_i† B_j), R = sum_k w_k Pi_k,
# is read off R's 16 (real, imaginary) pairs.  B_i = a_i E[r_i, c_i] with a_i
# 1 or 1j, so B_i† B_j is conj(a_i) a_j E[c_i, c_j] where r_i = r_j, else 0,
# and the entry is Re(conj(a_i) a_j R[c_j, c_i]): one part of R[c_j, c_i]
# times a sign, or 0.
_ENTRY = np.abs(_BASIS.reshape(16, 16)).argmax(axis=1)  # 4 r_i + c_i
_PHASE = _BASIS.reshape(16, 16)[np.arange(16), _ENTRY]
_COEFFICIENT = (_ENTRY[:, None] // 4 == _ENTRY // 4) * np.outer(_PHASE.conj(), _PHASE)
_IMAGINARY = _COEFFICIENT.real == 0.0
_FORM_GATHER = 2 * (4 * (_ENTRY % 4) + (_ENTRY % 4)[:, None]) + _IMAGINARY
_FORM_SIGNS = np.where(_IMAGINARY, -_COEFFICIENT.imag, _COEFFICIENT.real)


def _quadratic_forms(params: np.ndarray):
    """H_k p (..., 36, 16) and q_k = p^T H_k p (..., 36) for (..., 16) parameters."""
    hp = (params[..., None, :] @ _FORM_ROWS).reshape(params.shape[:-1] + (36, 16))
    return hp, (hp @ params[..., None])[..., 0]


def _log_likelihood(counts: np.ndarray, q: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """sum_k c_k log q_k - N log p^T p: each sample's multinomial log-likelihood over the settings.

    Outcomes without counts add nothing, whatever their q_k.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, counts * np.log(q), 0.0)
    return terms.sum(axis=-1) - counts.sum(axis=-1) * np.log(norm)


def _derivatives(params: np.ndarray, counts: np.ndarray, hp: np.ndarray, q: np.ndarray):
    """Gradient (..., 16) and Hessian (..., 16, 16) of the log-likelihood in p."""
    norm = np.square(params).sum(axis=-1)[..., None]
    n_total = counts.sum(axis=-1)[..., None]
    positive = counts > 0
    weights = np.divide(counts, q, out=np.zeros_like(q), where=positive)
    curvature = np.divide(weights, q, out=np.zeros_like(q), where=positive)
    grad = 2.0 * (weights[..., None, :] @ hp)[..., 0, :] - (2.0 * n_total / norm) * params
    r = (weights[..., None, :] @ _PROJECTORS_REAL)[..., 0, :]
    hess = (
        2.0 * r[..., _FORM_GATHER] * _FORM_SIGNS
        - 4.0 * np.swapaxes(hp * curvature[..., None], -1, -2) @ hp
        - (2.0 * n_total / norm)[..., None] * np.eye(16)
        + (4.0 * n_total / norm**2)[..., None] * (params[..., :, None] * params[..., None, :])
    )
    return grad, hess


def _lift(neg_hess: np.ndarray) -> np.ndarray:
    """2 max(0, -lambda_min) of each (..., 16, 16) negated Hessian.

    Shifted by it, every eigenvalue is at least |lambda_min|; it is 0 where
    the negated Hessian is positive semidefinite.
    """
    return 2.0 * np.maximum(0.0, -np.linalg.eigvalsh(neg_hess)[..., 0])


def _newton_step(grad: np.ndarray, neg_hess: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """s with (-H + shift 1) s = g for (S, 16) gradients, (S, 16, 16) -H and (S,) shifts.

    The right-hand side goes in as (S, 16, 1): numpy 1 reads an (S, 16) one
    as a stack of vectors, numpy 2 as one (S, 16) matrix.
    """
    shifted = neg_hess + shift[:, None, None] * np.eye(16)
    return np.linalg.solve(shifted, grad[..., None])[..., 0]


def _state(params: np.ndarray) -> np.ndarray:
    """rho = T†T / tr(T†T), Hermitian to rounding."""
    t = _params_to_t(params)
    rho = _dagger(t) @ t
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return (rho + _dagger(rho)) / 2.0


def _start(rho: np.ndarray) -> np.ndarray:
    """Unit-norm parameters of the eigenvalue-floored rho."""
    params = _t_to_params(_lower_triangular_factor(_psd_floor(rho)))
    return params / np.linalg.norm(params, axis=-1, keepdims=True)


def _probabilities(rho: np.ndarray) -> np.ndarray:
    """tr(Pi_k rho) for the 36 projectors, (..., 36), from (..., 4, 4) states."""
    return (rho.reshape(rho.shape[:-2] + (1, 16)).view(float) @ _PROJECTORS_REAL_T)[..., 0, :]


def _ratio_operator(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """R = sum_k (c_k / p_k) Pi_k (..., 4, 4), outcomes without counts left out."""
    weights = np.divide(counts, probs, out=np.zeros_like(probs), where=counts > 0)
    r = (weights[..., None, :] @ _PROJECTORS_REAL).view(complex)
    return r.reshape(probs.shape[:-1] + (4, 4))


def _certificate(counts: np.ndarray, rho: np.ndarray):
    """N (lambda_max(R / N) - 1) with R = sum_k (c_k / P_k) Pi_k, and R's top eigenvector.

    rho maximizes the likelihood exactly when R <= N, and as the
    log-likelihood is concave in rho, no state beats rho's log-likelihood
    by more than this value.
    """
    r = _ratio_operator(counts, _probabilities(rho))
    eigs, vecs = np.linalg.eigh(r)
    return eigs[..., -1] - counts.sum(axis=-1), vecs[..., :, -1]


@dataclass(frozen=True)
class MleResult:
    """Reconstruction output: state, likelihood and iteration diagnostics.

    ``certificate`` bounds how far ``log_likelihood`` can be below the
    maximum; it is at most ``CERTIFICATE_TOL`` times the number of counts.
    ``samples`` (K, 4, 4) and ``sample_certificates`` (K,) are the
    certified reconstructions of the Poisson resamples, and ``n_failures``
    counts the resamples that gave none.
    """

    rho: np.ndarray
    log_likelihood: float
    iterations: int
    certificate: float
    samples: np.ndarray
    sample_certificates: np.ndarray
    n_failures: int


def _escape(counts: np.ndarray, rho: np.ndarray, top: np.ndarray, logl: float):
    """Move one sample off a saddle of the parameterization towards R's top eigenvector.

    Tries (1 - eps) rho + eps v v†, eigenvalue-floored, for eps = 1/2, 1/4,
    ... and returns the parameters, their quadratic forms and
    log-likelihood at the first eps that raises the log-likelihood, or None.
    """
    target = np.outer(top, top.conj())
    eps = 0.5
    while eps >= _ESCAPE_MIN_STEP:
        params = _start((1.0 - eps) * rho + eps * target)
        hp, q = _quadratic_forms(params)
        trial = _log_likelihood(counts, q, np.square(params).sum())
        if trial > logl:
            return params, hp, q, trial
        eps /= 2.0
    return None


def _warm_up(counts: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """(S, 4, 4) states after ``_WARM_UP_STEPS`` diluted RrhoR steps from rho, floored.

    rho -> A rho A / tr(A rho A) with A = 1 + e R / N (Rehacek, Hradil, Knill
    & Lvovsky, PRA 75, 042108, 2007).  R = sum_k (c_k / P_k) Pi_k is positive
    semidefinite, so A >= 1 and the floored rho stays positive definite: no
    outcome with counts reaches probability zero.
    """
    rho = _psd_floor(rho, _WARM_UP_FLOOR)
    dilution = _WARM_UP_DILUTION / counts.sum(axis=-1)[:, None, None]
    for _ in range(_WARM_UP_STEPS):
        r = _ratio_operator(counts, _probabilities(rho))
        a = np.eye(4) + dilution * r
        rho = a @ rho @ a
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return rho


def _ascend(coincidences: np.ndarray):
    """Likelihood maximization for each of S (9, 4) count tables, all in one loop.

    Each sample starts from its linear inversion, moved towards the maximum
    by ``_warm_up``; see ``_maximize``.
    """
    counts = coincidences.reshape(coincidences.shape[0], 36)
    return _maximize(counts, _start(_warm_up(counts, _linear_inversion(coincidences))))


def _maximize(counts: np.ndarray, params: np.ndarray):
    """Damped Newton maximization of the log-likelihood of (S, 36) counts from (S, 16) params.

    ``_ascend`` starts it from the warm-up's states, where most samples
    need a few Newton iterations; it works from any start.

    Each sample takes its own Newton steps on the 16 parameters of the
    lower-triangular factor, renormalized to unit length (the
    log-likelihood does not depend on their scale).  The step s solves
    (-H + (lift + lambda N) 1) s = g, where the lift, twice the size of
    -H's most negative eigenvalue or 0 (``_lift``), leaves every eigenvalue of
    the shifted matrix at least |lambda_min| + lambda N, so the step always
    climbs; where -H is positive semidefinite it is the plain damped Newton
    step.  It is taken when the log-likelihood, compared through exact
    differences of the quadratic forms, does not fall.  lambda shrinks by 3
    on a taken step and grows by 4 on a refused one.  Where the Newton
    model promises nothing while the certificate is large, the sample sits
    on a saddle of the parameterization, and ``_escape`` moves it.

    A sample's state, certificate, derivatives and lift are computed only
    after its parameters move (at the start, after a taken step or an
    escape), the derivatives and lift only once the certificate shows the
    sample still needs a step; a refused step solves again with them and
    the new damping.

    A sample stops once its certificate is at most ``CERTIFICATE_TOL`` times
    its number of counts.  One still uncertified after ``MAX_ITERATIONS``
    iterations, or whose escape finds no better state, has not converged.

    Returns rho (S, 4, 4), log-likelihood (S,), the certificate (S,) at those
    states, Newton iterations (S,) and a converged flag (S,).
    """
    n_samples = counts.shape[0]
    n_total = counts.sum(axis=1)
    params = params.copy()
    hp, q = _quadratic_forms(params)
    logl = _log_likelihood(counts, q, np.square(params).sum(axis=1))
    damping = np.full(n_samples, _DAMPING_START)
    iterations = np.zeros(n_samples, dtype=int)
    converged = np.zeros(n_samples, dtype=bool)
    stuck = np.zeros(n_samples, dtype=bool)
    # At each sample's current parameters: its state, certificate and R's top
    # eigenvector, and its gradient, negated Hessian and that Hessian's lift;
    # `moved` marks the samples whose parameters changed since these were
    # last computed.
    rho = np.empty((n_samples, 4, 4), dtype=complex)
    certificates = np.empty(n_samples)
    top = np.empty((n_samples, 4), dtype=complex)
    grad = np.empty((n_samples, 16))
    neg_hess = np.empty((n_samples, 16, 16))
    lift = np.empty(n_samples)
    moved = np.ones(n_samples, dtype=bool)
    active = np.arange(n_samples)
    while active.size:
        fresh = active[moved[active]]
        if fresh.size:
            rho[fresh] = _state(params[fresh])
            certificates[fresh], top[fresh] = _certificate(counts[fresh], rho[fresh])
        done = certificates[active] <= CERTIFICATE_TOL * n_total[active]
        converged[active[done]] = True
        active = active[~done & ~stuck[active] & (iterations[active] < MAX_ITERATIONS)]
        if not active.size:
            break
        fresh = active[moved[active]]
        if fresh.size:
            grad[fresh], hess = _derivatives(params[fresh], counts[fresh], hp[fresh], q[fresh])
            neg_hess[fresh] = -hess
            lift[fresh] = _lift(neg_hess[fresh])
            moved[fresh] = False
        shift = lift[active] + damping[active] * n_total[active]
        steps = _newton_step(grad[active], neg_hess[active], shift)
        gain = (grad[active] * steps).sum(axis=1)
        stalled = gain < _STALL * certificates[active] ** 2 / n_total[active]
        for s in active[stalled]:
            escaped = _escape(counts[s], rho[s], top[s], logl[s])
            if escaped is None:
                stuck[s] = True
                continue
            params[s], hp[s], q[s], logl[s] = escaped
            moved[s] = True
            damping[s] = _DAMPING_START
        newton = active[~stalled]
        trial = params[newton] + steps[~stalled]
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        trial_hp, trial_q = _quadratic_forms(trial)
        # q' - q = (p' - p)^T H (p' + p) keeps the digits a difference of logs loses
        step = trial - params[newton]
        dq = ((trial_hp + hp[newton]) @ step[..., None])[..., 0]
        dnorm = (step * (trial + params[newton])).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(counts[newton] > 0, counts[newton] * np.log1p(dq / q[newton]), 0.0)
            norm_ratio = np.log1p(dnorm / np.square(params[newton]).sum(axis=1))
        rise = terms.sum(axis=1) - n_total[newton] * norm_ratio
        up = np.isfinite(rise) & (rise >= 0.0)
        taken = newton[up]
        params[taken], hp[taken], q[taken] = trial[up], trial_hp[up], trial_q[up]
        logl[taken] += rise[up]
        moved[taken] = True
        damping[newton] *= np.where(up, 1.0 / 3.0, 4.0)
        iterations[active] += 1
    return rho, logl, certificates, iterations, converged


def _poisson_draws(means: np.ndarray, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, len(means)) Poisson draws around ``means``.

    Sample k draws from its own Philox stream, the k-th child of
    ``SeedSequence(seed)``, in one call over all the means.
    """
    streams = np.random.SeedSequence(seed).spawn(n_samples)
    return np.stack(
        [np.random.Generator(np.random.Philox(stream)).poisson(means) for stream in streams]
    )


def _resampled_coincidences(table: CountTable, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, 9, 4) coincidences of Poisson resamples of every entry of the table.

    Entries are drawn in sorted key order; a coincidence cell the table
    lacks reads 0.
    """
    keys = sorted(table.counts)
    position = {key: i for i, key in enumerate(keys)}
    cells = [position.get((s, p), len(keys)) for s in SETTINGS for p in COINCIDENCE_PATTERNS]
    draws = _poisson_draws(np.array([table.counts[k] for k in keys]), n_samples, seed)
    padded = np.concatenate([draws, np.zeros((n_samples, 1), dtype=draws.dtype)], axis=1)
    return padded[:, cells].reshape(n_samples, 9, 4).astype(float)


def check_monte_carlo(n_samples: int, seed: int | None) -> None:
    """Raise ``ValueError`` unless ``n_samples`` is 0, or at least 2 with a ``seed``.

    A spread needs two samples, and resampling is reproducible only when seeded.
    """
    if n_samples < 0 or n_samples == 1:
        raise ValueError(f"need 0 or at least two Monte Carlo samples, got {n_samples}")
    if n_samples and seed is None:
        raise ValueError("Monte Carlo resampling is stochastic: a seed is required")


def mle_reconstruct(table: CountTable, n_samples: int = 0, seed: int | None = None) -> MleResult:
    """Maximum-likelihood density matrix from coincidence counts, and of its resamples.

    ``_WARM_UP_STEPS`` diluted RrhoR steps from the eigenvalue-floored
    linear inversion, then damped Newton iteration on the 16 parameters of
    the lower-triangular factor until the certificate shows the
    log-likelihood within ``CERTIFICATE_TOL`` times the number of counts of
    its maximum; ``iterations`` counts the Newton iterations only.  With
    ``n_samples`` (0, or at least 2) and a ``seed``, every count is also
    Poisson-resampled that many times, and the resampled tables are
    reconstructed in the same batch as the observed one, which is its row
    0; a resample without counts or without a certified maximum is a Monte
    Carlo failure.
    """
    check_monte_carlo(n_samples, seed)
    coincidences = table.coincidence_matrix()
    if coincidences.sum() == 0:
        raise ValueError("all coincidence counts are zero; cannot reconstruct")
    resampled = (
        _resampled_coincidences(table, n_samples, seed) if n_samples else np.empty((0, 9, 4))
    )
    resampled = resampled[resampled.sum(axis=(1, 2)) > 0]
    batch = np.concatenate([coincidences[None], resampled])
    rho, logl, certificate, iterations, converged = _ascend(batch)
    if not converged[0]:
        raise ConvergenceError(
            f"likelihood maximization not certified after {iterations[0]} iterations "
            f"(certificate {certificate[0]:.3e}, last log-likelihood {logl[0]:.6f})"
        )
    kept = converged[1:]
    return MleResult(
        rho=rho[0],
        log_likelihood=float(logl[0]),
        iterations=int(iterations[0]),
        certificate=float(certificate[0]),
        samples=rho[1:][kept],
        sample_certificates=certificate[1:][kept],
        n_failures=n_samples - int(kept.sum()),
    )


# Columns Phi+, i Phi-, i Psi+, Psi-: every real unit vector in this basis is
# a maximally entangled state, and local unitaries act as real rotations.
_MAGIC_BASIS = np.array(
    [[1.0, 0.0, 0.0, 1.0], [1.0j, 0.0, 0.0, -1.0j], [0.0, 1.0j, 1.0j, 0.0], [0.0, 1.0, -1.0, 0.0]]
).T / math.sqrt(2.0)


def optimize_local_fidelity(
    rho: np.ndarray,
) -> tuple[float | np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Maximize <phi+|(U1 x U2) rho (U1 x U2)†|phi+> over local unitaries.

    The maximum is the fully entangled fraction: the largest eigenvalue of
    Re(M† rho M) in the magic basis M.  Its eigenvector v gives the
    maximally entangled state psi = M v that rho overlaps most.  With
    C = psi.reshape(2, 2), psi = (1 x sqrt(2) C^T) phi+, so U1 = 1 and
    U2 = (sqrt(2) C^T)† = sqrt(2) conj(C) map psi onto phi+.  Returns the
    fidelity and the per-arm unitaries: for a 4x4 state a float and two 2x2
    matrices, for a (..., 4, 4) stack an array of fidelities and two
    (..., 2, 2) stacks.
    """
    rho = check_density_matrix(rho)
    m = _MAGIC_BASIS.conj().T @ rho @ _MAGIC_BASIS
    eigs, vecs = np.linalg.eigh((m + _dagger(m)).real / 2.0)
    psi = (_MAGIC_BASIS @ vecs[..., -1:])[..., 0]
    u2 = math.sqrt(2.0) * psi.reshape(psi.shape[:-1] + (2, 2)).conj()
    u1 = np.broadcast_to(np.eye(2, dtype=complex), u2.shape).copy()
    return _per_state(eigs[..., -1]), (u1, u2)


@dataclass(frozen=True)
class MonteCarloResult:
    """Spread of one functional; ``certificate`` is the largest over the kept samples."""

    mean: float
    std: float
    n_samples: int
    n_failures: int
    certificate: float


def monte_carlo_report(
    result: MleResult,
    functionals: Mapping[str, Callable[[np.ndarray], np.ndarray]],
) -> dict[str, MonteCarloResult]:
    """Propagate Poissonian count errors through reconstruction.

    Reduces the resampled reconstructions of ``mle_reconstruct``: every
    functional is called once, on the (K, 4, 4) stack of the K certified
    states, and returns their K values.  Fewer than two certified states
    raise ``ConvergenceError``.
    """
    kept = len(result.samples)
    if kept < 2:
        raise ConvergenceError(
            f"only {kept} of {kept + result.n_failures} Monte Carlo samples reconstructed"
        )
    certificate = float(result.sample_certificates.max())
    report = {}
    for name, fn in functionals.items():
        values = np.asarray(fn(result.samples), dtype=float)
        if values.shape != (kept,):
            raise ValueError(
                f"functional {name!r} returned shape {values.shape} for {kept} states"
            )
        report[name] = MonteCarloResult(
            mean=float(values.mean()),
            std=float(values.std(ddof=1)),
            n_samples=kept,
            n_failures=result.n_failures,
            certificate=certificate,
        )
    return report
