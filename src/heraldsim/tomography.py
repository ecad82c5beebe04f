"""Two-qubit tomography: measurement simulation, MLE reconstruction, errors.

Nine Pauli settings (sigma_i on arm 1, sigma_j on arm 2) are measured in
the coincidence basis.  Reconstruction maximizes the Poissonian likelihood
of the observed coincidence counts, with the per-setting intensity profiled
out (the likelihood reduces to the multinomial form), by a few diluted
RrhoR steps on rho, then damped Newton steps in a chart of the states of
the maximum's rank, and certifies the maximum it reaches.  Uncertainties
come from a Monte Carlo over Poisson resamples of the coincidence matrix:
the observed matrix and its resamples are maximized together, as one batch
whose row 0 is the point estimate.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .elements import ANALYSIS_BASES, ANALYSIS_SETTINGS
from .metrics import PSD_TOL, _dagger, _per_state, check_density_matrix

SETTINGS: tuple[tuple[str, str], ...] = tuple(
    (a, b) for a in ANALYSIS_SETTINGS for b in ANALYSIS_SETTINGS
)

# (n1H, n1V, n2H, n2V) of one detected photon per output arm, in the two-qubit basis order HH, HV, VH, VV.
COINCIDENCE_PATTERNS = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))

CSV_HEADER = ("ratio", "setting_1", "setting_2", "n1H", "n1V", "n2H", "n2V", "count")

# A reconstruction stops once its certificate, an upper bound on how far its
# log-likelihood is below the maximum, is at most CERTIFICATE_TOL times its
# number of counts N.  The certificate is an eigenvalue of a matrix of scale
# N, so its rounding grows with N, and a fixed bound would not be reachable
# on large tables.
CERTIFICATE_TOL = 1e-10
MAX_ITERATIONS = 1_000
# The warm-up starts the Newton iteration close to its maximum, where a small
# damping lets the first steps go most of the way (from a cold start, 1e-2
# takes fewer iterations).
_DAMPING_START = 1e-3
# A sample's first chart leaves out its eigenvalues below _FACE_THRESHOLD that
# the likelihood pulls to zero; a step that leaves an eigenvalue at most _DROP
# (the state's trace being 1) drops it from the face.
_FACE_THRESHOLD = 1e-3
_DROP = 1e-12
# A sample whose R has a Rayleigh quotient above (1 + _UNCERTIFIABLE) N cannot
# pass the certificate: the margin of 2 CERTIFICATE_TOL covers the rounding of
# the quotient and of lambda_max(R), a few ulps of N.
_UNCERTIFIABLE = 3 * CERTIFICATE_TOL
# Diluted RrhoR steps, and their dilution e, before the Newton iteration.  They
# start from the linear inversion floored at _WARM_UP_FLOOR: an RrhoR step
# grows an eigenvalue by a bounded factor, so one floored lower takes more
# steps to reach a maximum inside the state space.
_WARM_UP_STEPS = 15
_WARM_UP_DILUTION = 10.0
_WARM_UP_FLOOR = 1e-3


class ConvergenceError(RuntimeError):
    """Raised when the likelihood maximization ends without a certificate."""


# The 36 coincidence projectors are rank one, Pi_k = v_k v_k†: their vectors
# (36, 4) and the projectors flattened to rows, the settings in SETTINGS
# order, each as its HH, HV, VH, VV ports.
_VECTORS = np.array([
    np.kron(va, vb) for a, b in SETTINGS for va in ANALYSIS_BASES[a] for vb in ANALYSIS_BASES[b]
])
_PROJECTORS = np.stack([np.outer(v, v.conj()) for v in _VECTORS]).reshape(36, 16)


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
    """Draw multinomial coincidence counts for each setting; a setting given twice raises ValueError."""
    if events_per_setting < 1:
        raise ValueError("events_per_setting must be at least 1")
    rho = check_density_matrix(rho)
    settings = [tuple(setting) for setting in settings]
    repeated = [setting for setting, n in Counter(settings).items() if n > 1]
    if repeated:
        raise ValueError(f"duplicate entry for setting {repeated[0]}")
    counts = {}
    streams = np.random.SeedSequence(seed).spawn(len(settings))
    for setting, stream in zip(settings, streams):
        rng = np.random.Generator(np.random.Philox(stream))
        probs = expected_coincidences(rho, setting)
        draws = rng.multinomial(events_per_setting, probs / probs.sum())
        counts.update(((setting, pattern), n) for pattern, n in zip(COINCIDENCE_PATTERNS, draws.tolist()))
    return CountTable(counts)


def ingest_counts(path) -> CountTable:
    """Read a count table CSV (header ratio,setting_1,setting_2,n1H,n1V,n2H,n2V,count).

    Checks all rows at once: known settings, non-negative patterns and
    counts, no duplicate entries.
    """
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines:
        raise ValueError(f"{path}: empty counts file")
    if tuple(h.strip() for h in lines[0]) != CSV_HEADER:
        raise ValueError(f"{path}: bad header {lines[0]}")
    rows = []  # (ratio, setting, pattern, count)
    for lineno, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields")
        ratio, s1, s2, *rest = [f.strip() for f in row]
        try:
            n1h, n1v, n2h, n2v, count = map(int, rest)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer field") from None
        rows.append((ratio, (s1, s2), (n1h, n1v, n2h, n2v), count))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    ratios, settings, patterns, counts = zip(*rows)
    if not set(settings) <= set(SETTINGS):
        raise ValueError(f"unknown setting {next(s for s in settings if s not in SETTINGS)}")
    if min(map(min, patterns)) < 0:
        raise ValueError(f"bad pattern {next(p for p in patterns if min(p) < 0)}")
    if min(counts) < 0:
        raise ValueError(f"negative count {min(counts)}")
    keys = list(zip(settings, patterns))
    table = CountTable(dict(zip(keys, counts)))
    if len(table.counts) < len(keys):
        key = next(k for k, n in Counter(keys).items() if n > 1)
        raise ValueError(f"duplicate entry for {key}")
    if len(set(ratios)) == 1:
        table.ratio = ratios[0]
    return table


def write_counts(table: CountTable, path) -> None:
    """Write a count table in the ingestible CSV format (rows sorted)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for (setting, pattern), count in sorted(table.counts.items()):
            writer.writerow([table.ratio or "", *setting, *pattern, count])


def _psd_floor(rho: np.ndarray, floor: float) -> np.ndarray:
    """Project onto strictly positive states (eigenvalue floor, retrace)."""
    eigs, vecs = np.linalg.eigh((rho + _dagger(rho)) / 2.0)
    rho = (vecs * np.clip(eigs, floor, None)[..., None, :]) @ _dagger(vecs)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


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


def _log_likelihood(counts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_k c_k log q_k: each sample's multinomial log-likelihood over the settings.

    Outcomes without counts add nothing, whatever their q_k.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, counts * np.log(q), 0.0)
    return terms.sum(axis=-1)


def _newton_step(grad: np.ndarray, neg_hess: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """s with (-H + shift 1) s = g for (S, 16) gradients, (S, 16, 16) -H and (S,) shifts.

    The right-hand side goes in as (S, 16, 1): numpy 1 reads an (S, 16) one
    as a stack of vectors, numpy 2 as one (S, 16) matrix.
    """
    shifted = neg_hess + shift[:, None, None] * np.eye(16)
    return np.linalg.solve(shifted, grad[..., None])[..., 0]


def _probabilities(rho: np.ndarray) -> np.ndarray:
    """tr(Pi_k rho) for the 36 projectors, (..., 36), from (..., 4, 4) states."""
    return (rho.reshape(rho.shape[:-2] + (1, 16)).view(float) @ _PROJECTORS_REAL_T)[..., 0, :]


def _ratio_operator(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """R = sum_k (c_k / p_k) Pi_k (..., 4, 4), outcomes without counts left out."""
    weights = np.divide(counts, probs, out=np.zeros_like(probs), where=counts > 0)
    r = (weights[..., None, :] @ _PROJECTORS_REAL).view(complex)
    return r.reshape(probs.shape[:-1] + (4, 4))


# The chart of the rank-r states around rho = U diag(lam) U†, whose face is
# spanned by the last r columns of U (lam is 0 on the others and sums to 1):
# in the basis U, rho(X, Z) = M X M† / tr(M X M†), M = (Z; 1), where X =
# diag(lam) + D is Hermitian on the face and Z maps the face out of it
# (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds,
# 2008).  Writing K for Z in place, (4, 4), the state moves by
# Delta = D + K X + X K† + K X K† and its trace by tr(K X K†).
#
# 16 parameter slots: the real parts of the 6 entries (p, q) above the
# diagonal, their imaginary parts, then the diagonal entries 0, 1, 2, each
# less entry 3 (D stays traceless), then one idle slot.  At rank r an entry
# belongs to K when p < 4 - r <= q, to D (with its mirror entry) when
# p >= 4 - r, and is idle otherwise; a diagonal slot belongs to D when
# p >= 4 - r.  That gives the chart its r^2 - 1 + 2 r (4 - r) parameters.
_PAIR_P, _PAIR_Q = np.triu_indices(4, 1)
_SLOT_P = np.concatenate([_PAIR_P, _PAIR_P, [0, 1, 2, 3]])
_SLOT_Q = np.concatenate([_PAIR_Q, _PAIR_Q, [3, 3, 3, 3]])
# B_i: slot i's Hermitian generator, f e_pq + conj(f) e_qp for an entry (p, q)
# of phase f and e_pp - e_33 for a diagonal slot; D_i = B_i, and K_i is its
# entry (p, q) alone.
_SLOT_B = np.zeros((16, 4, 4), dtype=complex)
for _i, (_p, _q) in enumerate(zip(_SLOT_P[:12], _SLOT_Q[:12])):
    _SLOT_B[_i, _p, _q] = (1.0, 1.0j)[_i // 6]
    _SLOT_B[_i, _q, _p] = (1.0, -1.0j)[_i // 6]
_SLOT_B[np.arange(12, 15), np.arange(3), np.arange(3)] = 1.0
_SLOT_B[12:15, 3, 3] = -1.0
_SLOT_K = np.triu(_SLOT_B, 1)
# Which slots belong to K and to D, indexed by rank (row 0 is never read).
_OUTSIDE = 4 - np.arange(5)[:, None]
_IN_K = ((np.arange(16) < 12) & (_SLOT_P < _OUTSIDE) & (_SLOT_Q >= _OUTSIDE)).astype(float)
_IN_D = ((np.arange(16) < 15) & (_SLOT_P >= _OUTSIDE)).astype(float)
# Idle slots carry a unit diagonal in the negated Hessian, so that one (16, 16)
# solve serves every rank and leaves them at 0.
_IDLE = (1.0 - _IN_K - _IN_D)[:, :, None] * np.eye(16)
# Each rank's face and the block off the face on its left (rows off, columns on).
_FACE = (np.arange(4) >= _OUTSIDE)[:, :, None] & (np.arange(4) >= _OUTSIDE)[:, None, :]
_BESIDE = (np.arange(4) < _OUTSIDE)[:, :, None] & (np.arange(4) >= _OUTSIDE)[:, None, :]


def _chart_forms():
    """Gather indices and signs (5, 256), and marks (5, 16, 16), of the weighted second derivatives.

    The log-likelihood's second derivatives at the chart's origin, summed
    with the weights w_k, are 2 Re[tr(R K_i D_j) + tr(R K_j D_i) + tr((R - N)
    K_i diag(lam) K_j†)] with R in the basis U.  Re tr(R K_i B_j), and
    Re tr(R K_i e_q e_q† K_j†) where slots i and j share their column q, are
    each one part of one entry of R times a sign, or 0.  At each rank, entry
    (i, j) of the R part of the sum is one of them: the first for i in K and
    j in D, its mirror for i in D and j in K, and the second, times lam_q, for
    both in K (marked).  So each rank's table is gathered from R's 16 (real,
    imaginary) pairs.
    """
    def gathered(m):  # the one part of one entry of R, and its sign, that Re tr(R m) reads
        flat = np.swapaxes(m, -1, -2).reshape(256, 16)
        parts = np.stack([flat.real, -flat.imag], axis=-1).reshape(256, 32)
        index = np.abs(parts).argmax(axis=1)
        return index, parts[np.arange(256), index]

    cross = gathered(_SLOT_K[:, None] @ _SLOT_B[None])
    second = gathered(_SLOT_K[:, None] @ _dagger(_SLOT_K)[None])
    same_column = (_SLOT_Q[:, None] == _SLOT_Q).ravel()
    in_kd = (_IN_K[:, :, None] * _IN_D[:, None, :]).reshape(5, 256) > 0
    in_dk = np.swapaxes(in_kd.reshape(5, 16, 16), 1, 2).reshape(5, 256)
    in_kk = (_IN_K[:, :, None] * _IN_K[:, None, :]).reshape(5, 256) > 0
    mirror = np.arange(256).reshape(16, 16).T.ravel()
    gather = np.where(in_kd, cross[0], np.where(in_dk, cross[0][mirror], second[0]))
    signs = np.where(in_kd, cross[1], np.where(in_dk, cross[1][mirror], second[1] * same_column))
    return gather, signs * (in_kd | in_dk | in_kk), in_kk.reshape(5, 16, 16)


_CHART_GATHER, _CHART_SIGNS, _CHART_KK = _chart_forms()


def _chart_state(basis: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """rho = U diag(lam) U† / tr, Hermitian to rounding, from (S, 4, 4) bases and (S, 4) lam."""
    rho = (basis * lam[:, None, :]) @ _dagger(basis)
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return (rho + _dagger(rho)) / 2.0


# Re and Im of a 4x4 matrix's 6 entries above the diagonal, then its first
# three diagonal entries, among its 16 (real, imaginary) pairs.
_HERMITIAN_PARTS = np.concatenate([
    2 * (4 * _PAIR_P + _PAIR_Q), 2 * (4 * _PAIR_P + _PAIR_Q) + 1, 10 * np.arange(3)])


def _chart_products(basis: np.ndarray) -> np.ndarray:
    """(S, 16, 36) products of u_k = U† v_k: u_k† B_i u_k for the 15 slots, then |u_3|^2.

    2 Re and -2 Im of conj(u_p) u_q for the entries above the diagonal, then
    |u_p|^2 - |u_3|^2 for p = 0, 1, 2, and |u_3|^2: for Hermitian A, u_k† A u_k
    is the dot product of A's ``_HERMITIAN_PARTS`` and trace with them.
    """
    u = _dagger(basis) @ _VECTORS.T
    pairs = np.take(u, _PAIR_P, axis=1).conj() * np.take(u, _PAIR_Q, axis=1)
    square = np.square(u.real) + np.square(u.imag)
    products = np.empty((len(basis), 16, 36))
    np.multiply(pairs.real, 2.0, out=products[:, :6])
    np.multiply(pairs.imag, -2.0, out=products[:, 6:12])
    np.subtract(square[:, :3], square[:, 3:], out=products[:, 12:15])
    products[:, 15] = square[:, 3]
    return products


def _chart_derivatives(counts, probs, products, lam, rank, ratio):
    """Gradient (S, 16) and Hessian (S, 16, 16) of the log-likelihood at the chart's origin.

    (S, 36) counts and probabilities, the products of ``_chart_products``,
    the face's eigenvalues (S, 4), ranks (S,) and R in the basis U,
    (S, 4, 4).  Along slot i, q_k first changes by u_k† B_i u_k, times lam_q
    for a slot of K (u_k† (K_i diag(lam) + diag(lam) K_i†) u_k), and the
    trace by nothing; with w_k = c_k / q_k the gradient is sum_k w_k dq_k,
    and the Hessian adds to the weighted second derivatives
    (``_chart_forms``) - sum_k (c_k / q_k^2) dq_k dq_k^T.  Idle slots have
    zero rows.
    """
    n_samples = len(counts)
    lam_q = lam[:, _SLOT_Q]
    jac = products * (_IN_D[rank] + lam_q * _IN_K[rank])[:, :, None]
    positive = counts > 0
    weights = np.divide(counts, probs, out=np.zeros_like(probs), where=positive)
    curvature = np.divide(weights, probs, out=np.zeros_like(probs), where=positive)
    grad = (jac @ weights[:, :, None])[..., 0]
    # the cross terms read only entries of R off its diagonal, so one gather from
    # R - N, which the terms of two slots of K need, serves all
    shifted = ratio - counts.sum(axis=1)[:, None, None] * np.eye(4)
    forms = np.take(shifted.view(float), _CHART_GATHER[rank] + 32 * np.arange(n_samples)[:, None])
    forms *= _CHART_SIGNS[rank]
    forms = forms.reshape(n_samples, 16, 16)
    np.multiply(forms, lam_q[:, :, None], out=forms, where=_CHART_KK[rank])
    return grad, 2.0 * forms - (jac * curvature[:, None, :]) @ np.swapaxes(jac, 1, 2)


def _chart_step(steps, lam, rank, products):
    """The chart's move by (S, 16) steps: dq (S, 36), the trace's change (S,) and the moved states.

    A step that would take a positive diagonal entry of X below zero is
    shortened to end where the first of them reaches zero.  One that leaves
    X with an eigenvalue at most ``_DROP`` (one it took to zero, or to
    rounding) drops it: the moved state is the step's with those
    eigenvalues zeroed, and its face is spanned by the others.  The moved
    states come as their eigenvectors in the basis U and eigenvalues, those
    off the face zeroed.
    """
    growth = np.concatenate([steps[:, 12:15], -steps[:, 12:15].sum(axis=1, keepdims=True)], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where((lam > 0.0) & (growth < -lam), lam / -growth, 1.0).min(axis=1)
    b = ((steps * reach[:, None])[:, None, :] @ _SLOT_B.reshape(16, 16))[:, 0].reshape(-1, 4, 4)
    d, k = b * _FACE[rank], b * _BESIDE[rank]
    diagonal = lam[:, None, :] * np.eye(4)
    kx = k @ (d + diagonal)
    delta = d + kx + _dagger(kx) + kx @ _dagger(k)
    vals, vecs = np.linalg.eigh(delta + diagonal)
    dropped = vals <= _DROP
    delta -= (vecs * np.where(dropped, vals, 0.0)[:, None, :]) @ _dagger(vecs)
    trace = np.trace(delta, axis1=1, axis2=2).real
    parts = np.concatenate(
        [delta.reshape(-1, 16).view(float)[:, _HERMITIAN_PARTS], trace[:, None]], axis=1)
    return (parts[:, None, :] @ products)[:, 0], trace, vecs, np.where(dropped, 0.0, vals)


def _enter_face(counts, rho):
    """Each state's first chart, and the log-likelihood of the state in it.

    (S, 36) counts and (S, 4, 4) states of trace 1.  An eigenvalue below
    ``_FACE_THRESHOLD`` whose eigenvector v has <v|R|v> < N, so that the
    log-likelihood falls as weight moves onto v, lies off the face and is
    zeroed, where zeroing them does not lower the log-likelihood; elsewhere
    the state enters its rank-4 chart.  Negative eigenvalues read 0.
    Returns the basis, its columns off the face first, the eigenvalues in
    that order (zero off the face, summing to 1), the rank and the
    log-likelihood.
    """
    vals, vecs = np.linalg.eigh(rho)
    probs = _probabilities(rho)
    along = (vecs.conj() * (_ratio_operator(counts, probs) @ vecs)).sum(axis=1).real  # <v|R|v>
    off = (vals < _FACE_THRESHOLD) & (along < counts.sum(axis=1)[:, None])
    overlaps = np.square(np.abs(_VECTORS @ vecs.conj()))  # <v|Pi_k|v>, (S, 36, 4)

    def rise(kept):
        dq = (overlaps @ (kept - vals)[:, :, None])[..., 0]
        return _rise(counts, probs, dq, (kept - vals).sum(axis=1), vals.sum(axis=1))

    kept = np.maximum(vals, 0.0)
    onto_face = rise(np.where(off, 0.0, kept))
    up = np.isfinite(onto_face) & (onto_face >= 0.0)
    off &= up[:, None]
    logl = _log_likelihood(counts, probs) + np.where(up, onto_face, rise(kept))
    order = np.argsort(~off, axis=1, kind="stable")
    basis = np.take_along_axis(vecs, order[:, None, :], axis=2)
    kept = np.take_along_axis(np.where(off, 0.0, kept), order, axis=1)
    return basis, kept / kept.sum(axis=1, keepdims=True), 4 - off.sum(axis=1), logl


def _reopen(basis, rank, ratio, n_total):
    """Reopen each face that is too small in the direction where it is.

    (S, 4, 4) bases, ranks and R in the bases.  Where R's top direction off
    the face has <v|R|v> > N, the columns off the face are rotated so that
    the last of them is that direction, and it joins the face with
    eigenvalue 0.
    Returns the bases, ranks and R in the new bases.
    """
    outside = np.arange(4) < (4 - rank)[:, None]
    # no eigenvalue of R off the face exceeds its largest absolute row sum there
    sums = (np.abs(ratio) * outside[:, None, :]).sum(axis=2)
    rows = np.flatnonzero(sums.max(axis=1, initial=0.0, where=outside) > n_total)
    if not rows.size:
        return basis, rank, ratio
    outside = outside[rows]
    pad = np.trace(ratio[rows], axis1=1, axis2=2).real + 1.0  # above every eigenvalue off the face
    vals, vecs = np.linalg.eigh(
        np.where(outside[:, :, None] & outside[:, None, :], ratio[rows], 0.0)
        + np.where(outside, 0.0, pad[:, None])[:, None, :] * np.eye(4))
    grow = vals[np.arange(rows.size), 3 - rank[rows]] > n_total[rows]
    rows, outside, vecs = rows[grow], outside[grow], vecs[grow]
    rotation = np.where(outside[:, None, :], vecs * outside[:, :, None], np.eye(4))
    basis, rank, ratio = basis.copy(), rank.copy(), ratio.copy()
    basis[rows] = basis[rows] @ rotation
    ratio[rows] = _dagger(rotation) @ ratio[rows] @ rotation
    rank[rows] += 1
    return basis, rank, ratio


def _rise(counts, q, dq, dnorm, norm):
    """sum_k c_k log(1 + dq_k / q_k) - N log(1 + dnorm / norm): a move's rise in log-likelihood.

    From the exact differences dq and dnorm, it keeps the digits a
    difference of logs loses; outcomes without counts add nothing.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(counts > 0, counts * np.log1p(dq / q), 0.0)
        return terms.sum(axis=1) - counts.sum(axis=1) * np.log1p(dnorm / norm)


class _Ascent(NamedTuple):
    """What ``_maximize`` returns for each sample.

    The state, log-likelihood and certificate, the Newton iterations,
    whether it converged and the rank of the chart it ended in.
    """

    rho: np.ndarray
    log_likelihood: np.ndarray
    certificate: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    rank: np.ndarray


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


def _ascend(coincidences: np.ndarray) -> _Ascent:
    """Likelihood maximization for each of S (9, 4) count tables, all in one loop.

    Each sample starts from its linear inversion, moved towards the maximum
    by ``_warm_up``; see ``_maximize``.
    """
    counts = coincidences.reshape(coincidences.shape[0], 36)
    return _maximize(counts, _warm_up(counts, _linear_inversion(coincidences)))


def _maximize(counts: np.ndarray, rho: np.ndarray) -> _Ascent:
    """Damped Newton maximization of the log-likelihood of (S, 36) counts from (S, 4, 4) states.

    ``_ascend`` starts it from the warm-up's states, where most samples
    need a few Newton iterations; it works from any states of finite
    log-likelihood.

    Each sample takes Newton steps in a chart of the states of its face's
    rank: first around its start (``_enter_face``), then rebuilt around the
    state's eigenvectors after every taken step.  A step that takes an
    eigenvalue to zero drops it from the face (``_chart_step``); a face
    whose R exceeds N in a direction off it is reopened there
    (``_reopen``).  At rank 4 the chart is linear and the log-likelihood
    concave.  The certificate is over the whole state space, so a wrong
    face only delays it.

    The step s solves (-H + lambda N 1) s = g.  A step is taken when the
    log-likelihood, compared through exact differences, does not fall;
    lambda shrinks by 3 on a taken step and grows by 4 on a refused one.
    -H is almost always positive semidefinite; where it is not, refused
    steps grow lambda N until it exceeds -H's most negative eigenvalue, and
    the shifted matrix, positive definite, gives a step that climbs.

    A sample stops once its certificate is at most ``CERTIFICATE_TOL`` times
    its number of counts; one still uncertified after ``MAX_ITERATIONS``
    iterations has not converged.  The working arrays hold the live samples
    alone: each pass recomputes their states, R and derivatives, whether
    the last step was taken or refused, and a sample that stops writes its
    outputs once and leaves them.  R in the chart's basis, which
    ``_reopen`` reads, has Rayleigh quotients of R on its diagonal, so its
    largest diagonal entry bounds lambda_max(R) from below.  Where that
    bound exceeds N by more than ``_UNCERTIFIABLE`` times N, far beyond the
    bound's and ``eigvalsh``'s rounding, the certificate cannot pass and is
    not computed; every other sample, and every sample that stops, gets
    its exact certificate.
    """
    n_samples = counts.shape[0]
    # each sample is in the chart of the rank-r states around basis diag(lam) basis†
    basis, lam, rank, logl = _enter_face(counts, rho)
    out = _Ascent(
        np.empty((n_samples, 4, 4), dtype=complex), np.empty(n_samples), np.empty(n_samples),
        np.empty(n_samples, dtype=int), np.empty(n_samples, dtype=bool), np.empty(n_samples, dtype=int))
    rows = np.arange(n_samples)  # each live sample's row of the batch
    n_total = counts.sum(axis=1)
    damping = np.full(n_samples, _DAMPING_START)
    iterations = np.zeros(n_samples, dtype=int)
    while True:
        rho = _chart_state(basis, lam)
        probs = _probabilities(rho)
        r = _ratio_operator(counts, probs)
        ratio = _dagger(basis) @ r @ basis
        bound = np.diagonal(ratio, axis1=1, axis2=2).real.max(axis=1)
        capped = iterations >= MAX_ITERATIONS
        exact = capped | (bound - n_total <= _UNCERTIFIABLE * n_total)
        certificate = np.full(rows.size, np.inf)
        if exact.any():
            certificate[exact] = np.linalg.eigvalsh(r[exact])[:, -1] - n_total[exact]
        done = certificate <= CERTIFICATE_TOL * n_total
        stop = done | capped
        if stop.any():
            at = rows[stop]
            out.rho[at], out.log_likelihood[at], out.certificate[at] = (
                rho[stop], logl[stop], certificate[stop])
            out.iterations[at], out.converged[at], out.rank[at] = (
                iterations[stop], done[stop], rank[stop])
            live = np.flatnonzero(~stop)
            if not live.size:
                return out
            rows, counts, n_total, basis, lam, rank, logl, damping, iterations, probs, ratio = (
                x.take(live, axis=0) for x in (
                    rows, counts, n_total, basis, lam, rank, logl, damping, iterations, probs, ratio))
        basis, rank, ratio = _reopen(basis, rank, ratio, n_total)
        products = _chart_products(basis)
        grad, hess = _chart_derivatives(counts, probs, products, lam, rank, ratio)
        steps = _newton_step(grad, _IDLE[rank] - hess, damping * n_total)
        dq, dnorm, vecs, vals = _chart_step(steps, lam, rank, products)
        rise = _rise(counts, probs, dq, dnorm, lam.sum(axis=1))
        up = np.isfinite(rise) & (rise >= 0.0)
        basis = np.where(up[:, None, None], basis @ vecs, basis)
        lam = np.divide(vals, vals.sum(axis=1, keepdims=True), out=lam, where=up[:, None])
        rank = np.where(up, (vals > 0.0).sum(axis=1), rank)
        logl = np.where(up, logl + rise, logl)
        damping = damping * np.where(up, 1.0 / 3.0, 4.0)
        iterations = iterations + 1


def _resampled_coincidences(coincidences: np.ndarray, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, 9, 4) Poisson resamples of a (9, 4) coincidence matrix, as floats.

    One Philox stream on ``SeedSequence(seed)`` draws them cell by cell,
    sample after sample, so sample k does not depend on ``n_samples``.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return rng.poisson(coincidences, size=(n_samples, 9, 4)).astype(float)


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
    linear inversion, then damped Newton iteration (``_maximize``) in the
    chart of the maximum's face, until the certificate shows the
    log-likelihood within ``CERTIFICATE_TOL`` times the number of counts of
    its maximum; ``iterations`` counts the Newton iterations only.  With
    ``n_samples`` (0, or at least 2) and a ``seed``, the (9, 4) coincidence
    matrix is also Poisson-resampled that many times
    (``_resampled_coincidences``), and the resamples are reconstructed in the
    same batch as the observed matrix, which is its row 0; a resample
    without counts or without a certified maximum is a Monte Carlo failure.
    """
    check_monte_carlo(n_samples, seed)
    coincidences = table.coincidence_matrix()
    if coincidences.sum() == 0:
        raise ValueError("all coincidence counts are zero; cannot reconstruct")
    resampled = (
        _resampled_coincidences(coincidences, n_samples, seed) if n_samples
        else np.empty((0, 9, 4))
    )
    resampled = resampled[resampled.sum(axis=(1, 2)) > 0]
    batch = np.concatenate([coincidences[None], resampled])
    rho, logl, certificate, iterations, converged, _ = _ascend(batch)
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
    result: MleResult, values: Mapping[str, np.ndarray]
) -> dict[str, MonteCarloResult]:
    """Propagate Poissonian count errors through reconstruction.

    Reduces, for each named figure, its K values on the K certified
    resampled reconstructions of ``mle_reconstruct``, in the order of
    ``result.samples``, to their mean and spread.  Fewer than two certified
    states raise ``ConvergenceError``.
    """
    kept = len(result.samples)
    if kept < 2:
        raise ConvergenceError(
            f"only {kept} of {kept + result.n_failures} Monte Carlo samples reconstructed"
        )
    certificate = float(result.sample_certificates.max())
    report = {}
    for name, figure in values.items():
        figure = np.asarray(figure, dtype=float)
        if figure.shape != (kept,):
            raise ValueError(
                f"figure {name!r} has shape {figure.shape}, not one value for each of {kept} states"
            )
        report[name] = MonteCarloResult(
            mean=float(figure.mean()),
            std=float(figure.std(ddof=1)),
            n_samples=kept,
            n_failures=result.n_failures,
            certificate=certificate,
        )
    return report
