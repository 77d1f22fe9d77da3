"""Linear-algebra building blocks shared by the harmonic solvers.

The state vector x has length 2n: entry k carries A_k f_k cos(theta_k)
and entry n+k carries -A_k f_k sin(theta_k), so that for the design
matrix H (cosine columns then sine columns) the product H @ x equals
sum_k A_k f_k cos(w_k t + theta_k) exactly. The sign on the sine block
follows from the expansion cos(wt + theta) = cos(theta)cos(wt) -
sin(theta)sin(wt); amplitudes are unaffected by the choice.

Every fit reads the data only through the misfit ||H x - h||^2 of the
detrended heights h. ``prepare`` detrends a record and computes once a
triple (a, b, rest) with ||H x - h||^2 = ||a x - b||^2 + rest for every x. For
m > 2n + 1 samples a = R is the 2n x 2n triangle of H = Q R, b = Q^T h
and rest = ||H x* - h||^2 at the least-squares x*, so every later solve
costs O(n^2) whatever m is. R comes by one of two factorizations. When
the times lie on an integer lattice t_0 + k_j d, with or without gaps,
H is never built: H^T H is a closed form on an evenly spaced record and
is accumulated block by block from two phasor tables on one with gaps,
and R is its Cholesky factor when that factor is well conditioned; H^T h
and the residual come from the same tables. Every other record, and a
lattice record whose Cholesky factor is ill conditioned (near-resonant
sampling, short spans), fills the augmented m x (2n+1) matrix [H | h]
by sin and cos and has it QR-factored by dgeqrf. R has the singular
values of H, so rank decisions and minimum-norm solutions carry over.
For m <= 2n + 1 the factorization would not shrink anything, and a, b
are H and h themselves (rest = 0). prepare solves nothing: HA's
minimum-norm state, PreparedRecord.least_squares, is solved on its first
read, so a record that only CHA reads never runs that SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dgeqrf, dgeqrf_lwork, dpotrf, dsyrk, dtrcon, dtrtrs
from .constituents import ConstituentCatalog
from .series import HarmonicSolution, WaterLevelSeries, detrend

OVERDETERMINED = "overdetermined"
UNDERDETERMINED = "underdetermined"

# Singular values below RANK_RCOND * (largest singular value) are treated
# as zero; near-resonant sampling (~12 h, ~24 h intervals) genuinely
# collapses the rank and must yield the minimum-norm solution, not a crash.
RANK_RCOND = 1e-10

# A lattice record keeps the Cholesky factor of its H^T H only below this
# estimated cond(R): its relative error eps * cond^2 then stays under about
# 2e-8, and every singular value stays far above the rank cut-off of HA's
# solve.
GRAM_MAX_CONDITION = 1e4

# A record on an integer lattice t_0 + k_j d (gauge records, with or
# without gaps; the experiment's cuts of its base record) is compressed
# from phasor tables, in blocks of _LATTICE_BLOCK samples whose tables
# stay in cache. Its times may stray from the lattice by _SPACING_ULPS ulp
# of max|t|, as decimal hours rounded to doubles do. Below
# _LATTICE_MIN_SAMPLES, the tables cost more than they save; past
# _LATTICE_MAX_STRIDE lattice steps per sample, so do the products that
# run over every lattice point.
_LATTICE_BLOCK = 512
_LATTICE_MIN_SAMPLES = 2 * _LATTICE_BLOCK
_LATTICE_MAX_STRIDE = 32
_SPACING_ULPS = 4


def classify_regime(sample_count: int, n_constituents: int) -> str:
    """Underdetermined when there are fewer samples than the 2n unknowns."""
    return UNDERDETERMINED if sample_count < 2 * n_constituents else OVERDETERMINED


def build_design_matrix(times, catalog: ConstituentCatalog) -> np.ndarray:
    """m x 2n matrix [cos(w_k t_i) | sin(w_k t_i)] at the given sample times."""
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        raise ValueError("design matrix requires at least one sample time")
    rows = np.empty((2 * catalog.n, t.size))
    _fill_by_sin_cos(t, catalog.speeds, rows)
    return np.ascontiguousarray(rows.T)


def _fill_by_sin_cos(times: np.ndarray, speeds: np.ndarray, rows: np.ndarray) -> None:
    """Write H^T into the C-contiguous 2n x m array rows: row k holds
    cos(w_k t) and row n+k sin(w_k t). The phase arguments are formed in
    the cosine rows, so no m x n temporary is allocated."""
    arg = np.outer(speeds, times, out=rows[: speeds.size])
    np.sin(arg, out=rows[speeds.size :])
    np.cos(arg, out=arg)


def _lattice(times: np.ndarray) -> tuple[float, np.ndarray] | None:
    """(d, k) when there are at least _LATTICE_MIN_SAMPLES times and every
    time t_j lies within _SPACING_ULPS ulp of max|t| of t_0 + k_j d, with
    integers 0 = k_0 < k_1 < ... and k_{m-1} <= _LATTICE_MAX_STRIDE m;
    None otherwise, NaN times included.

    k is rounded against a rough step, the shortest gap or the smallest
    change between consecutive gaps if that is shorter (a cut of q or q + 1
    base steps), and d is refitted to the last time. Every time is then
    checked against that one lattice: records whose blocks are each evenly
    spaced but sit off one lattice must not pass. A change between
    consecutive gaps, t_{j+2} - 2 t_{j+1} + t_j, counts only above four
    times the tolerance, which the strays of its times can add up to.
    """
    m = times.size
    if m < _LATTICE_MIN_SAMPLES:
        return None
    tolerance = _SPACING_ULPS * np.spacing(np.abs(times).max())
    # Each m-length array goes once read, so at most three live at a time.
    gaps = np.diff(times)
    shortest = gaps[np.argmin(np.abs(gaps))]
    jumps = np.diff(gaps)
    del gaps
    np.abs(jumps, out=jumps)
    step = np.copysign(jumps.min(where=jumps > 4 * tolerance, initial=abs(shortest)), shortest)
    del jumps
    if not abs(step) > tolerance:
        return None
    offsets = times - times[0]
    k = offsets / step
    np.rint(k, out=k)
    if not (0 < k[-1] <= _LATTICE_MAX_STRIDE * m and (k[1:] > k[:-1]).all()):
        return None
    step = (times[-1] - times[0]) / k[-1]
    indices = k.astype(np.intp)
    offsets -= np.multiply(k, step, out=k)
    if np.abs(offsets, out=offsets).max() <= tolerance:
        return float(step), indices
    return None


def _unit_phasors(arg: np.ndarray) -> np.ndarray:
    """cos(arg) + i sin(arg), each part from numpy's real cos and sin."""
    phasors = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=phasors.real)
    np.sin(arg, out=phasors.imag)
    return phasors


def compress_design(times, heights, catalog: ConstituentCatalog) -> tuple[np.ndarray, np.ndarray, float]:
    """(a, b, rest) with ||H x - heights||^2 = ||a x - b||^2 + rest for all x.

    H is build_design_matrix(times, catalog). Up to 2n + 1 samples, a and
    b are H and heights. Beyond that, a is the 2n x 2n upper triangle R of
    H = Q R, by one of two factorizations. A record on an integer lattice
    (_lattice) is compressed by _lattice_compress, which never builds H.
    Any other record, and a lattice record whose Cholesky factor
    _lattice_compress declines, fills [H | heights] in Fortran order by
    sin and cos, and LAPACK dgeqrf factors it in place.
    """
    h = np.asarray(heights, dtype=float)
    two_n = 2 * catalog.n
    if h.size <= two_n + 1:
        return build_design_matrix(times, catalog), h, 0.0
    t = np.asarray(times, dtype=float).ravel()
    lattice = _lattice(t)
    if lattice is not None:
        compressed = _lattice_compress(t, h, catalog.speeds, *lattice)
        if compressed is not None:
            return compressed
    # Column-major [H | h]: dgeqrf reads it without a copy.
    augmented = np.empty((h.size, two_n + 1), order="F")
    augmented[:, two_n] = h
    _fill_by_sin_cos(t, catalog.speeds, augmented[:, :two_n].T)
    lwork, _ = dgeqrf_lwork(*augmented.shape)
    qr, _, _, info = dgeqrf(augmented, lwork=int(lwork), overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info={info}")
    return np.triu(qr[:two_n, :two_n]), qr[:two_n, two_n].copy(), float(qr[two_n, two_n] ** 2)


def _lattice_compress(
    times: np.ndarray, heights: np.ndarray, speeds: np.ndarray, step: float, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """(a, b, rest) of a record at t_0 + k_j d (_lattice) with no trig per
    sample and no m x 2n array; None when _cholesky_factor declines its
    H^T H, before the heights are read.

    With k_j = _LATTICE_BLOCK a_j + b_j, exp(i w_k t_j) is C_ka F_kb, from
    a coarse table C_ka = exp(i w_k (t_0 + _LATTICE_BLOCK a d)) and a fine
    one F_kb = exp(i w_k b d). H^T H is the closed form of _lattice_gram
    for k_j = j and _blocked_gram otherwise. The heights scattered to the
    rows a and columns b of a zero matrix Z give sum_t h_t exp(i w_k t) as
    sum_a C_ka (F Z^T)_ka, and (H x)_t as Re sum_k (x_k - i x_{n+k}) C_ka
    F_kb read back at (a_j, b_j): one real matrix product each. For
    k_j = j, Z is the heights in rows of _LATTICE_BLOCK. b = R^-T H^T h
    and rest = ||H x* - h||^2 at x* = R^-1 b; ||h||^2 - ||b||^2 would
    cancel to noise on records that H fits almost exactly.
    """
    n, m = speeds.size, heights.size
    corners = times[0] + (_LATTICE_BLOCK * step) * np.arange(k[-1] // _LATTICE_BLOCK + 1)
    coarse = _unit_phasors(np.multiply.outer(speeds, corners))
    fine = _unit_phasors(np.multiply.outer(speeds, step * np.arange(_LATTICE_BLOCK)))
    a = _cholesky_factor(_lattice_gram(times, speeds) if k[-1] == m - 1 else _blocked_gram(coarse, fine, k))
    if a is None:
        return None
    real_fine = np.concatenate([fine.real, fine.imag])
    scattered = np.zeros((coarse.shape[1], _LATTICE_BLOCK))
    scattered.ravel()[k] = heights
    sums = real_fine @ scattered.T
    projection = np.einsum("ka,ka->k", coarse, sums[:n] + 1j * sums[n:])
    b, _ = dtrtrs(a, np.concatenate([projection.real, projection.imag]), trans=1)
    x, _ = dtrtrs(a, b)
    weights = (x[:n] - 1j * x[n:])[:, None] * coarse
    fitted = np.matmul(np.concatenate([weights.real, -weights.imag]).T, real_fine, out=scattered)
    residual = fitted.ravel()[k] - heights
    return a, b, float(residual @ residual)


def _blocked_gram(coarse: np.ndarray, fine: np.ndarray, k: np.ndarray) -> np.ndarray:
    """H^T H (upper triangle) of a record at t_0 + k_j d from the tables
    of _lattice_compress. Each block of _LATTICE_BLOCK samples takes its
    columns of the coarse and fine tables, multiplies them into its
    exp(i w_k t_j), writes the cosine and sine rows of H^T into one reused
    2n x _LATTICE_BLOCK array and adds their Gram matrix by dsyrk."""
    n = fine.shape[0]
    gram = np.zeros((2 * n, 2 * n), order="F")
    rows = np.empty((0, 0))
    for start in range(0, k.size, _LATTICE_BLOCK):
        offsets = k[start : start + _LATTICE_BLOCK]
        if offsets.size != rows.shape[1]:  # the first block, and a short last one
            phasors, factors = np.empty((2, n, offsets.size), dtype=complex)
            rows = np.empty((2 * n, offsets.size))
        np.take(coarse, offsets // _LATTICE_BLOCK, axis=1, out=phasors, mode="clip")
        np.take(fine, offsets % _LATTICE_BLOCK, axis=1, out=factors, mode="clip")
        phasors *= factors
        rows[:n] = phasors.real
        rows[n:] = phasors.imag
        gram = dsyrk(1.0, rows.T, beta=1.0, c=gram, trans=1, overwrite_c=1)
    return gram


def _lattice_gram(times: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """H^T H of an evenly spaced record in closed form. With
    U_kl = S(w_k - w_l) and V_kl = S(w_k + w_l) (_lattice_sums), the
    cos-cos block is Re(U + V) / 2, the sin-sin block Re(U - V) / 2 and
    the cos-sin block Im(V - U) / 2, by the product-to-sum identities."""
    m = times.size
    step = (times[-1] - times[0]) / (m - 1)
    middle = 0.5 * (times[0] + times[-1])
    difference = _lattice_sums(np.subtract.outer(speeds, speeds), step, middle, m)
    total = _lattice_sums(np.add.outer(speeds, speeds), step, middle, m)
    cos_sin = 0.5 * (total.imag - difference.imag)
    return np.block([
        [0.5 * (difference.real + total.real), cos_sin],
        [cos_sin.T, 0.5 * (difference.real - total.real)],
    ])


def _lattice_sums(omega: np.ndarray, step: float, middle: float, count: int) -> np.ndarray:
    """S(w) = sum_j exp(i w t_j) over count times t_j evenly spaced by
    step about middle: the Dirichlet sum
    exp(i w middle) sin(count w step / 2) / sin(w step / 2).

    w step / 2 is first reduced by its nearest multiple p pi, which turns
    the quotient into (-1)^(p (count - 1)) sin(count r) / sin(r) with
    |r| <= pi / 2; at r = 0 (w = 0, or a speed the spacing aliases to
    zero) it is count, not 0 / 0.
    """
    half = 0.5 * step * omega
    turns = np.round(half / np.pi)
    reduced = half - np.pi * turns
    ratio = np.full(half.shape, float(count))
    np.divide(np.sin(count * reduced), np.sin(reduced), out=ratio, where=reduced != 0)
    ratio[turns * (count - 1) % 2 == 1] *= -1.0
    return ratio * _unit_phasors(omega * middle)


def _cholesky_factor(gram: np.ndarray) -> np.ndarray | None:
    """R with H^T H = R^T R (dpotrf), the R of H = Q R up to rounding: the
    first pass of CholeskyQR (Fukaya, Nakatsukasa et al. 2014). Its
    relative error grows like eps cond(H)^2, so it returns None unless
    dpotrf succeeds and dtrcon estimates cond(R) below GRAM_MAX_CONDITION.
    """
    a, info = dpotrf(gram)
    if info != 0:
        return None
    rcond, info = dtrcon(a)
    if info != 0 or rcond * GRAM_MAX_CONDITION <= 1.0:
        return None
    return a


@dataclass(frozen=True, eq=False)
class PreparedRecord:
    """A detrended record reduced to what HA, CHA and ReLSHA read from it.

    ||H x - h||^2 = ||a x - b||^2 + rest for every state x, h being the
    detrended heights; sample_count is the m of the original record.
    CHA and ReLSHA evaluate the misfit in that form, ||a x - b||^2 + rest.
    Every array is read-only.
    """

    catalog: ConstituentCatalog
    mean: float
    trend: float
    time_reference: float
    sample_count: int
    a: np.ndarray
    b: np.ndarray
    rest: float

    @cached_property
    def least_squares(self) -> tuple[np.ndarray, int]:
        """The minimum-norm x of min ||a x - b|| and the rank of a, by SVD
        with singular values below RANK_RCOND times the largest cut; a has
        the singular values of H, so the rank and x are H's own. HA and
        ReLSHA's start read it; it is solved on the first read only."""
        x, _, rank, _ = np.linalg.lstsq(self.a, self.b, rcond=RANK_RCOND)
        x.setflags(write=False)
        return x, int(rank)

    def solution(self, amplitudes, phases) -> HarmonicSolution:
        """A fitted solution carrying this record's mean and trend."""
        return HarmonicSolution(
            mean=self.mean,
            trend=self.trend,
            amplitudes=amplitudes,
            phases=phases,
            catalog=self.catalog,
            time_reference=self.time_reference,
        )


def prepare(series: WaterLevelSeries, catalog: ConstituentCatalog) -> PreparedRecord:
    """Detrend the series and compress its design once for every fit."""
    residual, mean, trend = detrend(series)
    a, b, rest = compress_design(residual.times, residual.heights, catalog)
    for array in (a, b):
        array.setflags(write=False)
    return PreparedRecord(
        catalog=catalog,
        mean=mean,
        trend=trend,
        time_reference=float(series.times.mean()),
        sample_count=len(series),
        a=a,
        b=b,
        rest=rest,
    )


def _pair_squares(x: np.ndarray) -> np.ndarray:
    """Per-constituent squared magnitude A_k^2 f_k^2 of a state vector."""
    n = x.size // 2
    return x[:n] ** 2 + x[n:] ** 2


def unpack_state(x: np.ndarray, catalog: ConstituentCatalog) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes and phases from a state vector.

    A_k = sqrt(x_k^2 + x_{n+k}^2) / f_k; theta_k recovers the packed
    angle in [-pi, pi] as arctan2 gives it, for HarmonicSolution to wrap
    into [0, 2 pi), with zero-amplitude pairs mapped to phase 0 for
    determinism.
    """
    x = np.asarray(x, dtype=float)
    n = catalog.n
    if x.shape != (2 * n,):
        raise ValueError(f"state vector must have length {2 * n}, got {x.size}")
    c, s = x[:n], x[n:]
    magnitude = np.hypot(c, s)
    amplitudes = magnitude / catalog.nodal_factors
    phases = np.where(magnitude > 0, np.arctan2(-s, c), 0.0)
    return amplitudes, phases
