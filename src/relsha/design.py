"""Linear-algebra building blocks shared by the harmonic solvers.

The state vector x has length 2n: entry k carries A_k f_k cos(theta_k)
and entry n+k carries -A_k f_k sin(theta_k), so that for the design
matrix H (cosine columns then sine columns) the product H @ x equals
sum_k A_k f_k cos(w_k t + theta_k) exactly. The sign on the sine block
follows from the expansion cos(wt + theta) = cos(theta)cos(wt) -
sin(theta)sin(wt); amplitudes are unaffected by the choice.

Every fit reads the data only through the misfit ||H x - h||^2 of the
detrended heights h. ``prepare`` computes, once per record, a triple
(a, b, rest) with ||H x - h||^2 = ||a x - b||^2 + rest for every x. For
m > 2n + 1 samples it compresses the augmented m x (2n+1) matrix [H | h]
by Gram-Cholesky, with QR as the fallback: with [H | h] = Q [[R, c],
[0, d], [0, 0]], a = R is 2n x 2n, b = c and rest = d^2, so every later
solve costs O(n^2) whatever m is. A well-conditioned H gets R and c from
the Cholesky factor of the Gram matrix [H | h]^T [H | h], one BLAS-3 pass
over the data; an ill-conditioned one (near-resonant sampling, short
records) is QR-factored by dgeqrf. R has the singular values of H, so
rank decisions and minimum-norm solutions carry over. For m <= 2n + 1
the factorization would not shrink anything, and a, b are H and h
themselves (rest = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemv, dsyrk
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dpotrf, dtrcon, dtrtrs

from .constituents import TWO_PI, ConstituentCatalog
from .series import HarmonicSolution, WaterLevelSeries, detrend

OVERDETERMINED = "overdetermined"
UNDERDETERMINED = "underdetermined"

# Singular values below RANK_RCOND * (largest singular value) are treated
# as zero; near-resonant sampling (~12 h, ~24 h intervals) genuinely
# collapses the rank and must yield the minimum-norm solution, not a crash.
RANK_RCOND = 1e-10

# compress_design takes the Gram-Cholesky path only below this estimated
# cond(R): its relative error eps * cond^2 then stays under about 2e-8,
# and every singular value stays far above the rank cut-off of HA's solve.
GRAM_MAX_CONDITION = 1e4

# The design of an evenly spaced record (gauge records; the experiment's
# cuts at multiples of its base interval) is filled by angle addition in
# blocks of _ROTATION_BLOCK samples, whose tables stay in cache. Times may
# stray from the even lattice by _SPACING_ULPS ulp of max|t|, which is
# what decimal hours rounded to doubles do. Below _ROTATION_MIN_SAMPLES,
# forming the table costs more than the rotation saves.
_ROTATION_BLOCK = 512
_ROTATION_MIN_SAMPLES = 2 * _ROTATION_BLOCK
_SPACING_ULPS = 4


def classify_regime(sample_count: int, n_constituents: int) -> str:
    """Underdetermined when there are fewer samples than the 2n unknowns."""
    return UNDERDETERMINED if sample_count < 2 * n_constituents else OVERDETERMINED


def build_design_matrix(times, catalog: ConstituentCatalog) -> np.ndarray:
    """m x 2n matrix [cos(w_k t_i) | sin(w_k t_i)] at the given sample times."""
    t = np.asarray(times, dtype=float)
    rows = np.empty((2 * catalog.n, t.size))
    _fill_transposed_design(t, catalog, rows)
    return np.ascontiguousarray(rows.T)


def _fill_transposed_design(times: np.ndarray, catalog: ConstituentCatalog, rows: np.ndarray) -> None:
    """Write H^T into the C-contiguous 2n x m array rows: row k holds
    cos(w_k t) and row n+k sin(w_k t). Evenly spaced records are filled
    by _fill_by_rotation; for every other record the phase arguments are
    formed in the cosine rows. Neither allocates an m x n temporary."""
    if times.size == 0:
        raise ValueError("design matrix requires at least one sample time")
    if _fill_by_rotation(times.ravel(), catalog.speeds, rows):
        return
    arg = np.outer(catalog.speeds, times, out=rows[: catalog.n])
    np.sin(arg, out=rows[catalog.n :])
    np.cos(arg, out=arg)


def _fill_by_rotation(times: np.ndarray, speeds: np.ndarray, rows: np.ndarray) -> bool:
    """Fill rows as _fill_transposed_design does and return True when
    _lattice_offsets finds the times evenly spaced; otherwise return False
    with rows untouched.

    Sample j of the block that starts at t_s is taken at t_s + j d. Then
    cos(w_k t) + i sin(w_k t) is the product (C + iS)(ca + i sa) of the
    record's one n x _ROTATION_BLOCK table C + iS = exp(i w_k j d) and the
    block's anchor ca + i sa = exp(i w_k t_s), whose parts are
    C ca - S sa and S ca + C sa. Each anchor comes from its block's own
    first time, so an error in d never carries past a block.
    """
    offsets = _lattice_offsets(times)
    if offsets is None:
        return False
    table = _unit_phasors(np.multiply.outer(speeds, offsets))
    anchors = _unit_phasors(np.multiply.outer(speeds, times[::_ROTATION_BLOCK]))
    product = np.empty_like(table)
    n, m = speeds.size, times.size
    for i, start in enumerate(range(0, m, _ROTATION_BLOCK)):
        width = min(_ROTATION_BLOCK, m - start)
        block = np.multiply(table[:, :width], anchors[:, i : i + 1], out=product[:, :width])
        rows[:n, start : start + width] = block.real
        rows[n:, start : start + width] = block.imag
    return True


def _lattice_offsets(times: np.ndarray) -> np.ndarray | None:
    """j d for j < _ROTATION_BLOCK, with d = (t[-1] - t[0]) / (m - 1), when
    there are at least _ROTATION_MIN_SAMPLES times and sample j of every
    block of _ROTATION_BLOCK samples lies within _SPACING_ULPS ulp of
    max|t| of the block's first time plus j d; None otherwise, NaN times
    included."""
    m = times.size
    if m < _ROTATION_MIN_SAMPLES:
        return None
    offsets = (times[-1] - times[0]) / (m - 1) * np.arange(_ROTATION_BLOCK)
    tolerance = _SPACING_ULPS * np.spacing(max(times.max(), -times.min()))
    whole = m - m % _ROTATION_BLOCK
    blocks = times[:whole].reshape(-1, _ROTATION_BLOCK)
    deviation = blocks - blocks[:, :1]
    deviation -= offsets
    tail = times[whole:] - times[whole : whole + 1] - offsets[: m - whole]
    if np.abs(deviation, out=deviation).max() <= tolerance and np.abs(tail).max(initial=0.0) <= tolerance:
        return offsets
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
    b are H and heights. Beyond that, [H | heights] is built in Fortran
    order and compressed by Gram-Cholesky (_gram_compress), with QR as the
    fallback: when the Gram path declines, LAPACK dgeqrf factors the same
    matrix in place. Either way a is the 2n x 2n upper triangle R.
    """
    h = np.asarray(heights, dtype=float)
    two_n = 2 * catalog.n
    if h.size <= two_n + 1:
        return build_design_matrix(times, catalog), h, 0.0
    # Column-major [H | h]: dsyrk and dgeqrf read it without a copy.
    augmented = np.empty((h.size, two_n + 1), order="F")
    _fill_transposed_design(np.asarray(times, dtype=float), catalog, augmented[:, :two_n].T)
    augmented[:, two_n] = h
    compressed = _gram_compress(augmented)
    if compressed is not None:
        return compressed
    lwork, _ = dgeqrf_lwork(*augmented.shape)
    qr, _, _, info = dgeqrf(augmented, lwork=int(lwork), overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed with info={info}")
    return np.triu(qr[:two_n, :two_n]), qr[:two_n, two_n].copy(), float(qr[two_n, two_n] ** 2)


def _gram_compress(augmented: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    """(a, b, rest) of the m x (2n+1) Fortran-order [H | h] from its Gram
    matrix, or None, leaving augmented untouched, when H is too
    ill-conditioned for it.

    G = [H | h]^T [H | h] (one dsyrk) gives H^T H = R^T R (dpotrf of its
    leading 2n x 2n block) and b = R^-T H^T h, the R and Q^T h of a QR
    factorization up to rounding: the first pass of CholeskyQR (Fukaya,
    Nakatsukasa et al. 2014). Its relative error grows like
    eps cond(H)^2, so the path is taken only when dpotrf succeeds and
    dtrcon estimates cond(R) below GRAM_MAX_CONDITION. rest is
    ||H x* - h||^2 at x* = R^-1 b, formed in place of the h column. G's
    last pivot would give it as ||h||^2 - ||b||^2, which cancels to noise
    on records that H fits almost exactly, so that pivot is never formed.
    """
    two_n = augmented.shape[1] - 1
    gram = dsyrk(1.0, augmented, trans=1)
    a, info = dpotrf(gram[:two_n, :two_n])
    if info != 0:
        return None
    rcond, info = dtrcon(a)
    if info != 0 or rcond * GRAM_MAX_CONDITION <= 1.0:
        return None
    b, _ = dtrtrs(a, gram[:two_n, two_n], trans=1)
    x, _ = dtrtrs(a, b)
    residual = dgemv(1.0, augmented[:, :two_n], x, beta=-1.0, y=augmented[:, two_n], overwrite_y=1)
    return a, b, float(residual @ residual)


class _computed_once:
    """An attribute computed on first read and kept in the instance's
    __dict__. functools.cached_property before Python 3.12 holds one lock
    for every instance of the class while it computes, so grid threads
    solving different records would wait for each other. Two threads
    reading one record's attribute at once may both compute it; one
    result is kept."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


@dataclass(frozen=True, eq=False)
class PreparedRecord:
    """A detrended record reduced to what HA, CHA and ReLSHA read from it.

    ||H x - h||^2 = ||a x - b||^2 + rest for every state x, h being the
    detrended heights; sample_count is the m of the original record.
    The least-squares state and a^T a, which several methods read, are
    computed on first use and kept, read-only.
    """

    catalog: ConstituentCatalog
    mean: float
    trend: float
    time_reference: float
    sample_count: int
    a: np.ndarray
    b: np.ndarray
    rest: float

    @_computed_once
    def least_squares(self) -> tuple[np.ndarray, int]:
        """The minimum-norm x of min ||a x - b|| and the rank of a, by SVD
        with singular values below RANK_RCOND times the largest cut. a has
        the singular values of H, so the rank and x are H's own."""
        x, _, rank, _ = np.linalg.lstsq(self.a, self.b, rcond=RANK_RCOND)
        x.setflags(write=False)
        return x, int(rank)

    @_computed_once
    def gram(self) -> np.ndarray:
        """a^T a, equal to H^T H up to rounding."""
        gram = self.a.T @ self.a
        gram.setflags(write=False)
        return gram

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
    a.setflags(write=False)
    b.setflags(write=False)
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
    angle, with zero-amplitude pairs mapped to phase 0 for determinism.
    """
    x = np.asarray(x, dtype=float)
    n = catalog.n
    if x.shape != (2 * n,):
        raise ValueError(f"state vector must have length {2 * n}, got {x.size}")
    c, s = x[:n], x[n:]
    magnitude = np.hypot(c, s)
    amplitudes = magnitude / catalog.nodal_factors
    phases = np.where(magnitude > 0, np.arctan2(-s, c) % TWO_PI, 0.0)
    return amplitudes, phases
