"""Regularized least-squares harmonic analysis (ReLSHA).

Fits the 2n-dimensional state vector by minimizing

    J(x) = (1 - lam) * ||H x - h||^2 + lam * ||K(x . x) - q||^2

where h is the detrended water level, q holds the squared reference
amplitudes, and K(x . x) pairs the squared cosine/sine components into
per-constituent squared magnitudes. With s = K(x . x) - q, the analytic
gradient and Hessian are

    dJ/dx   = 2 (1 - lam) H^T (H x - h) + 4 lam x * expand(s)
    d2J/dx2 = 2 (1 - lam) H^T H + 4 lam diag(expand(s)) + 8 lam P(x x^T)

where expand() duplicates the n-vector onto both members of each pair
and P keeps the entries of x x^T whose row and column share a pair.

The data term is evaluated on the record's compressed form from
design.prepare: ||H x - h||^2 = ||a x - b||^2 + rest, with a the 2n x 2n
triangle R of H = QR when the record has more than 2n + 1 samples: the
Cholesky factor of H^T H on a well-conditioned lattice record, and a
dgeqrf of [H | h] on any other. An evaluation then costs O(n^2)
whatever the record length m.

The minimization is _newton, a trust-region Newton method on the exact
Hessian B (Nocedal & Wright, Numerical Optimization, ch. 4). Each step
is p = -(B + mu I)^-1 g, with B + mu I = L L^T by the lower Cholesky
factor and mu >= 0 found by More and Sorensen's method (1983): Newton's
method on the secular equation ||p(mu)|| = radius inside a safeguarded
bracket, started from the previous step's mu. A factorization that
fails at pivot k raises the bracket's lower end to mu + delta/||v||^2,
with delta the failed pivot and v from the leading k x k block (section
3). Where the quartic penalty makes B indefinite, mu shifts the model
to a positive-definite one inside the radius, so negative curvature
bends the step instead of stalling the solver. In
the hard case, where p stays inside the radius as mu falls to
-lambda_min(B), inverse iteration with the factor gives a near-lowest
eigenvector z and the step is p + tau z on the radius. A step is taken
on the ratio of actual to predicted decrease with both raised by a
floor at the rounding level of J (Conn, Gould & Toint, Trust-Region
Methods, 17.4.2), so rounding does not decide whether a fit converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._lapack import dpotrf, dpotrs, dtrtrs
from .constituents import ConstituentCatalog
from .design import PreparedRecord, _pair_squares, classify_regime, prepare, unpack_state
from .series import HarmonicSolution, WaterLevelSeries

# A step is taken when J falls by more than _ACCEPT of the model's
# predicted fall; the radius shrinks below _SHRINK and grows above _GROW
# (Nocedal & Wright, Algorithm 4.1).
_ACCEPT, _SHRINK, _GROW = 0.15, 0.25, 0.75
# Shifts mu one trust-region step may try, each a Cholesky factorization
# of hess + mu I; refactoring the leading block of a failed one is extra.
_MAX_FACTORIZATIONS = 20
# A step ends within this fraction of the radius (More and Sorensen's sigma_1).
_RADIUS_TOLERANCE = 0.1
# A fit has converged when the gradient infinity norm is at most
# _GRADIENT_TOLERANCE times 1 + |J0|, J0 being the objective at the
# starting point; it stops unconverged after _MAX_ITERATIONS steps.
_GRADIENT_TOLERANCE, _MAX_ITERATIONS = 1e-8, 2000
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RelshaConfig:
    """Solver settings: lam in [0, 1], the paper's one tuning parameter,
    weighs the amplitude prior against the data misfit. The stopping rule
    is fixed by _GRADIENT_TOLERANCE and _MAX_ITERATIONS."""

    lam: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")


def _value_and_gradient(
    x: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    ref_squares: np.ndarray,
    w_data: float,
    w_reg: float,
    rest: float,
) -> tuple[float, np.ndarray]:
    """Value and analytic gradient of the objective at state x, with
    w_data = 1 - lam and w_reg = lam; the solver calls it on every step.

    The data term is ||a x - b||^2 + rest: a raw design H with heights h
    is the case a = H, b = h, rest = 0, and a prepared record supplies its
    compressed (a, b, rest).
    """
    r = a @ x - b
    s = _pair_squares(x) - ref_squares
    value = w_data * (r @ r + rest) + w_reg * (s @ s)
    grad = 2.0 * w_data * (a.T @ r) + 4.0 * w_reg * x * np.concatenate([s, s])
    return float(value), grad


def _hessian(
    x: np.ndarray,
    gram: np.ndarray,
    ref_squares: np.ndarray,
    w_data: float,
    w_reg: float,
) -> np.ndarray:
    """The objective's Hessian at x, with gram = a^T a formed once per solve.

    The penalty terms are added in place on the diagonal and on the two
    diagonals of the cos/sin cross block, the only entries they touch.
    """
    s = _pair_squares(x) - ref_squares
    n = s.size
    flat = (2.0 * w_data) * gram.ravel()
    # -0.0 + 0.0 is 0.0: every entry keeps the bits of the full-matrix sum
    # 2 w_data gram + diag(4 w_reg expand(s)) + 8 w_reg P(x x^T).
    flat += 0.0
    # Strided views of the flat matrix: its diagonal here, and below the
    # (k, k + n) and (k + n, k) diagonals of the cross block.
    diagonal = flat[:: 2 * n + 1]
    curvature = (4.0 * w_reg) * s
    diagonal[:n] += curvature
    diagonal[n:] += curvature
    coupling = 8.0 * w_reg
    diagonal += coupling * (x * x)
    cross = coupling * (x[:n] * x[n:])
    flat[n : 2 * n * n : 2 * n + 1] += cross
    flat[2 * n * n :: 2 * n + 1] += cross
    return flat.reshape(2 * n, 2 * n)


def _initial_state(x0: np.ndarray, target_magnitude: np.ndarray) -> np.ndarray:
    """Starting state with pair magnitudes set to the reference amplitudes.

    The penalty pulls each pair magnitude A_k f_k to the reference A_0k,
    so the start puts it there: it keeps the phases of the minimum-norm
    least-squares state x0 (PreparedRecord.least_squares) and rescales
    each (cos, sin) pair to magnitude A_0k. A pair that state leaves at
    zero starts at phase zero.
    """
    n = x0.size // 2
    magnitude = np.hypot(x0[:n], x0[n:])
    nonzero = magnitude > 0
    scale = np.where(nonzero, target_magnitude / np.where(nonzero, magnitude, 1.0), 0.0)
    x0 = x0 * np.concatenate([scale, scale])
    x0[:n][~nonzero] = target_magnitude[~nonzero]
    return x0


@dataclass(frozen=True)
class RelshaDiagnostics:
    objective: float
    initial_objective: float
    gradient_norm: float
    gradient_tolerance: float
    iterations: int
    restarts: int  # always 0: the trust-region loop never restarts; kept for its readers
    # Cholesky factorizations tried, failed ones and the leading blocks
    # refactored after a failure included
    factorizations: int
    converged: bool
    regime: str
    sample_count: int


@dataclass(frozen=True, eq=False)
class RelshaResult:
    solution: HarmonicSolution
    diagnostics: RelshaDiagnostics


def relsha_fit(
    series: WaterLevelSeries,
    reference: np.ndarray,
    catalog: ConstituentCatalog,
    config: RelshaConfig = RelshaConfig(),
    callback: Callable[[np.ndarray], None] | None = None,
) -> RelshaResult:
    """Recover constituent amplitudes from an (under)sampled series using
    reference amplitudes as a prior.

    The series is detrended, the trust-region Newton minimization is run
    from the rescaled least-squares start, and the final state is unpacked
    into amplitudes and phases. A result is always returned; failure to
    reach the gradient tolerance within the iteration budget is reported
    through diagnostics.converged, never silently.
    """
    _check_reference(reference, catalog)
    return relsha_solve(prepare(series, catalog), reference, config, callback)


def _check_reference(reference, catalog: ConstituentCatalog) -> np.ndarray:
    reference = np.asarray(reference, dtype=float)
    if reference.size == 0:
        raise ValueError("reference amplitudes are required (missing prior)")
    if reference.shape != (catalog.n,):
        raise ValueError(
            f"reference amplitudes must have length {catalog.n}, got {reference.size}"
        )
    if not np.all(np.isfinite(reference)) or np.any(reference < 0):
        raise ValueError("reference amplitudes must be finite and non-negative")
    return reference


def relsha_solve(
    record: PreparedRecord,
    reference: np.ndarray,
    config: RelshaConfig = RelshaConfig(),
    callback: Callable[[np.ndarray], None] | None = None,
) -> RelshaResult:
    """relsha_fit on a prepared record."""
    catalog = record.catalog
    reference = _check_reference(reference, catalog)
    ref_squares = reference**2
    a, b, rest = record.a, record.b, record.rest
    w_data, w_reg = 1.0 - config.lam, config.lam
    gram = a.T @ a

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        return _value_and_gradient(x, a, b, ref_squares, w_data, w_reg, rest)

    def hessian(x: np.ndarray) -> np.ndarray:
        return _hessian(x, gram, ref_squares, w_data, w_reg)

    x = _initial_state(record.least_squares[0], reference)
    j0, g0 = fg(x)
    tolerance = _GRADIENT_TOLERANCE * (1.0 + abs(j0))
    x, final_objective, final_gradient, iterations, factorizations = _newton(
        fg, hessian, x, j0, g0, tolerance, callback
    )
    gradient_norm = float(np.abs(final_gradient).max())
    diagnostics = RelshaDiagnostics(
        objective=final_objective,
        initial_objective=j0,
        gradient_norm=gradient_norm,
        gradient_tolerance=tolerance,
        iterations=iterations,
        restarts=0,
        factorizations=factorizations,
        converged=gradient_norm <= tolerance,
        regime=classify_regime(record.sample_count, catalog.n),
        sample_count=record.sample_count,
    )
    return RelshaResult(solution=record.solution(*unpack_state(x, catalog)), diagnostics=diagnostics)


def _bracket(hess):
    """The parts of _step's bracket on mu that hess alone fixes, formed
    once per Hessian: -min(diag(hess)) and the bound ||hess||_1 on its
    spectral radius."""
    return -hess.diagonal().min(), np.abs(hess).sum(axis=0).max()


def _step(hess, g, radius, mu, bracket):
    """A trust-region step for the model g^T p + p^T hess p / 2 in
    ||p|| <= radius, by More and Sorensen's algorithm (1983, sections 3-4).

    Returns (p, mu, factorizations): p = -(hess + mu I)^-1 g with mu >= 0,
    or p + tau z on the hard case, or None; mu to start the next step's
    search from; and the Cholesky factorizations tried, the refactored
    leading blocks of failed ones included. The search starts at the given
    mu, clamped into More and Sorensen's bracket [low, high], which each
    factorization narrows: Newton's method on 1/||p(mu)|| = 1/radius
    proposes the next mu, a failed factorization raises low past mu by
    _failed_pivot_gap, and a proposal outside the bracket is replaced by
    its safeguard, except that mu = 0 is tried once when Newton goes below
    0 with low = 0. hess must be symmetric bit for bit.

    p is returned when mu = 0 with p inside the radius, or when ||p|| is
    within 10% of it. When p falls inside at mu > 0, two inverse
    iterations with the factor give z, a unit vector near the lowest
    eigenvector of hess, which raises low to mu - ||l^T z||^2; p + tau z,
    on the radius, is returned when its model value is within the same
    tolerance of the optimum. When the factorizations run out, the last
    p found, cut back to the radius. bracket is _bracket(hess).
    """
    size = g.size
    minus_g = -g
    diagonal = hess.diagonal()
    lowest, bound = bracket
    scale = math.sqrt(g @ g) / radius
    low, high = max(0.0, lowest, scale - bound), scale + bound
    mu = min(max(mu, low), high)
    zero_tried = mu == 0.0
    # hess is symmetric bit for bit, so its transpose fills the Fortran-order
    # work matrix by a plain copy; the shifted diagonal is a strided view.
    shifted = np.empty((size, size), order="F")
    shifted_diagonal = shifted.reshape(-1, order="F")[:: size + 1]
    best, factorizations = None, 0
    for _ in range(_MAX_FACTORIZATIONS):
        factorizations += 1
        shifted[...] = hess.T
        np.add(diagonal, mu, out=shifted_diagonal)
        l, info = dpotrf(shifted, lower=1, overwrite_a=1)
        if info == 0:
            p = dpotrs(l, minus_g, lower=1)[0]
            norm = math.sqrt(p @ p)
            if (mu == 0.0 and norm <= radius) or abs(norm - radius) <= _RADIUS_TOLERANCE * radius:
                return p, mu, factorizations
            if norm < radius:
                high = min(high, mu)
                # Inverse iteration from p, which carries on the sequence
                # (hess + mu I)^-k g, plus a constant vector of the same
                # norm for a lowest eigenvector orthogonal to g.
                z = dpotrs(l, dpotrs(l, p / norm + 1.0 / math.sqrt(size), lower=1)[0], lower=1)[0]
                z /= math.sqrt(z @ z)
                # z l is (l^T z)^T: dpotrf's clean=1 zeroes l's upper triangle
                lz, lp = z @ l, p @ l
                curvature = lz @ lz
                low = max(low, mu - curvature)
                tau = _to_boundary(p, z, norm, radius)
                sigma = _RADIUS_TOLERANCE
                if tau * tau * curvature <= sigma * (2.0 - sigma) * (lp @ lp + mu * radius * radius):
                    return p + tau * z, mu, factorizations
            else:
                low = max(low, mu)
            best = p * min(1.0, radius / norm)
            q = dtrtrs(l, p, lower=1)[0]
            mu += (norm * norm / (q @ q)) * (norm - radius) / radius
            if mu <= 0.0 and low == 0.0 and not zero_tried:
                mu, zero_tried = 0.0, True
                continue
        else:
            gap, refactored = _failed_pivot_gap(hess, diagonal, mu, info)
            factorizations += refactored
            low = max(low, mu + gap)
        if not low < mu < high:
            mu = max(math.sqrt(low * high), 1e-3 * high)
    return best, mu, factorizations


def _failed_pivot_gap(hess, diagonal, mu, k):
    """delta / ||v||^2 >= 0 for a Cholesky factorization of hess + mu I
    that failed at pivot k (LAPACK's info), and the factorizations it took.

    The leading k x k block of hess + mu I is [[A, a], [a^T, d]] with A
    positive definite and d - a^T A^-1 a = -delta <= 0, so v = (A^-1 a, -1)
    has v^T (hess + mu I) v = -delta, and -lambda_min(hess) is at least
    mu + delta / ||v||^2 (More and Sorensen 1983, section 3). LAPACK leaves
    the array undocumented after a failure, so A is factored again as
    L L^T: w = L^-1 a gives delta = w^T w - d, and A^-1 a = L^-T w.
    """
    j = k - 1
    if j == 0:
        return max(0.0, -(diagonal[0] + mu)), 0
    # hess is symmetric: its transpose copies by rows into Fortran order
    head = np.array(hess[:j, :j].T, order="F")
    head.reshape(-1, order="F")[:: j + 1] = diagonal[:j] + mu
    l, info = dpotrf(head, lower=1, overwrite_a=1)
    if info != 0:
        return 0.0, 1
    w = dtrtrs(l, hess[:j, j], lower=1)[0]
    delta = w @ w - (diagonal[j] + mu)
    y = dtrtrs(l, w, lower=1, trans=1)[0]
    return max(0.0, delta / (1.0 + y @ y)), 1


def _to_boundary(p, z, norm, radius):
    """The root of ||p + tau z|| = radius of smaller magnitude, for
    ||p|| = norm < radius and a unit z, in the form that does not cancel."""
    along = p @ z
    gap = (radius - norm) * (radius + norm)
    return gap / (along + math.copysign(math.sqrt(along * along + gap), along))


def _newton(fg, hessian, x, f, g, tolerance, callback):
    """Trust-region Newton from x, with f, g = fg(x), until the gradient
    infinity norm is at most tolerance or _MAX_ITERATIONS steps are taken.

    callback(x) runs once per step taken. A trial point with a non-finite
    J is rejected. A step is taken on the ratio of actual to predicted
    decrease, each raised by 10 eps max(1, |J|) so that decreases below
    the float noise of J count as agreeing (Conn, Gould and Toint,
    Trust-Region Methods, 17.4.2). Each step's search for mu starts from
    the last step's. The loop also ends when no step is found or the step
    falls to the float resolution of x, as rejected steps near a zero of
    J make it. Returns x, f, g, the steps taken and the Cholesky
    factorizations tried.
    """
    iterations, factorizations, mu = 0, 0, 0.0
    # Short first steps keep the fit near its start; from a radius of the
    # start's full size, more sparse records ended at a higher J.
    radius = 0.1 * max(math.sqrt(x @ x), 1.0)
    b = hessian(x)
    bracket = _bracket(b)
    while np.abs(g).max() > tolerance and iterations < _MAX_ITERATIONS:
        p, mu, tries = _step(b, g, radius, mu, bracket)
        factorizations += tries
        if p is None:
            break
        length = math.sqrt(p @ p)
        if length <= _EPS * math.sqrt(x @ x):
            break
        predicted = -(g @ p + 0.5 * (p @ b @ p))
        trial = x + p
        f_new, g_new = fg(trial)
        floor = 10.0 * _EPS * max(1.0, abs(f))
        ratio = (f - f_new + floor) / (predicted + floor) if predicted > 0 and math.isfinite(f_new) else 0.0
        if ratio < _SHRINK:
            radius = _SHRINK * length
        elif ratio > _GROW and length >= 0.9 * radius:
            radius = 2.0 * radius
        if ratio > _ACCEPT:
            x, f, g = trial, f_new, g_new
            b = hessian(x)
            bracket = _bracket(b)
            iterations += 1
            if callback is not None:
                callback(x)
    return x, f, g, iterations, factorizations
