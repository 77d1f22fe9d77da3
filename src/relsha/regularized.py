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
triangle R of [H | h] = QR, found by Gram-Cholesky with QR as the
fallback, when the record has more than 2n + 1 samples. An evaluation
then costs O(n^2) whatever the record length m; normalize_terms still
divides by m.

The minimization is _newton, a trust-region Newton method on the exact
Hessian B (Nocedal & Wright, Numerical Optimization, ch. 4). Each step
is p = -(B + mu I)^-1 g, factored by Cholesky, with mu >= 0 found by
Newton's method on the secular equation ||p(mu)|| = radius (More &
Sorensen 1983). Where the quartic penalty makes B indefinite, mu
shifts the model to a positive-definite one inside the radius, so
negative curvature bends the step instead of stalling the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .constituents import ConstituentCatalog
from .design import PreparedRecord, _pair_squares, classify_regime, prepare, unpack_state
from .ha import RANK_RCOND
from .series import HarmonicSolution, WaterLevelSeries

# A step is taken when J falls by more than _ACCEPT of the model's
# predicted fall; the radius shrinks below _SHRINK and grows above _GROW
# (Nocedal & Wright, Algorithm 4.1).
_ACCEPT, _SHRINK, _GROW = 0.15, 0.25, 0.75
# Cholesky factorizations one trust-region step may try.
_MAX_FACTORIZATIONS = 20


@dataclass(frozen=True)
class RelshaConfig:
    """Solver controls.

    lam is the regularization weight in [0, 1] balancing data misfit
    against the amplitude prior. The optimizer stops when the gradient
    infinity norm falls below gradient_tolerance * (1 + |J0|), J0 being
    the objective at the starting point, or after max_iterations
    trust-region Newton steps. normalize_terms divides the data term by
    the sample count and the penalty by the constituent count, making lam
    transferable across sampling plans; the default keeps the raw sums.
    """

    lam: float = 0.5
    max_iterations: int = 2000
    gradient_tolerance: float = 1e-8
    normalize_terms: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (self.gradient_tolerance > 0):
            raise ValueError("gradient_tolerance must be positive")


def _term_weights(lam: float, m: int, n: int, normalize: bool) -> tuple[float, float]:
    if normalize:
        return (1.0 - lam) / m, lam / n
    return 1.0 - lam, lam


def relsha_value_and_gradient(
    x: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    ref_squares: np.ndarray,
    lam: float,
    normalize: bool = False,
    rest: float = 0.0,
    sample_count: int | None = None,
) -> tuple[float, np.ndarray]:
    """Value and analytic gradient of the regularized objective at state x.

    The data term is ||a x - b||^2 + rest: a raw design H with heights h
    is the case a = H, b = h, rest = 0, and a prepared record supplies its
    compressed (a, b, rest). With normalize, the data term is divided by
    sample_count (the record's m; default the rows of a) and the penalty
    by n.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ref_squares = np.asarray(ref_squares, dtype=float)
    _check_dimensions(x, a, b, ref_squares)
    rows, two_n = a.shape
    m = rows if sample_count is None else sample_count
    w_data, w_reg = _term_weights(lam, m, two_n // 2, normalize)
    return _value_and_gradient(x, a, b, ref_squares, w_data, w_reg, rest)


def _check_dimensions(x: np.ndarray, a: np.ndarray, b: np.ndarray, ref_squares: np.ndarray) -> None:
    rows, two_n = a.shape
    if x.shape != (two_n,) or b.shape != (rows,) or ref_squares.shape != (two_n // 2,):
        raise ValueError(
            f"inconsistent dimensions: design {a.shape}, x {x.shape}, "
            f"heights {b.shape}, ref_squares {ref_squares.shape}"
        )


def _value_and_gradient(
    x: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    ref_squares: np.ndarray,
    w_data: float,
    w_reg: float,
    rest: float,
) -> tuple[float, np.ndarray]:
    """The objective's one formula, on float arrays already checked by
    _check_dimensions; the solver calls it on every trial step."""
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
    """The objective's Hessian at x, with gram = a^T a formed once per solve."""
    s = _pair_squares(x) - ref_squares
    pairs = np.tile(np.eye(s.size), (2, 2))
    curvature = np.diag(4.0 * w_reg * np.concatenate([s, s]))
    return 2.0 * w_data * gram + curvature + 8.0 * w_reg * np.outer(x, x) * pairs


def _initial_state(a: np.ndarray, b: np.ndarray, target_magnitude: np.ndarray) -> np.ndarray:
    """Starting state with pair magnitudes set to the reference amplitudes.

    The penalty pulls each pair magnitude A_k f_k to the reference A_0k,
    so the start puts it there: it keeps the phases of the minimum-norm
    least-squares solution and rescales each (cos, sin) pair to magnitude
    A_0k. A pair that solution leaves at zero starts at phase zero.
    """
    n = a.shape[1] // 2
    x0, _, _, _ = np.linalg.lstsq(a, b, rcond=RANK_RCOND)
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
    if len(series) < 2:
        raise ValueError("relsha_fit requires at least 2 samples")
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
    w_data, w_reg = _term_weights(config.lam, record.sample_count, catalog.n, config.normalize_terms)

    gram = a.T @ a

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        return _value_and_gradient(x, a, b, ref_squares, w_data, w_reg, rest)

    def hessian(x: np.ndarray) -> np.ndarray:
        return _hessian(x, gram, ref_squares, w_data, w_reg)

    x = _initial_state(a, b, reference)
    _check_dimensions(x, a, b, ref_squares)

    j0, g0 = fg(x)
    tolerance = config.gradient_tolerance * (1.0 + abs(j0))
    x, final_objective, final_gradient, iterations = _newton(
        fg, hessian, x, j0, g0, tolerance, config.max_iterations, callback
    )
    gradient_norm = float(np.abs(final_gradient).max())
    diagnostics = RelshaDiagnostics(
        objective=final_objective,
        initial_objective=j0,
        gradient_norm=gradient_norm,
        gradient_tolerance=tolerance,
        iterations=iterations,
        restarts=0,
        converged=gradient_norm <= tolerance,
        regime=classify_regime(record.sample_count, catalog.n),
        sample_count=record.sample_count,
    )
    return RelshaResult(solution=record.solution(*unpack_state(x, catalog)), diagnostics=diagnostics)


def _step(hess, g, radius):
    """A trust-region step p = -(hess + mu I)^-1 g with mu >= 0, or None.

    mu = 0 when that is positive definite with p inside the radius.
    Otherwise mu stays in More and Sorensen's bracket, which each
    factorization narrows: Newton's method on 1/||p(mu)|| = 1/radius
    proposes the next mu, a failed factorization raises the lower end,
    and a proposal outside the bracket is replaced by its safeguard. A
    p within 10% of the radius is returned at once; when the
    factorizations run out, the last p found, cut back to the radius.
    """
    identity = np.eye(g.size)
    scale = np.linalg.norm(g) / radius
    bound = np.abs(hess).sum(axis=0).max()
    mu, low, high = 0.0, max(0.0, -np.diag(hess).min(), scale - bound), scale + bound
    best = None
    for _ in range(_MAX_FACTORIZATIONS):
        u, info = dpotrf(hess + mu * identity, overwrite_a=1)
        if info == 0:
            p = dpotrs(u, -g)[0]
            norm = np.linalg.norm(p)
            if (mu == 0.0 and norm <= radius) or abs(norm - radius) <= 0.1 * radius:
                return p
            best = p * min(1.0, radius / norm)
            if norm < radius:
                high = min(high, mu)
            else:
                low = max(low, mu)
            q = dtrtrs(u, p, trans=1)[0]
            mu += (norm / np.linalg.norm(q)) ** 2 * (norm - radius) / radius
        else:
            low = max(low, mu)
        if not low < mu < high:
            mu = max(np.sqrt(low * high), 1e-3 * high)
    return best


def _newton(fg, hessian, x, f, g, tolerance, max_iterations, callback):
    """Trust-region Newton from x, with f, g = fg(x), until the gradient
    infinity norm is at most tolerance or max_iterations steps are taken.

    callback(x) runs once per step taken. A trial point with a non-finite
    J is rejected. The loop also ends when no step is found or the step
    falls to the float resolution of x, as rejected steps near a zero of
    J make it. Returns x, f, g and the steps taken.
    """
    iterations = 0
    # Short first steps keep the fit near its start; from a radius of the
    # start's full size, more sparse records ended at a higher J.
    radius = 0.1 * max(np.linalg.norm(x), 1.0)
    b = hessian(x)
    while np.abs(g).max() > tolerance and iterations < max_iterations:
        p = _step(b, g, radius)
        if p is None:
            break
        length = np.linalg.norm(p)
        if length <= np.finfo(float).eps * np.linalg.norm(x):
            break
        predicted = -(g @ p + 0.5 * (p @ b @ p))
        f_new, g_new = fg(x + p)
        ratio = (f - f_new) / predicted if predicted > 0 and np.isfinite(f_new) else 0.0
        if ratio < _SHRINK:
            radius = _SHRINK * length
        elif ratio > _GROW and length >= 0.9 * radius:
            radius = 2.0 * radius
        if ratio > _ACCEPT:
            x, f, g = x + p, f_new, g_new
            b = hessian(x)
            iterations += 1
            if callback is not None:
                callback(x)
    return x, f, g, iterations
