"""Regularized least-squares harmonic analysis (ReLSHA).

Fits the 2n-dimensional state vector by minimizing

    J(x) = (1 - lam) * ||H x - h||^2 + lam * ||K(x . x) - q||^2

where h is the detrended water level, q holds the squared reference
amplitudes, and K(x . x) pairs the squared cosine/sine components into
per-constituent squared magnitudes. The analytic gradient

    dJ/dx = 2 (1 - lam) H^T (H x - h) + 4 lam x * expand(K(x . x) - q)

drives a quasi-Newton (BFGS) minimization; expand() duplicates the
n-vector onto both members of each pair.

The data term is evaluated on the record's compressed form from
design.prepare: ||H x - h||^2 = ||a x - b||^2 + rest, with a the 2n x 2n
triangle R of a QR factorization of [H | h] when the record has more
than 2n + 1 samples. A BFGS evaluation then costs O(n^2) whatever the
record length m; normalize_terms still divides by m.

The minimization is _bfgs, scipy's BFGS algorithm in one private loop:
the search direction -H g, scipy's line search (scalar_search_wolfe1,
falling back to scalar_search_wolfe2, imported from the private
scipy.optimize._linesearch), scipy's initial step guess and stop tests.
It differs from scipy.optimize.minimize in three ways: the inverse
Hessian takes the algebraically equal rank-2 update, O(n^2) in place
instead of two dense products; each trial step evaluates the objective
once, its gradient cached for the slope; and a run that stops on a
line-search failure restarts from a fresh Hessian inside the loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize._linesearch import LineSearchWarning, scalar_search_wolfe1, scalar_search_wolfe2

from .constituents import ConstituentCatalog
from .design import PreparedRecord, _pair_squares, classify_regime, prepare, unpack_state
from .ha import RANK_RCOND
from .series import HarmonicSolution, WaterLevelSeries

INIT_MIN_NORM_LS_RESCALED = "min_norm_ls_rescaled"
INIT_REFERENCE_ZERO_PHASE = "reference_zero_phase"
_INIT_STRATEGIES = (INIT_MIN_NORM_LS_RESCALED, INIT_REFERENCE_ZERO_PHASE)

# The BFGS tail can stall on the quartic term's flat directions; a fresh
# Hessian restart within the iteration budget reliably breaks the stall.
_MAX_RESTARTS = 8

# scipy's BFGS line-search constants.
_C1, _C2, _AMIN, _AMAX = 1e-4, 0.9, 1e-100, 1e100


@dataclass(frozen=True)
class RelshaConfig:
    """Solver controls.

    lam is the regularization weight in [0, 1] balancing data misfit
    against the amplitude prior. The optimizer stops when the gradient
    infinity norm falls below gradient_tolerance * (1 + |J0|), J0 being
    the objective at the starting point, or after max_iterations total
    quasi-Newton iterations. normalize_terms divides the data term by the
    sample count and the penalty by the constituent count, making lam
    transferable across sampling plans; the default keeps the raw sums.
    """

    lam: float = 0.5
    max_iterations: int = 2000
    gradient_tolerance: float = 1e-8
    normalize_terms: bool = False
    init_strategy: str = INIT_MIN_NORM_LS_RESCALED

    def __post_init__(self) -> None:
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (self.gradient_tolerance > 0):
            raise ValueError("gradient_tolerance must be positive")
        if self.init_strategy not in _INIT_STRATEGIES:
            raise ValueError(
                f"init_strategy must be one of {_INIT_STRATEGIES}, got {self.init_strategy!r}"
            )


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
    _check_dimensions; BFGS calls it on every evaluation."""
    r = a @ x - b
    s = _pair_squares(x) - ref_squares
    value = w_data * (r @ r + rest) + w_reg * (s @ s)
    grad = 2.0 * w_data * (a.T @ r) + 4.0 * w_reg * x * np.concatenate([s, s])
    return float(value), grad


def _initial_state(
    strategy: str,
    a: np.ndarray,
    b: np.ndarray,
    target_magnitude: np.ndarray,
) -> np.ndarray:
    """Starting state with pair magnitudes set to the reference amplitudes.

    min_norm_ls_rescaled keeps the phase of the minimum-norm least-squares
    solution (data-driven) and rescales each (cos, sin) pair to the prior
    magnitude A_0k f_k; reference_zero_phase starts all phases at zero.
    """
    n = a.shape[1] // 2
    if strategy == INIT_REFERENCE_ZERO_PHASE:
        return np.concatenate([target_magnitude, np.zeros(n)])
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
    restarts: int
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

    The series is detrended, the quasi-Newton minimization is run from the
    configured starting point, and the final state is unpacked into
    amplitudes and phases. A result is always returned; failure to reach
    the gradient tolerance within the iteration budget is reported through
    diagnostics.converged, never silently.
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

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        return _value_and_gradient(x, a, b, ref_squares, w_data, w_reg, rest)

    target = reference * catalog.nodal_factors
    x = _initial_state(config.init_strategy, a, b, target)
    _check_dimensions(x, a, b, ref_squares)

    j0, g0 = fg(x)
    tolerance = config.gradient_tolerance * (1.0 + abs(j0))
    x, final_objective, final_gradient, iterations, restarts = _bfgs(
        fg, x, j0, g0, tolerance, config.max_iterations, callback
    )
    gradient_norm = float(np.abs(final_gradient).max())
    diagnostics = RelshaDiagnostics(
        objective=final_objective,
        initial_objective=j0,
        gradient_norm=gradient_norm,
        gradient_tolerance=tolerance,
        iterations=iterations,
        restarts=restarts,
        converged=gradient_norm <= tolerance,
        regime=classify_regime(record.sample_count, catalog.n),
        sample_count=record.sample_count,
    )
    return RelshaResult(solution=record.solution(*unpack_state(x, catalog)), diagnostics=diagnostics)


def _line_search(fg, x, p, f, g, old_f):
    """scipy's BFGS line search along p from (x, f, g).

    Each trial step evaluates fg once; the slope at that step reuses the
    cached gradient. Both scalar searches end on an evaluation at the
    step they return, so the cache then holds (step, value, gradient);
    None when neither search finds a step.
    """
    latest = [None, None, None]

    def phi(alpha):
        if alpha != latest[0]:
            latest[0] = alpha
            latest[1], latest[2] = fg(x + alpha * p)
        return latest[1]

    def derphi(alpha):
        phi(alpha)
        return np.dot(latest[2], p)

    slope = np.dot(g, p)
    alpha = scalar_search_wolfe1(phi, derphi, f, old_f, slope, c1=_C1, c2=_C2, amax=_AMAX, amin=_AMIN)[0]
    if alpha is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LineSearchWarning)
            alpha = scalar_search_wolfe2(phi, derphi, f, old_f, slope, c1=_C1, c2=_C2, amax=_AMAX)[0]
        if alpha is None:
            return None
    phi(alpha)
    return alpha, latest[1], latest[2]


def _bfgs(fg, x, f, g, tolerance, max_iterations, callback):
    """BFGS from x, with f, g = fg(x), until the gradient infinity norm is
    at most tolerance or max_iterations iterations have run.

    A run that ends on a line-search failure, a zero step or a non-finite
    objective restarts from a fresh Hessian, up to _MAX_RESTARTS times;
    a fresh run that takes no step ends the loop. callback(x) runs once
    per iteration. Returns x, f, g, the iterations and the restarts
    (runs that took a step, minus one).
    """
    iterations = restarts = run_start = 0
    h = np.eye(x.size)
    old_f = f + np.linalg.norm(g) / 2
    while np.abs(g).max() > tolerance and iterations < max_iterations:
        p = -(h @ g)
        step = _line_search(fg, x, p, f, g, old_f)
        if step is not None:
            alpha, f_new, g_new = step
            s = alpha * p
            x = x + s
            y = g_new - g
            old_f, f, g = f, f_new, g_new
            iterations += 1
            if callback is not None:
                callback(x)
            if np.abs(g).max() <= tolerance:
                break
            if s.any() and np.isfinite(f):
                # (I - rho s y')H(I - rho y s') + rho s s', with v = H y.
                sy = y @ s
                rho = 1.0 / sy if sy != 0 else 1000.0
                v = h @ y
                h += np.outer(s, (rho * rho * (y @ v) + rho) * s - rho * v)
                h -= np.outer(rho * v, s)
                continue
        if iterations == run_start or restarts == _MAX_RESTARTS:
            break
        restarts += 1
        run_start = iterations
        h = np.eye(x.size)
        old_f = f + np.linalg.norm(g) / 2
    stepped_runs = restarts + (iterations > run_start)
    return x, f, g, iterations, max(stepped_runs - 1, 0)
