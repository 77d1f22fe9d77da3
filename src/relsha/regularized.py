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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

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
    gradient_norm = float(np.abs(g0).max())
    iterations = 0
    restarts = 0
    while gradient_norm > tolerance and iterations < config.max_iterations:
        if restarts > _MAX_RESTARTS:
            break
        result = minimize(
            fg,
            x,
            jac=True,
            method="BFGS",
            callback=callback,
            options={"maxiter": config.max_iterations - iterations, "gtol": tolerance},
        )
        x = result.x
        iterations += int(result.nit)
        gradient_norm = float(np.abs(fg(x)[1]).max())
        if result.nit == 0:
            break
        restarts += 1

    final_objective, final_gradient = fg(x)
    gradient_norm = float(np.abs(final_gradient).max())
    diagnostics = RelshaDiagnostics(
        objective=final_objective,
        initial_objective=j0,
        gradient_norm=gradient_norm,
        gradient_tolerance=tolerance,
        iterations=iterations,
        restarts=max(restarts - 1, 0),
        converged=gradient_norm <= tolerance,
        regime=classify_regime(record.sample_count, catalog.n),
        sample_count=record.sample_count,
    )
    return RelshaResult(solution=record.solution(*unpack_state(x, catalog)), diagnostics=diagnostics)
