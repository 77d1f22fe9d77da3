"""Tidal constituent amplitude estimation from (under)sampled water levels.

Three estimators share one data model: classical least-squares harmonic
analysis (ha_fit), constrained harmonic analysis interpolating between
two reference gauges (cha_fit), and regularized least-squares harmonic
analysis (relsha_fit), which penalizes squared-amplitude deviation from a
reference site so the tidal amplitudes survive sampling intervals far
beyond the Nyquist limit of the constituents.
"""

from .cha import ChaResult, GaugeHarmonics, cha_fit
from .constituents import (
    Constituent,
    ConstituentCatalog,
    default_catalog_path,
    load_catalog,
    load_default_catalog,
)
from .design import OVERDETERMINED, UNDERDETERMINED
from .evaluation import (
    ErrorGrid,
    GridCell,
    default_intervals,
    default_lengths,
    interval_slice,
    rrmse,
    run_grid,
)
from .ha import HaResult, ha_fit
from .ingest import load_harmonics, load_water_levels
from .regularized import RelshaConfig, RelshaDiagnostics, RelshaResult, relsha_fit
from .series import (
    HarmonicSolution,
    SamplingPlan,
    WaterLevelSeries,
    apply_noise,
    detrend,
    resample,
    synthesize,
    synthesize_series,
)

__version__ = "0.1.0"

__all__ = [
    "ChaResult",
    "Constituent",
    "ConstituentCatalog",
    "ErrorGrid",
    "GaugeHarmonics",
    "GridCell",
    "HaResult",
    "HarmonicSolution",
    "OVERDETERMINED",
    "RelshaConfig",
    "RelshaDiagnostics",
    "RelshaResult",
    "SamplingPlan",
    "UNDERDETERMINED",
    "WaterLevelSeries",
    "apply_noise",
    "cha_fit",
    "default_catalog_path",
    "default_intervals",
    "default_lengths",
    "detrend",
    "ha_fit",
    "interval_slice",
    "load_catalog",
    "load_default_catalog",
    "load_harmonics",
    "load_water_levels",
    "relsha_fit",
    "resample",
    "rrmse",
    "run_grid",
    "synthesize",
    "synthesize_series",
]
