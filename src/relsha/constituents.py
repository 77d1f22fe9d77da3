"""Tidal constituents and the ordered catalog shared by every solver.

The catalog fixes the constituent ordering k = 0..n-1; all state vectors,
design-matrix columns, and reference vectors follow that order. Angular
speeds are stored in radians per hour; catalog files carry degrees per
hour (the convention used by tide-gauge harmonic tables) and are converted
at load time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Constituent:
    """A single tidal constituent with its nodal factor.

    speed is the angular frequency in radians/hour; nodal_factor defaults
    to the no-correction value 1. No fit applies a nodal angle u.
    """

    name: str
    speed: float
    nodal_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("constituent name must be non-empty")
        if not (self.speed > 0):
            raise ValueError(f"constituent {self.name!r}: speed must be positive, got {self.speed}")
        if not (self.nodal_factor > 0):
            raise ValueError(
                f"constituent {self.name!r}: nodal factor must be positive, got {self.nodal_factor}"
            )


@dataclass(frozen=True)
class ConstituentCatalog:
    """Ordered, immutable list of constituents; order is load order."""

    constituents: tuple[Constituent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "constituents", tuple(self.constituents))
        if not self.constituents:
            raise ValueError("catalog must contain at least one constituent")
        seen: set[str] = set()
        for c in self.constituents:
            if c.name in seen:
                raise ValueError(f"duplicate constituent name {c.name!r}")
            seen.add(c.name)

    @property
    def n(self) -> int:
        return len(self.constituents)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.constituents)

    @cached_property
    def speeds(self) -> np.ndarray:
        a = np.array([c.speed for c in self.constituents])
        a.setflags(write=False)
        return a

    @cached_property
    def nodal_factors(self) -> np.ndarray:
        a = np.array([c.nodal_factor for c in self.constituents])
        a.setflags(write=False)
        return a

    @cached_property
    def _index(self) -> dict[str, int]:
        return {c.name: k for k, c in enumerate(self.constituents)}

    def index_of(self, name: str) -> int:
        """Position of the named constituent; raises KeyError if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown constituent {name!r}") from None


def _parse_row(raw: str, row_number: int) -> Constituent:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) < 2 or len(parts) > 3 or not parts[0]:
        raise ValueError(
            f"catalog row {row_number}: expected 'name, speed_deg_per_hour[, f]'"
            f" (a nodal angle u is not applied), got {raw!r}"
        )
    name = parts[0]
    try:
        speed_deg = float(parts[1])
        f = float(parts[2]) if len(parts) > 2 and parts[2] else 1.0
    except ValueError:
        raise ValueError(f"catalog row {row_number}: non-numeric field in {raw!r}") from None
    if not (speed_deg > 0):
        raise ValueError(f"catalog row {row_number}: speed must be positive, got {speed_deg}")
    return Constituent(name=name, speed=math.radians(speed_deg), nodal_factor=f)


def load_catalog(source: str | Path) -> ConstituentCatalog:
    """Load a constituent catalog from a delimited text file.

    Columns: ``name, speed_deg_per_hour[, f]``. Lines starting with ``#``
    and blank lines are ignored. Speeds are converted to radians/hour; a
    missing f defaults to 1. A nodal angle u is not applied, so a row
    with a 4th column is rejected rather than read and dropped. Rows are
    kept in file order, which becomes the canonical constituent order.
    """
    path = Path(source)
    rows: list[Constituent] = []
    with path.open("r", encoding="utf-8") as fh:
        for row_number, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            rows.append(_parse_row(stripped, row_number))
    if not rows:
        raise ValueError(f"catalog file {path} contains no constituent rows")
    return ConstituentCatalog(tuple(rows))


def default_catalog_path() -> Path:
    """Path of the bundled 37-constituent NOAA catalog file."""
    return Path(str(resources.files("relsha").joinpath("data/noaa37.csv")))


def load_default_catalog() -> ConstituentCatalog:
    return load_catalog(default_catalog_path())
