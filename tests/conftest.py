import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import relsha
from relsha import ingest

settings.register_profile(
    "numeric", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("numeric")

YEAR_HOURS = 8766.0


def data_file(name: str):
    return relsha.default_catalog_path().with_name(name)


@pytest.fixture(scope="session")
def pack_state():
    """State vector of a solution, (A f cos(theta), -A f sin(theta)): the
    x that unpack_state maps back to it."""

    def pack(solution):
        af = solution.amplitudes * solution.catalog.nodal_factors
        return np.concatenate([af * np.cos(solution.phases), -af * np.sin(solution.phases)])

    return pack


@pytest.fixture()
def lstsq_calls(monkeypatch):
    """A list that gets one entry per np.linalg.lstsq call, the SVD solve
    of PreparedRecord.least_squares, while the test runs."""
    calls, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: calls.append(1) or lstsq(*args, **kwargs))
    return calls


@pytest.fixture(scope="session")
def catalog():
    return relsha.load_default_catalog()


@pytest.fixture(scope="session")
def truth(catalog):
    solution, _ = ingest.load_harmonics(data_file("synthetic_truth.csv"), catalog)
    return solution


@pytest.fixture(scope="session")
def base_series(truth):
    """Dense 6-min record, 5% longer than a year so one-year cuts can slide."""
    times = np.arange(0.0, 1.05 * YEAR_HOURS, 0.1)
    return relsha.synthesize_series(truth, times)


@pytest.fixture(scope="session")
def hourly_year(truth):
    """1-h sampling over one year: well conditioned, no constituent aliases."""
    return relsha.synthesize_series(truth, np.arange(0.0, YEAR_HOURS, 1.0))


@pytest.fixture(scope="session")
def reference_nearby(catalog):
    solution, _ = ingest.load_harmonics(data_file("reference_nearby.csv"), catalog)
    return solution


@pytest.fixture(scope="session")
def reference_offshore(catalog):
    solution, _ = ingest.load_harmonics(data_file("reference_offshore.csv"), catalog)
    return solution
