import math

import pytest

from relsha.constituents import (
    Constituent,
    ConstituentCatalog,
    load_catalog,
    load_default_catalog,
)


def write(tmp_path, text, name="catalog.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_single_row_m2(tmp_path):
    catalog = load_catalog(write(tmp_path, "M2, 28.9841042\n"))
    assert catalog.n == 1
    m2 = catalog.constituents[0]
    # 360 / 28.9841042 deg/h is the familiar 12 h 25 min semidiurnal period
    assert abs(2 * math.pi / m2.speed - 12.4206) < 1e-3
    assert m2.nodal_factor == 1.0


def test_explicit_defaults_match_implicit(tmp_path):
    explicit = load_catalog(write(tmp_path, "M2, 28.98, 1.0\n", "a.csv"))
    implicit = load_catalog(write(tmp_path, "M2, 28.98\n", "b.csv"))
    assert explicit.constituents[0] == implicit.constituents[0]


def test_default_catalog_has_37_constituents():
    catalog = load_default_catalog()
    assert catalog.n == 37
    assert catalog.names[0] == "M2"


def test_index_of_follows_file_order():
    catalog = load_default_catalog()
    assert catalog.index_of("M2") == 0
    for k, constituent in enumerate(catalog.constituents):
        assert catalog.index_of(constituent.name) == k


def test_index_of_unknown_name():
    catalog = load_default_catalog()
    with pytest.raises(KeyError):
        catalog.index_of("ZZ9")
    assert "ZZ9" not in catalog.names


def test_duplicate_name_rejected(tmp_path):
    with pytest.raises(ValueError, match="duplicate"):
        load_catalog(write(tmp_path, "M2, 28.98\nM2, 30.0\n"))


def test_nonpositive_speed_rejected(tmp_path):
    with pytest.raises(ValueError, match="row 2"):
        load_catalog(write(tmp_path, "M2, 28.98\nS2, -30.0\n"))


def test_malformed_row_reported_with_row_number(tmp_path):
    with pytest.raises(ValueError, match="row 3"):
        load_catalog(write(tmp_path, "# header\nM2, 28.98\nS2\n"))
    with pytest.raises(ValueError, match="row 1"):
        load_catalog(write(tmp_path, "S2, thirty\n", "b.csv"))


def test_empty_catalog_rejected(tmp_path):
    with pytest.raises(ValueError, match="no constituent rows"):
        load_catalog(write(tmp_path, "# nothing here\n"))
    with pytest.raises(ValueError):
        ConstituentCatalog(())


def test_round_trip_with_nodal_columns(tmp_path):
    path = write(tmp_path, "M2, 28.9841042, 1.02\nS2, 30.0\n")
    catalog = load_catalog(path)
    assert catalog.constituents[0].nodal_factor == 1.02
    assert catalog.speeds.tolist() == [math.radians(28.9841042), math.radians(30.0)]
    assert catalog.nodal_factors.tolist() == [1.02, 1.0]


def test_nodal_angle_column_rejected_with_row_number(tmp_path):
    # no fit applies u, so a 4th column is refused rather than dropped
    path = write(tmp_path, "# header\nM2, 28.9841042, 1.02\nS2, 30.0, 1.0, 12.5\n")
    with pytest.raises(ValueError, match=r"row 3: .*nodal angle u is not applied"):
        load_catalog(path)


def test_constituent_validation():
    with pytest.raises(ValueError, match="speed"):
        Constituent("X", 0.0)
    with pytest.raises(ValueError, match="nodal factor"):
        Constituent("X", 1.0, nodal_factor=0.0)
    with pytest.raises(ValueError, match="name"):
        Constituent("", 1.0)
