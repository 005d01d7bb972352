"""Shared fixtures: small health-care databases and a TPC-H instance."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import Database
from repro.tpch import load_tpch

#: ``pytest --hypothesis-profile=ci``: ten times the default example
#: budget for properties that leave ``max_examples`` to the profile
settings.register_profile("ci", max_examples=1000)


@pytest.fixture
def db() -> Database:
    """An empty database."""
    return Database()


@pytest.fixture
def patients_db() -> Database:
    """The paper's running example: Patients / Disease (+ a log table)."""
    database = Database()
    database.execute(
        "CREATE TABLE patients (patientid INT PRIMARY KEY, "
        "name VARCHAR NOT NULL, age INT, zip VARCHAR)"
    )
    database.execute(
        "CREATE TABLE disease (patientid INT, disease VARCHAR)"
    )
    database.execute(
        "CREATE TABLE log (ts VARCHAR, uid VARCHAR, query VARCHAR, "
        "patientid INT)"
    )
    database.execute(
        "INSERT INTO patients VALUES "
        "(1, 'Alice', 40, '98101'), (2, 'Bob', 25, '98102'), "
        "(3, 'Carol', 33, '98101'), (4, 'Dave', 58, '98103'), "
        "(5, 'Erin', 47, '98102')"
    )
    database.execute(
        "INSERT INTO disease VALUES "
        "(1, 'cancer'), (2, 'flu'), (3, 'flu'), (4, 'diabetes'), "
        "(5, 'cancer'), (5, 'flu')"
    )
    return database


#: tiny scale factor shared by all TPC-H tests (≈300 customers)
TPCH_SCALE = 0.002


@pytest.fixture(scope="session")
def tpch_db() -> Database:
    """A loaded TPC-H database, shared by read-only tests."""
    database = Database()
    load_tpch(database, scale_factor=TPCH_SCALE)
    return database
