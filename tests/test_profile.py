"""The property tests run under one hypothesis profile, loaded by
conftest for every test: a failure found on one run is found on every
run, on every machine."""

from hypothesis import settings


def test_property_tests_draw_fixed_examples():
    assert settings().derandomize is True
    assert settings().database is None
