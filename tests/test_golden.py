"""Byte identity of the command outputs: each output's SHA-256 digest
equals the one committed in tests/golden/digests.json (see
tests/golden/regenerate.py for the outputs and how to regenerate)."""

import json

import pytest

from golden import regenerate

EXPECTED = json.loads(regenerate.DIGESTS.read_text())


@pytest.fixture(scope="module")
def actual():
    return regenerate.digests()


def test_every_output_has_a_digest(actual):
    assert sorted(actual) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_is_byte_identical(actual, name):
    assert actual[name] == EXPECTED[name]
