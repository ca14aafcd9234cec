"""Byte identity of the command outputs: each output's SHA-256 digest
equals the one committed in tests/golden/digests.json (see
tests/golden/regenerate.py for the outputs and how to regenerate).

The digests are computed in a child interpreter that refuses numpy and
scipy, so every output is also proof that its path runs without them."""

import json

import pytest

from golden import regenerate
from helpers import run_refusing_numpy

EXPECTED = json.loads(regenerate.DIGESTS.read_text())


@pytest.fixture(scope="module")
def computed():
    return run_refusing_numpy("from golden import regenerate\nresult = regenerate.digests()\n")


@pytest.fixture(scope="module")
def actual(computed):
    return computed[0]


def test_every_output_has_a_digest(actual):
    assert sorted(actual) == sorted(EXPECTED)


def test_no_output_tries_to_import_numpy_or_scipy(computed):
    assert computed[1] == []


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_is_byte_identical(actual, name):
    assert actual[name] == EXPECTED[name]
