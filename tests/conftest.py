from __future__ import annotations

import json
import math

import numpy as np
import pytest

from zeta_workbench import DiracSpectrum, GroupPresentation, verify


@pytest.fixture
def toy_spectrum():
    """Three primitive classes, incommensurate lengths, mixed angles."""
    return verify.toy_spectrum()


@pytest.fixture
def sigma_k1():
    return 1.0


@pytest.fixture
def cyclic_presentation():
    """diag(2, 1/2): one loxodromic generator, length 2 ln 2 per step."""
    g = np.array([[2.0, 0.0], [0.0, 0.5]], dtype=complex)
    return GroupPresentation(generators=(g,), names=("g",), includes_inverses=True)


def schottky_pair(ratio_a: complex = 3.0, ratio_b: complex = 2.5):
    """Two loxodromic generators with disjoint fixed-point pairs and
    distinct translation lengths.

    a fixes {0, inf}; b is a conjugated diagonal fixing {1/2, 1}.  For
    moduli >= 2.5 ping-pong applies and the group is free.
    """
    lam = complex(ratio_a)
    mu = complex(ratio_b)
    a = np.array([[lam, 0.0], [0.0, 1.0 / lam]], dtype=complex)
    m = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
    m_inv = np.array([[2.0, -1.0], [-1.0, 1.0]], dtype=complex)
    b = m @ np.array([[mu, 0.0], [0.0, 1.0 / mu]], dtype=complex) @ m_inv
    return GroupPresentation(generators=(a, b), names=("a", "b"))


@pytest.fixture
def free_two_generator():
    return schottky_pair(3.0 * np.exp(0.4j), 2.5 * np.exp(-0.7j))


@pytest.fixture
def dirac_pm():
    """The worked catalog example: m(1) = 2, m(-1) = 1."""
    return DiracSpectrum(entries=((1.0, 2), (-1.0, 1)))


def assert_close(a, b, tol=1e-12, msg=""):
    gap = abs(a - b)
    assert gap <= tol, f"{msg} gap {gap:g} exceeds {tol:g} ({a} vs {b})"


TWO_LN_2 = 2.0 * math.log(2.0)


# JSON literals in a number's place: no finite number (an int beyond the
# float range too), a bool, a numeric string, a list
NOT_NUMBERS = (
    "NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" + "0" * 400, "true", '"2"', "[1.0]"
)


def with_literal(doc, literal: str) -> str:
    """doc's JSON text with the string "@" replaced by literal."""
    return json.dumps(doc).replace('"@"', literal)
