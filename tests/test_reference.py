"""The precision rule of tests/reference.py, and the gate that keeps every
setting of mpmath's precision in it."""

import ast
from pathlib import Path

import mpmath
import pytest

from crackwake import Bimaterial, three_point_preset

from reference import at_digits, converged, gradient_error, station_gradient_mp

PRESET_3_05, BM_1_3 = three_point_preset(1.0, 3.0, 0.5), Bimaterial(1.0, 3.0)


def counted(f):
    """f, and the list that each of its calls appends to."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        return f(*args)

    wrapper.__name__ = f.__name__
    return wrapper, calls


def test_a_well_conditioned_reference_returns_after_the_first_comparison():
    """The station gradient at d = 1e-8 agrees at 32 and 64 digits."""
    gradient, calls = counted(station_gradient_mp)
    converged(gradient, PRESET_3_05, BM_1_3, 1e-8, 0.3)
    assert len(calls) == 2


def test_a_value_that_never_settles_raises_at_the_cap():
    """The working epsilon halves its exponent at each doubling: evaluated
    at 32, 64, ..., 1024 digits, then refused."""
    eps, calls = counted(lambda: +mpmath.eps)
    with pytest.raises(ArithmeticError, match="^<lambda> did not settle to 1e-25 relative by 1024 digits$"):
        converged(eps)
    assert len(calls) == 6


def test_fifty_digits_miss_the_station_gradient_next_to_the_tip():
    """At d = 1e-100 each station's order-1 term is about 1e50 times the
    K-field, so 50 digits, the fixed precision the near-tip test once read,
    give g1 = 2.39e48: 1.96e-2 off in norm."""
    reference = converged(station_gradient_mp, PRESET_3_05, BM_1_3, 1e-100, 0.3)
    assert [float(v) for v in reference] == [pytest.approx(2.7536188e48, rel=1e-7),
                                             pytest.approx(-1.8219571e49, rel=1e-7)]
    assert gradient_error(at_digits(50, station_gradient_mp, PRESET_3_05, BM_1_3, 1e-100, 0.3), reference) > 1e-2


# The test files that may set mpmath's precision: the references, through
# converged(), and the quadrature engine's own mpmath checks.
PRECISION_OWNERS = {"reference.py", "test_quad.py"}
PRECISION_SETTERS = {"workdps", "workprec", "extradps", "extraprec"}


def sets_precision(node) -> bool:
    """A precision context manager by any name, or mp.dps / mp.prec however
    mp is reached."""
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2] in PRECISION_SETTERS
    if isinstance(node, ast.Name):
        return node.id in PRECISION_SETTERS
    return isinstance(node, ast.Attribute) and (
        node.attr in PRECISION_SETTERS
        or node.attr in ("dps", "prec") and ast.unparse(node.value).rpartition(".")[2] == "mp")


def test_only_the_reference_module_sets_mpmath_precision():
    """A reference at a fixed precision of its own is blind where its
    formula cancels; the rest of the tests read converged()."""
    owners = {path.name for path in Path(__file__).parent.glob("*.py")
              if any(sets_precision(node) for node in ast.walk(ast.parse(path.read_text())))}
    assert owners == PRECISION_OWNERS
