"""The tolerance policy: default, explicit override, SIGNED_DEC_EPS, and
the input error for a value that is not a finite nonnegative float."""

import numpy as np
import pytest

from signeddec.config import DEFAULT_EPS, tolerance
from signeddec.delaunay import classify_complex
from signeddec.errors import SignedDecError, ToleranceError
from signeddec.fixtures import generate_fixture
from signeddec.signed_dual import dual_table


def test_default_then_environment_then_override(monkeypatch):
    monkeypatch.delenv("SIGNED_DEC_EPS", raising=False)
    assert tolerance() == DEFAULT_EPS
    monkeypatch.setenv("SIGNED_DEC_EPS", "1e-6")
    assert tolerance() == 1e-6
    assert tolerance(0.0) == 0.0
    assert tolerance(np.float64(1e-3)) == 1e-3


def test_tolerance_error_is_package_and_value_error():
    assert issubclass(ToleranceError, SignedDecError)
    assert issubclass(ToleranceError, ValueError)


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf, -np.inf])
def test_bad_override_is_tolerance_error(value):
    with pytest.raises(ToleranceError, match="^tolerance must be finite and nonnegative"):
        tolerance(value)


@pytest.mark.parametrize("raw, message", [
    ("abc", "must be a float"),
    ("", "must be a float"),
    ("-1", "must be finite and nonnegative"),
    ("nan", "must be finite and nonnegative"),
    ("inf", "must be finite and nonnegative"),
    ("-inf", "must be finite and nonnegative"),
])
def test_bad_environment_value_is_tolerance_error(raw, message, monkeypatch):
    monkeypatch.setenv("SIGNED_DEC_EPS", raw)
    with pytest.raises(ToleranceError, match=f"^SIGNED_DEC_EPS {message}"):
        tolerance()
    # an explicit tolerance wins and does not read the variable
    assert tolerance(1e-8) == 1e-8


def test_classify_rejects_nan_tolerance():
    # NaN compares false, so it once made every pair "degenerate" and every
    # boundary facet "yes"
    mesh = generate_fixture("perturbed_delaunay_square", divisions=4)
    with pytest.raises(ToleranceError):
        classify_complex(mesh, tol=np.nan)


@pytest.mark.parametrize("tol, raw", [
    (-1.0, None), (np.nan, None), (np.inf, None), (None, "abc"), (None, "-1"),
])
def test_warm_dual_table_still_checks_the_tolerance(tol, raw, monkeypatch):
    # the memo is looked up before the tolerance is resolved; its keys are
    # resolved floats, so no invalid value may hit it
    monkeypatch.delenv("SIGNED_DEC_EPS", raising=False)
    mesh = generate_fixture("perturbed_delaunay_square", divisions=4)
    for dim in range(3):
        dual_table(mesh, dim)
        dual_table(mesh, dim, tol=DEFAULT_EPS)
    if raw is not None:
        monkeypatch.setenv("SIGNED_DEC_EPS", raw)
    for dim in range(3):
        with pytest.raises(ToleranceError):
            dual_table(mesh, dim, tol=tol)


@pytest.mark.parametrize("value, name", [
    (True, "bool"), (False, "bool"), (np.True_, "bool"), (np.False_, "bool"),
    ("1e-3", "str"), (1e-3 + 0j, "complex"), ([1e-3], "list"), (np.array([1e-3]), "ndarray"),
])
def test_non_number_override_is_tolerance_error(value, name):
    # a bool once read as 1.0 or 0.0, and a str, complex or list reached the
    # comparison with a bare TypeError
    with pytest.raises(ToleranceError, match=f"^tolerance must be a real number, got {name}$"):
        tolerance(value)


def test_warm_memo_refuses_a_bool_tolerance(monkeypatch):
    # True hashes as 1.0 does, so no memo entry of tolerance 1.0 may answer it
    monkeypatch.delenv("SIGNED_DEC_EPS", raising=False)
    mesh = generate_fixture("perturbed_delaunay_square", divisions=4)
    classify_complex(mesh, tol=1.0)
    classify_complex(mesh, tol=0.0)
    for tol in (True, np.False_):
        with pytest.raises(ToleranceError, match="got bool$"):
            classify_complex(mesh, tol=tol)
        with pytest.raises(ToleranceError, match="got bool$"):
            dual_table(mesh, 1, tol=tol)
