"""Tolerance policy.

All geometric predicates classify relative to a dimensionless tolerance.
The default (1e-10) can be overridden with the SIGNED_DEC_EPS environment
variable, read at call time so tests can adjust it per-process. A
tolerance must be one real number (not a bool), finite and nonnegative.
"""

import math
import numbers
import os

from .errors import ToleranceError

DEFAULT_EPS = 1e-10

# Top simplices with volume below this times (longest edge)^n are rejected
# at build time. Deliberately far below DEFAULT_EPS: build rejects only
# hopeless inputs, predicates handle near-degeneracy via classification.
DEGENERACY_FACTOR = 1e-12

_ENV_VAR = "SIGNED_DEC_EPS"


def _checked(value, name):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # numpy bools are not Real
        raise ToleranceError(f"{name} must be a real number, got {type(value).__name__}")
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise ToleranceError(f"{name} must be finite and nonnegative, got {value}")
    return float(value)


def tolerance(override=None):
    """Return the active relative tolerance.

    Explicit ``override`` wins, then the SIGNED_DEC_EPS environment
    variable, then the default. A value that is a bool or not a real
    number, negative, NaN or infinite, or an environment value that is not
    a float, raises ToleranceError, which is also a ValueError.
    """
    if override is not None:
        return _checked(override, "tolerance")
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_EPS
    try:
        value = float(raw)
    except ValueError:
        raise ToleranceError(f"{_ENV_VAR} must be a float, got {raw!r}") from None
    return _checked(value, _ENV_VAR)
