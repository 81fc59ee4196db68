"""Exception types shared across the package, and its checks of numbers.

Plain invalid arguments raise built-in ``ValueError``.  The classes here
mark *statistical* failure modes that callers may want to catch and treat
as data (a Monte Carlo run records them instead of aborting), plus the
aliasing guard for spectral sampling.

Every number from outside (a grid side, a band, a variance, a replication
count) is checked by ``_integer`` or ``_real``: a bool or a string is
refused, never read as 1.0 or parsed.
"""

import sys
from typing import Optional

import numpy as np


class AliasingError(ValueError):
    """A requested frequency exceeds what the grid can represent."""


class DegeneracyError(Exception):
    """Base class for statistical-degeneracy failures (CLI exit code 4)."""


class CollinearityError(DegeneracyError):
    """A design matrix is (numerically) rank deficient.

    ``columns`` names the columns implicated in the near-null direction.
    """

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        super().__init__(message)
        self.columns = tuple(columns)


class DegenerateResidualError(DegeneracyError):
    """Exposure residuals are numerically zero (fully spatial exposure)."""


class DegenerateExposureError(DegeneracyError):
    """The exposure has no variance; diagnostics on it are undefined."""


class EstimandUndefinedError(DegeneracyError):
    """A population conditioning block is singular; the target does not exist."""


class ConfigError(ValueError):
    """A scenario configuration document is malformed; names the field."""


def _is_real(value) -> bool:
    """True for an int, a float, or a numpy integer or floating value; a bool is not one."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _integer(value, name: str, lo: Optional[int], hi: Optional[int] = None) -> int:
    """``value`` as an int in [lo, hi] (lo None: no lower bound, hi None: no
    upper bound), else ``ValueError``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _real(value, name: str, lo: Optional[float] = None) -> float:
    """``value`` as a finite float, at least ``lo`` when given, else ``ValueError``."""
    # NaN, the infinities and an int beyond the float range fail the comparison.
    if not (_is_real(value) and -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be at least {lo}, got {value!r}")
    return float(value)
