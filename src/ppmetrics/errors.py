"""Exception types and the scalar-parameter rules shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies. The public scalar parameters pass
:func:`check_real` or :func:`check_count`, which name one they refuse.
"""

import operator

__all__ = ["DimensionMismatchError", "PatternFileError"]

_INF = float("inf")


class DimensionMismatchError(ValueError):
    """Two geometric objects do not share a coordinate dimension."""


class PatternFileError(ValueError):
    """A pattern text file could not be parsed.

    Carries the offending line number when one is known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def check_real(name, value, above=None, at_least=None, below=None, at_most=None):
    """``value`` as a float if it is finite and within every bound given; else
    a ``ValueError`` such as "cap must be a finite positive real, got 0.0"."""
    x = float(value)
    # float() would parse a string, which is no real
    if (-_INF < x < _INF and not isinstance(value, str)
            and (above is None or x > above) and (at_least is None or x >= at_least)
            and (below is None or x < below) and (at_most is None or x <= at_most)):
        return x
    rules = [f"{op} {bound}" for op, bound in zip(
        (">", ">=", "<", "<="), (above, at_least, below, at_most)) if bound is not None]
    rule = "positive real" if rules == ["> 0"] else f"real {' and '.join(rules)}".rstrip()
    raise ValueError(f"{name} must be a finite {rule}, got {value}")


def check_count(name, value, at_least=0):
    """``operator.index(value)`` if that is at least ``at_least``; else, for
    any float too, a ``ValueError`` naming ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        count = at_least - 1
    if count >= at_least:
        return count
    raise ValueError(f"{name} must be an integer >= {at_least}, got {value}")

