"""Exception types shared across the package.

The CLI maps these onto exit codes: config/usage problems exit 2, data
problems exit 3, numerical failures exit 4, and a simulation that produced
partial results exits 1. A transport timeout fails the node that hit it.
"""


class GptdfError(Exception):
    """Base class for all package errors."""


class ConfigError(GptdfError):
    """Malformed configuration, scenario, or benchmark description."""


class DataError(GptdfError):
    """Unusable input data: empty, unparseable, degenerate, or too short."""


class NumericalError(GptdfError):
    """Linear-algebra failure that survived all numerical safeguards."""


class TransportError(GptdfError):
    """A registry connection or reply that timed out."""


class PartialFailure(GptdfError):
    """A multi-node run finished but one or more nodes failed."""


# What parsing outside JSON (a wire line, a registry record, a settings file)
# and building objects from it may raise on bad input: JSON nested past the
# recursion limit, an integer past the digit limit, a number too large for a
# float or int, a missing, mistyped or out-of-range field. Every boundary
# catches this tuple and raises the typed error its callers expect.
MALFORMED = (KeyError, TypeError, ValueError, ArithmeticError, RecursionError)


def check_keys(d, allowed, what):
    """Raise ValueError unless the settings entry `d` is a JSON object whose
    keys all lie in `allowed`: a misspelled key would run with its default."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    if not set(d) <= set(allowed):
        raise ValueError(f"unknown {what} keys: {sorted(set(d) - set(allowed))}")
