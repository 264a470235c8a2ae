"""Exception types shared across the package, and the one settings reader.

The CLI maps these onto exit codes: config/usage problems exit 2, data
problems exit 3, numerical failures exit 4, and a simulation that produced
partial results exits 1. A transport failure fails the node that hit it.
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
    """A registry connection that failed, or a reply that timed out."""


class PartialFailure(GptdfError):
    """A multi-node run finished but one or more nodes failed."""


# What parsing outside JSON (a wire line, a registry record, a settings file)
# and building objects from it may raise on bad input: JSON nested past the
# recursion limit, an integer past the digit limit, a number too large for a
# float or int, a missing, mistyped or out-of-range field. Every boundary
# catches this tuple and raises the typed error its callers expect.
MALFORMED = (KeyError, TypeError, ValueError, ArithmeticError, RecursionError)


_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               type(None): "null", list: "a JSON list", dict: "a JSON object"}


def read_settings(value, kind, what):
    """Return the settings value `value` checked against `kind`, converting
    nothing; raise ValueError, naming `what`, on a mismatch. `kind` is
    - a dict of the keys a JSON object may hold, each mapped to the kind of
      its value: an absent key is left out, so the caller's defaults hold;
    - [k]: a JSON list of values of kind k, returned as a tuple;
    - a JSON type or a tuple of them (int, float, str, bool, type(None),
      list, dict): an integer is a valid float, a boolean is no number;
    - any other callable: a builder that reads a nested entry."""
    if isinstance(kind, dict):
        unknown = set(read_settings(value, dict, what)) - set(kind)
        if unknown:
            raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
        return {key: read_settings(v, kind[key], f"{what} {key!r}") for key, v in value.items()}
    if isinstance(kind, list):
        return tuple(read_settings(v, kind[0], f"{what}[{i}]")
                     for i, v in enumerate(read_settings(value, list, what)))
    if not isinstance(kind, (type, tuple)):
        return kind(value)
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if (bool in kinds if isinstance(value, bool) else
            isinstance(value, kinds) or float in kinds and isinstance(value, int)):
        return value
    raise ValueError(f"{what} must be {' or '.join(_JSON_NAMES[k] for k in kinds)}, "
                     f"got {value!r:.60}")
