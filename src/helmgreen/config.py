"""Strict reader for run configs and medium files.

Every value the CLI and `dispersion.load_medium` take from a file passes
through here, so malformed input is a ConfigError (exit code 2) before any
numerical work. A number is a finite JSON number, not a bool or a string; a
count is an integral number within its bounds (1e4 is accepted); null is
never a value, so a key is either given or absent.
"""

import json
import os
import sys

from .errors import ConfigError


def load(path, what):
    """The parsed JSON file at `path`; `what` names the file in errors."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"{what} path must be a string, got {path!r}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None


def fields(obj, where, required=(), optional=None):
    """The values of the JSON object `obj`: its `required` keys in order, then
    its `optional` keys (a dict of defaults). Unknown, missing or null keys fail."""
    optional = optional or {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    for problem, keys in (
        ("unknown", sorted(set(obj) - set(required) - set(optional))),
        ("missing", [key for key in required if key not in obj]),
        ("null", sorted(key for key, val in obj.items() if val is None)),
    ):
        if keys:
            raise ConfigError(f"{problem} key(s) {keys} in {where}")
    return [obj[key] for key in required] + [obj.get(key, val) for key, val in optional.items()]


def number(val, name):
    """A finite JSON number as a float."""
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not abs(val) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {val!r}")
    return float(val)


def count(val, name, minimum=1, maximum=float("inf")):
    """An integral JSON number in [minimum, maximum] as an int."""
    out = number(val, name)
    if not (out.is_integer() and minimum <= out <= maximum):
        raise ConfigError(f"{name} must be an integer in [{minimum}, {maximum}], got {val!r}")
    return int(out)


def index(val, name, size):
    """An index into `size` points: an integral JSON number in [0, size - 1]."""
    return count(val, name, 0, size - 1)


def numbers(val, name, size=None):
    """A non-empty JSON list of numbers (exactly `size` of them when given), as floats."""
    if not isinstance(val, list) or not val or (size is not None and len(val) != size):
        what = "a non-empty list" if size is None else f"a list of {size}"
        raise ConfigError(f"{name} must be {what} numbers, got {val!r}")
    return [number(v, f"{name}[{i}]") for i, v in enumerate(val)]


def record(obj, where, required=(), optional=None):
    """The `fields` of `obj`, every one a number, as a tuple of floats."""
    keys = [*required, *(optional or {})]
    values = fields(obj, where, required, optional)
    return tuple(number(val, f"{where}.{key}") for key, val in zip(keys, values))


def complex_of(val, name):
    """A complex number from a JSON object {"re": ..., "im": ...}; each part defaults to 0."""
    return complex(*record(val, name, (), {"re": 0.0, "im": 0.0}))


def items(val, name):
    """A JSON list, possibly empty."""
    if not isinstance(val, list):
        raise ConfigError(f"{name} must be a list, got {val!r}")
    return val


def choice(val, name, options):
    """One of the strings `options`."""
    if not isinstance(val, str) or val not in options:
        raise ConfigError(f"{name} must be one of {sorted(options)}, got {val!r}")
    return val
