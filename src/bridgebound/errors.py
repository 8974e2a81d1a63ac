"""Exception types shared across the package, one per CLI exit code, the
declarative checker that every config object goes through, and the tables of
config keys it checks them against.

The tables are pure data, so a command parses its config without importing
the modules that run it; gcomp and data re-export the tables of their own
objects."""

import math
import numbers
import sys
from typing import NamedTuple


class BridgeboundError(Exception):
    """Unusable input or parameters (CLI exit code 2); base of all package errors."""


class ConfigError(BridgeboundError):
    """Bad or inconsistent run configuration (CLI exit code 2)."""


class NumericalFailure(BridgeboundError):
    """A factorization or solve failed; never masked with pinv (CLI exit code 3)."""


class VerificationFailure(BridgeboundError):
    """An oracle check failed (CLI exit code 4)."""


class DegenerateBenchmark(UserWarning):
    """Benchmark variable is constant within an arm; calibration collapses to zero."""


class Key(NamedTuple):
    """How one key of a config object is checked.

    kind is "int", "number", "bool" or "str"; a tuple of the allowed strings;
    a table (dict of Keys) for a nested JSON object; or a one-element list
    holding any of these for a JSON list of them. Lists must be non-empty,
    except lists of strings. A bool is never a number and a float never an
    integer. Numbers must lie in range, closed unless open is set, and be
    finite, except that inf lets +inf through; NaN never passes.
    """

    kind: object
    range: tuple = (-math.inf, math.inf)
    inf: bool = False
    required: bool = False
    open: bool = False


def check(where: str, raw, table: dict) -> dict:
    """Check the config object raw against table and return it unchanged.

    Raises ConfigError naming the object and the first offending key.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {_echo(raw)}")
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for name, key in table.items():
        if name not in raw:
            if key.required:
                raise ConfigError(f"{where} key '{name}' is required")
        elif not _fits(name, raw[name], key):
            raise ConfigError(f"{where} key '{name}' must be {_what(key)}, "
                              f"got {_echo(raw[name])}")
    return raw


_ECHO = 60   # characters of an offending value that a message repeats


def _echo(value) -> str:
    """repr(value), cut to _ECHO characters, its length noted, when longer."""
    text = repr(value)
    if len(text) <= _ECHO:
        return text
    return f"{text[:_ECHO - 3]}... ({len(text)} characters)"


def _fits(name: str, value, key: Key) -> bool:
    kind = key.kind
    if isinstance(kind, dict):
        if isinstance(value, dict):
            check(name, value, kind)  # a nested object names its own offending key
        return isinstance(value, dict)
    if isinstance(kind, list):
        item = key._replace(kind=kind[0])
        return (isinstance(value, (list, tuple)) and (bool(value) or kind[0] == "str")
                and all(_fits(f"{name}[{i}]", v, item) for i, v in enumerate(value)))
    if isinstance(kind, tuple):
        return isinstance(value, str) and value in kind
    if kind in ("str", "bool"):
        return isinstance(value, str if kind == "str" else bool)
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind == "int" else numbers.Real):
        return False
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        return False
    if kind == "int":
        x = int(value)     # compared exactly: sys.maxsize would round up to 2**63
    lo, hi = key.range
    return ((math.isfinite(x) or (key.inf and x == math.inf))
            and (lo < x < hi if key.open else lo <= x <= hi))


_NOUNS = {"int": ("an integer", "integers"), "number": ("a number", "numbers"),
          "str": ("a string", "strings"), "object": ("a JSON object", "JSON objects")}


def _what(key: Key, many: bool = False) -> str:
    """The rule a key's value breaks, in words."""
    kind, (lo, hi) = key.kind, key.range
    if isinstance(kind, list):
        size = "" if kind[0] == "str" else "non-empty "
        return f"a {size}list of {_what(key._replace(kind=kind[0]), True)}"
    if isinstance(kind, tuple):
        return "one of " + ", ".join(map(repr, kind))
    if kind == "bool":
        return "true or false"
    text = _NOUNS["object" if isinstance(kind, dict) else kind][many]
    if hi < math.inf:
        text += f" in {'(' if key.open else '['}{lo:g}, {hi:g}{')' if key.open else ']'}"
    elif lo > -math.inf:
        text += f" {'>' if key.open else '>='} {lo:g}"
    if kind == "number":
        text += " (+inf allowed)" if key.inf else " (finite)"
    return text


# ---------------------------------------------------------------------------
# config tables
# ---------------------------------------------------------------------------

ROUTES = ("si_anchor", "benchmark_raw", "benchmark_rank", "residual_budget")
PRIOR_KINDS = ("uniform", "beta", "endpoint_lower", "endpoint_upper")

_SHAPE = Key("number", (0, math.inf), open=True)
PRIOR_KEYS = {"kind": Key(PRIOR_KINDS), "shape1": _SHAPE, "shape2": _SHAPE}

_FACTOR = Key("number", (1, math.inf))
_RATIO = Key("number", (1, math.inf), inf=True)
_SHARE = Key("number", (0, 1))
SETTING_KEYS = {
    "route": Key(ROUTES, required=True),
    "lambda0": _FACTOR, "lambda1": _FACTOR,
    "kappa0": _RATIO, "kappa1": _RATIO,
    "k0": _SHARE, "k1": _SHARE,
    "g0": _RATIO, "g1": _RATIO,
    "delta_prior": Key(PRIOR_KEYS), "comonotone": Key("bool"), "pooled_gamma": Key("bool"),
    "gamma_cap": _FACTOR,
}

# the arguments of run() and sweep() that shape the draw loop; each worker
# beyond the first is a forked process, so threads is capped, and numpy
# indexes no more than sys.maxsize draws, or envelope points of one unit
_COUNT, _NONNEGATIVE = Key("int", (1, sys.maxsize)), Key("int", (0, math.inf))
RUN_KEYS = {"draws": _COUNT, "burn_in": _NONNEGATIVE, "mediator_draws": _COUNT,
            "seed": _NONNEGATIVE, "threads": Key("int", (1, 256))}

_COLUMN = Key("str", required=True)
SCHEMA_KEYS = {"treatment": _COLUMN, "mediator": _COLUMN, "outcome": _COLUMN,
               "covariates": Key(["str"]), "benchmark": Key("str")}

BENCHMARK_KEYS = dict.fromkeys(("low", "high", "coef_m", "coef_y"), Key("number"))

_REAL = Key("number")
_SCALE = Key("number", (0, math.inf), open=True)
SPEC_KEYS = {
    "n": Key("int", required=True), "p": Key("int", (0, math.inf), required=True),
    "beta_m": Key(["number"], required=True),
    "c0": _REAL, "c_a": _REAL, "c_m": _REAL, "x_scale": _REAL, "confounder_strength": _REAL,
    "sigma_m": _SCALE, "sigma_y": _SCALE, "treat_prob": Key("number", (0, 1), open=True),
    "benchmark": Key(BENCHMARK_KEYS),
}
