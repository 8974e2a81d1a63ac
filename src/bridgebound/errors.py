"""Exception types shared across the package, one per CLI exit code."""


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
