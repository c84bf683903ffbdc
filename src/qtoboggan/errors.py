"""Exception and warning taxonomy for the qtoboggan package.

Every failure mode named in a module contract maps to one class here, so
callers can discriminate programmatically and the CLI can translate them
into stable exit codes.
"""

import math
import numbers


class QTobogganError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QTobogganError):
    """Invalid configuration value or malformed config file."""


def require_int(name: str, value: object) -> None:
    """Raise ConfigError unless `value` is an integer; bools and floats are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_keys(section: str, payload: object, allowed: set) -> None:
    """Raise ConfigError unless `payload` is a mapping whose keys all lie in `allowed`."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{section} section must be an object, got {payload!r}")
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")


def require_real(name: str, value: object) -> float:
    """`value` as a float; ConfigError unless it is a finite real number, and bools are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    return out


class DegeneratePairing(QTobogganError):
    """Two eigenvalues coincide within tolerance; left/right pairing is ambiguous."""


class SolverFailure(QTobogganError):
    """The underlying eigensolver or root finder did not converge."""


class EmptySpectrum(QTobogganError):
    """A filter removed every mode."""


class SelfOrthogonalMode(QTobogganError):
    """A mode overlap sigma is (numerically) zero: exceptional-point regime."""


class IncompleteBasis(QTobogganError):
    """An identity that requires the full mode set was requested on a partial one."""


class ZeroKappa(QTobogganError):
    """A kappa rescaling entry is zero."""


class VanishingParityOverlap(QTobogganError):
    """A diagonal parity matrix element is too small to define a quasi-parity."""


class IllConditionedS(QTobogganError):
    """The overlap matrix S is too ill-conditioned to invert trustworthily."""


class SingularTheta(QTobogganError):
    """The metric candidate has non-finite entries."""


class NonPositiveTheta(QTobogganError):
    """The metric candidate is not Hermitian-positive within tolerance."""


class SchemaMismatch(QTobogganError):
    """The config's schema version is missing or not the supported one."""


class UnverifiedMode(QTobogganError):
    """A grid mode matched to a shooting root fails its residual or reality gate."""


class IncompleteBasisWarning(UserWarning):
    """Metric built on a partial mode set: it is a subspace object only."""


class StepTooCoarseWarning(UserWarning):
    """Integration step does not resolve the local exponent rate."""


class NoConvergenceWarning(UserWarning):
    """A root guess was dropped after failing to converge."""


class MergedRootWarning(UserWarning):
    """Roots found from different guesses coincide and are kept as one."""
