"""Exception types and input checks shared across the package.

The CLI maps these onto distinct exit codes, so guard violations and
invariant failures must stay distinguishable from ordinary usage errors.
"""

import math


class InvalidPatternError(ValueError):
    """An occupation or click pattern violates its contract."""


class GuardLimitError(ValueError):
    """A size guard was exceeded (problem too large for exact desk-scale evaluation)."""


class InvariantViolation(RuntimeError):
    """A mathematical invariant that should hold by construction failed numerically."""


# Largest size each exact desk-scale routine accepts, by the quantity it bounds.
SIZE_LIMITS = {
    "unitary modes": 1_000,
    "naive permanent dimension": 10,
    "Ryser permanent dimension": 30,
    "amplitude table patterns": 10_000,
    "density modes": 10,
    "density photons": 4,
    "click table modes": 12,
    "click table photons": 4,
    "leading order neighbors": 1_000,
    "fock sampler modes": 10,
    "fock sampler photons": 4,
    "prcv1 sampler modes": 12,
    "prcv1 sampler photons": 4,
    "cv1 sampler modes": 4,
    "cv1 sampler photons": 3,
    "sample outcome values": 1 << 25,
    "threshold points": 100_000,
}


def check_size(quantity, value):
    """Raise GuardLimitError if `value` exceeds SIZE_LIMITS[quantity]."""
    limit = SIZE_LIMITS[quantity]
    if value > limit:
        raise GuardLimitError(f"{quantity} guarded at <= {limit}, got {value}")


def check_threshold(t):
    """Validate a click threshold: positive and finite."""
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"threshold must be positive and finite, got {t}")
    return float(t)
