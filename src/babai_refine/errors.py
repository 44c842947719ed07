"""Exception types raised across the package, and the int checks its entries share."""


class BabaiRefineError(Exception):
    """Base class for all package errors."""


class InvalidParams(BabaiRefineError, ValueError):
    """Lattice parameters outside the supported region: rho >= 1,
    0 < rho*cos(theta) < 1/2 and sin(theta) > 0."""


class OutOfCell(BabaiRefineError, ValueError):
    """A point fell outside the zero-centred Babai cell (-1/2,1/2] x (-H/2,H/2]."""


class InvalidDistribution(BabaiRefineError, ValueError):
    """Probability vector with a negative entry or mass not summing to one."""


class DegenerateInterval(BabaiRefineError, ValueError):
    """A length or coefficient a formula divides by rounds to zero (the far rectangular end)."""


class QuadratureFailure(BabaiRefineError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class BudgetTooSmall(BabaiRefineError, ValueError):
    """Rate budget below the rate of the coarsest quantizer."""


def require_int(**values) -> None:
    """Each named seed, stream or symbol must be an int; a bool or float is
    never coerced (ValueError)."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")


def require_count(**values) -> None:
    """Each named quantizer size, trial count, round limit or window must be
    an int, not a bool, and >= 1 (ValueError); nothing is coerced."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
