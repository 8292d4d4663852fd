"""Exception types shared across the package.

Every failure that aborts a run carries enough context to reproduce it:
timestamps and state vectors where applicable, offending config keys for
configuration problems.
"""

from __future__ import annotations

__all__ = [
    "SafeholdError",
    "ConfigurationError",
    "InfeasibleFilterError",
    "DivergenceError",
    "RegionExitError",
    "BoundarySamplingError",
]


class SafeholdError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SafeholdError):
    """Invalid or inconsistent inputs: bad dimensions, bad parameter values,
    malformed config documents. The message names the offending field."""


class _StateError(SafeholdError):
    """A failure at a state, and at a simulation time when mid-run."""

    def __init__(self, message: str, state=None, time: float | None = None):
        super().__init__(message)
        self.state = state
        self.time = time


class InfeasibleFilterError(_StateError):
    """The barrier constraint cannot be satisfied by any input at this state.

    Raised instead of clamping or guessing. Carries the state and, when the
    failure happens mid-run, the simulation time.
    """


class DivergenceError(_StateError):
    """State became non-finite during integration. Carries the last finite
    state and the time at which the check failed."""


class RegionExitError(_StateError):
    """Trajectory left the declared operating region, so estimated bounds no
    longer certify anything. Carries the state and time of exit."""


class BoundarySamplingError(SafeholdError):
    """No points of the safe-set boundary were found inside the region, so
    boundary-dependent quantities cannot be estimated."""
