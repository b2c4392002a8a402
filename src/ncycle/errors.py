"""Exception hierarchy.

Usage errors (bad parameters, unsupported scenarios, invalid pairings) map to
CLI exit code 2; internal invariant breaches map to exit code 1.
"""


class NCycleError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedScenarioError(NCycleError):
    """Requested cycle length has no supported quantum realization."""


class PairingError(NCycleError):
    """Protocol/inequality combination is not a valid pairing."""


class InsufficientRunsError(NCycleError):
    """Simulation run count is below the statistical floor."""


class InvariantBreachError(NCycleError):
    """A numerical object violated one of its declared invariants."""


class ZeroProbabilityBranchError(NCycleError):
    """Post-measurement update requested on a zero-probability outcome."""


class SymmetryBreachError(NCycleError):
    """Transition matrix built from overlaps disagrees with its symmetric form."""


class DecompositionFailureError(NCycleError):
    """Channel image of a functional operator left span{F, identity}."""


#: Errors that indicate bad user input rather than an internal defect.
USAGE_ERRORS = (UnsupportedScenarioError, PairingError, InsufficientRunsError)
