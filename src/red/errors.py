"""Exception types shared across the package."""


class RedError(Exception):
    """Base class for all package-specific errors."""


class GridError(RedError, ValueError):
    """Field data incompatible with the grid it claims to live on."""


class StateError(RedError, ValueError):
    """Epistemic state violates a structural invariant (normalization, positivity)."""


class StabilityError(RedError, ValueError):
    """Requested PDE step exceeds an RK4 stability bound (diffusive or dispersive)."""


class NumericalAbort(RedError, RuntimeError):
    """Evolution produced values outside the monitored tolerances."""


class ConsistencyError(RedError, ValueError):
    """Supplied objects disagree where the model requires them to match."""


class ConfigError(RedError, ValueError):
    """Experiment configuration rejected; collects every violation found.

    Each violation is a (json_pointer, message) pair.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ["invalid configuration:"]
        lines += [f"  {ptr}: {msg}" for ptr, msg in self.violations]
        super().__init__("\n".join(lines))


class UnknownSuiteError(RedError, ValueError):
    """Verification suite name not recognized; lists the known suites."""

    def __init__(self, name, available):
        self.name = name
        self.available = list(available)
        super().__init__(
            f"unknown suite {name!r}; available: {', '.join(self.available)}"
        )
