"""Exception types shared across the package, one per distinction a caller makes.

Every error the package raises is a RedError; `red` exits 2 on a ConfigError, 3 on any other.
"""


class RedError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RedError, ValueError):
    """Configuration or command line rejected; collects every violation found.

    Each violation is a (json_pointer, message) pair.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ["invalid configuration:"]
        lines += [f"  {ptr}: {msg}" for ptr, msg in self.violations]
        super().__init__("\n".join(lines))


class StateError(RedError, ValueError):
    """An object or argument breaks an invariant: a shape, a grid, a bound, a normalization."""


class NumericalAbort(RedError, RuntimeError):
    """Evolution produced values outside the monitored tolerances."""
