"""Exception types that map onto the CLI's distinct failure exit codes."""


class CoolspinError(Exception):
    """Base class for package-specific failures."""


class CapacityError(CoolspinError):
    """A state or simulation would exceed the configured memory budget."""


class InfeasibleError(CoolspinError):
    """No schedule can reach the requested polarization with the given spins."""
