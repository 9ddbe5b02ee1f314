"""Exception types shared across the package: one per nonzero exit code.

Every error raised deliberately by locosparse is a :class:`LocosparseError`,
so the CLI catches one base type and maps it to a nonzero exit code.
"""


class LocosparseError(Exception):
    """A run that failed (exit 1): unreadable, unwritable or corrupt files,
    invalid values in stored data, and numerical breakdown."""


class ConfigError(LocosparseError):
    """A request that cannot run (exit 2): an invalid configuration value, or
    an argument that breaks a documented precondition, such as a shape."""
