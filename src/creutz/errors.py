"""Exception types shared across the package."""

__all__ = [
    "ConfigError",
    "CreutzError",
    "DomainError",
    "IncommensurateAngleError",
    "InvalidQuenchTargetError",
    "NoDqptError",
    "NoRevivalError",
]


class CreutzError(Exception):
    """Base class for all package errors."""


class DomainError(CreutzError):
    """A request that is outside the physical or numerical domain of validity."""


class IncommensurateAngleError(DomainError):
    """arccos(J_v/2J)/pi is not a recognizable rational at the given resolution."""


class InvalidQuenchTargetError(DomainError):
    """An operation that requires a quench to a critical flux got a non-critical target."""


class NoRevivalError(DomainError):
    """No local maximum of the echo cleared the detection threshold."""


class NoDqptError(DomainError):
    """The quench admits no critical mode, so no transition times exist."""


class ConfigError(CreutzError):
    """Malformed run configuration (bad key, unparsable value, missing input)."""
