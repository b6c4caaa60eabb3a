"""Exception types shared across the package."""

__all__ = ["ConsistencyError", "ScenarioError", "ValidationError"]


class ValidationError(ValueError):
    """An input value violates a documented precondition."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


class ScenarioError(ValidationError):
    """A scenario file is missing, malformed, or fails validation."""
