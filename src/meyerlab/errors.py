"""Shared exception types."""


class MeyerlabError(Exception):
    """Base class for all library errors."""


class UsageError(MeyerlabError):
    """Caller violated a precondition (bad field, shape mismatch, bad flag)."""


class ResourceLimit(MeyerlabError):
    """An enumeration would exceed the configured candidate budget."""


class CoverSearchFailed(MeyerlabError):
    """Covering search exhausted its radius cap; carries a progress report."""

    def __init__(self, message, progress=None):
        super().__init__(message)
        self.progress = progress


class UnsupportedSubgroup(MeyerlabError):
    """Requested subgroup is not aligned with the coordinate module structure."""
