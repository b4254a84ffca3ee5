"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage/configuration errors exit 1,
data/schema errors exit 2, numeric failures exit 3.
"""


class FlowSieveError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(FlowSieveError):
    """Input does not match the expected external schema (header, versions)."""


class DataError(FlowSieveError):
    """Schema is fine but the content cannot be used (empty, too short, ...)."""


class ConfigError(FlowSieveError):
    """Inconsistent or unusable configuration."""


class NumericError(FlowSieveError):
    """Numeric failure while fitting (divergence, non-finite loss)."""


class DegenerateDataError(NumericError):
    """Input admits no meaningful fit (e.g. all rows identical)."""

