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


def artifact_field(data: dict, key: str, convert, artifact: str):
    """Return ``convert(data[key])`` for a model artifact.

    A missing key, or a value ``convert`` rejects (an unknown enum value,
    a non-numeric or ragged array), raises SchemaError naming the key.
    """
    if key not in data:
        raise SchemaError(f"{artifact} artifact lacks the required key {key!r}")
    try:
        return convert(data[key])
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise SchemaError(f"{artifact} artifact has an invalid {key}: {exc}") from None
