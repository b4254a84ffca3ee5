"""Exception hierarchy shared across the package, and the message for
input that is not UTF-8.

The CLI maps these onto exit codes: usage/configuration errors exit 1,
data/schema errors exit 2, numeric failures exit 3.
"""
from __future__ import annotations

from pathlib import Path
from typing import Union


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


def not_utf8_message(source: Union[str, Path, bytes]) -> str:
    """The error message for a file, or input bytes, that is not UTF-8,
    naming the offset of its first invalid byte."""
    # A decoding stream reports offsets within its current buffer, so the
    # file's own offset comes from decoding its bytes whole.
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    name = "input" if isinstance(source, bytes) else str(source)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"{name} is not UTF-8: invalid byte at offset {exc.start}"
    return f"{name} is not UTF-8"
