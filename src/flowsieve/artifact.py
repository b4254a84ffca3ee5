"""One codec for the model artifacts: `filter1.json`, `filter2.json` and
the encoding recipe and PCA basis nested in them.

Writing walks a dataclass's fields in declaration order, after
`schema_version` where the class has one. Reading converts each key with
its converter from the class's READERS table, then runs the class's
checks across fields. A model file is input from outside the program, so
every number must be finite and every integer integral; a missing key, a
refused value or a failed check raises SchemaError naming the key.
"""
from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import SchemaError


def encode_value(value):
    """A value as JSON data: a dataclass as its fields in declaration order
    (an artifact through its `to_dict`), an ndarray or tuple as a list, an
    Enum as its value and dict keys as strings."""
    if isinstance(value, Artifact):
        return value.to_dict()
    if is_dataclass(value):
        return {f.name: encode_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    return value


class optional:
    """The converter of a key that may be missing. A missing key reads as
    None, or as `empty()` when an empty type is given; null reads as None
    only in the first case."""

    def __init__(self, convert: Callable, empty: Optional[type] = None) -> None:
        self.convert, self.empty = convert, empty

    def __call__(self, value):
        return None if value is None and self.empty is None else self.convert(value)


class Artifact:
    """Base of the dataclasses written as JSON artifacts.

    A subclass names its artifact in ARTIFACT, may set SCHEMA_VERSION, maps
    every field to its converter in READERS, and may override `check` with
    the checks that span fields.
    """

    ARTIFACT: ClassVar[str]
    SCHEMA_VERSION: ClassVar[Optional[int]] = None
    READERS: ClassVar[dict[str, Callable]]

    def to_dict(self) -> dict:
        head = {} if self.SCHEMA_VERSION is None else {"schema_version": self.SCHEMA_VERSION}
        return head | {f.name: encode_value(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise SchemaError(f"{cls.ARTIFACT} artifact must be a JSON object")
        version = data.get("schema_version")
        if cls.SCHEMA_VERSION is not None and version != cls.SCHEMA_VERSION:
            raise SchemaError(f"unsupported {cls.ARTIFACT} schema version: {version!r}")
        values = {}
        for key, convert in cls.READERS.items():
            if key in data:
                try:
                    values[key] = convert(data[key])
                except (TypeError, ValueError, OverflowError) as exc:
                    raise cls.invalid(key, exc) from None
            elif isinstance(convert, optional):
                values[key] = None if convert.empty is None else convert.empty()
            else:
                raise SchemaError(f"{cls.ARTIFACT} artifact lacks the required key {key!r}")
        artifact = cls(**values)
        artifact.check()
        return artifact

    def check(self) -> None:
        """Raise `invalid(key, reason)` where loaded fields disagree."""

    @classmethod
    def invalid(cls, key: str, reason) -> SchemaError:
        return SchemaError(f"{cls.ARTIFACT} artifact has an invalid {key}: {reason}")

    def to_json(self) -> str:
        return json.dumps(self.to_dict()) + "\n"

    @classmethod
    def load(cls, path: str | Path):
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise SchemaError(f"{cls.ARTIFACT} artifact {path} is not JSON: {exc}") from None
        return cls.from_dict(data)


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind):
        raise ValueError(f"expected {what}, got {value!r:.40}")
    return value


def finite_float(value) -> float:
    if isinstance(value, bool) or not math.isfinite(_typed(value, (int, float), "a number")):
        raise ValueError(f"expected a finite number, got {value!r:.40}")
    return float(value)


def integer(value) -> int:
    """An integral number (3 or 3.0) as int."""
    if not finite_float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r:.40}")
    return int(value)


def text(value) -> str:
    return _typed(value, str, "a string")


def finite_array(value) -> np.ndarray:
    """A (nested) list of finite numbers as a float array."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf" or not np.isfinite(array).all():
        raise ValueError(f"expected finite numbers, got {value!r:.40}")
    return array.astype(float, copy=False)


def list_of(convert: Callable, into: type = list) -> Callable:
    """The converter of a JSON array, item by item, into a list or tuple."""
    return lambda value: into(convert(item) for item in _typed(value, list, "a list"))


def mapping(convert_key: Callable, convert_value: Callable) -> Callable:
    """The converter of a JSON object, key by key and value by value."""
    return lambda value: {
        convert_key(key): convert_value(item) for key, item in _typed(value, dict, "an object").items()
    }
