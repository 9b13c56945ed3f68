"""The one conversion from results to report JSON, and the one JSON reader.

:func:`jsonable` turns a result (a dataclass, dict, sequence, ndarray or
scalar) into plain JSON types: dataclass instances become the dict of their
fields, complex numbers ``{"re", "im"}`` objects and non-finite floats the
strings ``"nan"``, ``"inf"`` and ``"-inf"``, so every report is strict JSON.
:class:`Reported` gives result dataclasses an ``as_dict`` that is exactly
what their report holds. :func:`read_json` reads a JSON input file and
reports malformed text under the file's path.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .errors import ValidationError

__all__ = ["Reported", "jsonable", "read_json"]


def jsonable(value):
    """Recursively convert to JSON-safe types; non-finite floats to strings."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def read_json(path):
    """The parsed content of the JSON file at ``path``.

    A file that is not UTF-8 text or not JSON raises ValidationError with
    the path as its field; malformed JSON gives the parser's line and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValidationError("not UTF-8 text: %s" % exc, field=str(path)) from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(
                "malformed JSON at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg),
                field=str(path),
            ) from exc


class Reported:
    """Mixin for result dataclasses: ``as_dict`` is their report JSON."""

    def as_dict(self):
        return jsonable(self)
