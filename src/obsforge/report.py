"""The result records, the one conversion from results to report JSON, and
the one JSON reader.

:class:`Record` is the base of every result and input record of the
package: a frozen class whose fields are its annotated names. Defining a
record class generates and compiles no code, so the import of a layer pays
for none. :func:`jsonable` turns a result (a record, dict, sequence,
ndarray or scalar) into plain JSON types: records become the dict of their
fields in declared order, complex numbers ``{"re", "im"}`` objects and
non-finite floats the strings ``"nan"``, ``"inf"`` and ``"-inf"``, so every
report is strict JSON. :class:`Reported` records have an ``as_dict`` that
is exactly what their report holds. :func:`read_json` reads a JSON input
file and reports malformed text under the file's path.

What stays out of the reports lives here too: :func:`_log`, the one writer
of log lines.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .errors import ValidationError

__all__ = ["Record", "Reported", "jsonable", "read_json"]


def jsonable(value):
    """Recursively convert to JSON-safe types; non-finite floats to strings."""
    if isinstance(value, Record):
        return {name: jsonable(getattr(value, name)) for name in value._fields}
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


_setattr = object.__setattr__


class Record:
    """A frozen record whose fields are the names its class annotates.

    The fields are read in declared order from each class's own
    ``__annotations__``, which ``from __future__ import annotations`` keeps
    as strings that are never evaluated; a subclass adds its fields after
    its base's. A class-level value is the field's default, which an
    instance built without that field reads from the class. ``__init__``
    binds positional and keyword arguments, raises TypeError for a missing
    or unknown name, then calls ``__post_init__``, which checks and
    normalises the fields (with ``object.__setattr__``). Assigning or
    deleting an attribute raises AttributeError. ``==`` compares the field
    values of two records of the same class, and ``repr`` shows them.
    """

    _fields = ()
    _names = frozenset()
    _required = frozenset()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls._fields + own
        cls._names = frozenset(cls._fields)
        cls._required = cls._required | {n for n in own if n not in cls.__dict__}

    def __init__(self, *args, **kwargs):
        # Calls in the package name their fields by keyword, so most bind after
        # one set comparison; a field left out reads its default from the class.
        # Values are stored one by one, as a generated __init__ does: filling
        # self.__dict__ would give the collector a second object per record.
        names = kwargs.keys()
        if args or (names != self._names and names != self._required):
            kwargs = self._bind(args, kwargs)
        for name, value in kwargs.items():
            _setattr(self, name, value)
        self.__post_init__()

    def _bind(self, args, kwargs):
        """Field name -> value of each field the positional and keyword arguments give."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError("%s() takes %d arguments but %d were given" % (name, len(fields), len(args)))
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in self._names:
                raise TypeError("%s() got an unexpected keyword argument %r" % (name, key))
            if key in values:
                raise TypeError("%s() got multiple values for argument %r" % (name, key))
        values.update(kwargs)
        missing = [f for f in fields if f in self._required and f not in values]
        if missing:
            raise TypeError("%s() missing required arguments: %s" % (name, ", ".join(map(repr, missing))))
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a %s" % (name, type(self).__name__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._fields] == [getattr(other, f) for f in self._fields]

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)


class Reported(Record):
    """A result record whose ``as_dict`` is its report JSON."""

    def as_dict(self):
        return jsonable(self)


def _log(name, level, message, *args):
    """``message % args`` at ``level`` ("info" or "debug") on the logger ``name``.

    Only once something has loaded ``logging``: the CLI loads it when
    OBS_FORGE_LOG asks for info or debug lines, and before that nothing
    listens.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        getattr(logging.getLogger(name), level)(message, *args)
