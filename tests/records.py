"""Helpers the tests share for the package's records (``obsforge.report.Record``)."""


def replace(record, **changes):
    """A record of ``record``'s class with its fields, ``changes`` applied.

    The copy is built through the class's ``__init__``, so its
    ``__post_init__`` checks the new values as it checks any construction.
    """
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})
