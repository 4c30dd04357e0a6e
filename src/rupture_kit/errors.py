"""Shared error types, the validation-report row, and the finishing touch
every kernel record gets."""

from __future__ import annotations

from typing import NamedTuple


class KernelError(Exception):
    """A kernel operation was called with arguments that violate its contract."""


class ShapeError(KernelError):
    """A complex, ruptured complex or map built with a face row, label list,
    coherence mark or map level that does not fit. ``path`` is the position
    as document keys, e.g. ``("faces", 1, 0)``; ``key_path`` writes it as
    ``faces.1[0]``."""

    def __init__(self, reason: str, *path):
        self.reason, self.path = reason, path
        self.key_path = ".".join(map(str, path[:2])) + "".join(f"[{i}]" for i in path[2:])
        super().__init__(f"{reason} (at {self.key_path})")


class ExclusionError(KernelError):
    """A breach of Exclusion: coherence and a gap witness on one horn or
    judgment. ``conflicts`` pairs each gap-witnessed item with the witness
    it conflicts with."""

    def __init__(self, message: str, conflicts=()):
        super().__init__(message)
        self.conflicts = tuple(conflicts)


class DocumentError(Exception):
    """A document failed to parse or does not match its schema.

    ``position`` is a human-readable locator (JSON line/column or key path).
    """

    def __init__(self, message: str, position: str | None = None):
        super().__init__(message)
        self.position = position

    def __str__(self) -> str:
        base = super().__str__()
        if self.position:
            return f"{base} (at {self.position})"
        return base


def checked(cls):
    """Build a named tuple class through its body's ``_new``, if any (as
    ``typing.NamedTuple`` refuses a ``__new__`` there), on every path: its
    ``_make``, which ``_replace`` calls, builds through the class too."""
    if "_new" in vars(cls):
        cls.__new__ = staticmethod(cls._new)
    cls._make = classmethod(lambda cls, fields: cls(*fields))
    return cls


def _eq(self, other):
    kind = type(other)
    if kind is type(self) or kind is tuple:
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _ne(self, other):
    eq = _eq(self, other)
    return eq if eq is NotImplemented else not eq


def record(cls):
    """Finish a named tuple class as a kernel record: it equals the records
    of its own class and the plain tuple of its fields, nothing else (two
    records of one arity stay apart), and hashes as that tuple; it builds
    as :func:`checked` says; and a record without fields is true, as every
    value object is."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _eq, _ne, tuple.__hash__
    if not cls._fields:
        cls.__bool__ = lambda self: True
    return checked(cls)


@record
class Violation(NamedTuple):
    """One row of a validation report.

    ``kind`` is a stable machine-checkable code; ``message`` is the
    human-readable line the CLI prints.
    """

    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"
