"""Shared error types, the validation-report row, the function that makes
each kernel record class, a named tuple, in one ``type()`` call, and the
one cache of data computed per horn shape."""

from __future__ import annotations

from _collections import _tuplegetter
from functools import cached_property
from types import FunctionType


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


_tuple_new = tuple.__new__
# namedtuple's ``__new__`` for each arity up to 7, without its eval: a
# record's copy of one names its parameters after the fields.
_NEW = (
    lambda _cls: _tuple_new(_cls, ()),
    lambda _cls, a: _tuple_new(_cls, (a,)),
    lambda _cls, a, b: _tuple_new(_cls, (a, b)),
    lambda _cls, a, b, c: _tuple_new(_cls, (a, b, c)),
    lambda _cls, a, b, c, d: _tuple_new(_cls, (a, b, c, d)),
    lambda _cls, a, b, c, d, e: _tuple_new(_cls, (a, b, c, d, e)),
    lambda _cls, a, b, c, d, e, f: _tuple_new(_cls, (a, b, c, d, e, f)),
    lambda _cls, a, b, c, d, e, f, g: _tuple_new(_cls, (a, b, c, d, e, f, g)),
)


def _replace(self, **changes):
    made = self._make(map(changes.pop, self._fields, self))
    if changes:
        raise ValueError(f"Got unexpected field names: {list(changes)!r}")
    return made


# namedtuple's methods, but ``_make``, and so ``_replace``, builds through the class.
_METHODS = {
    "__repr__": lambda self: type(self).__name__ + "(" + ", ".join(
        map("{}={!r}".format, self._fields, self)) + ")",
    "__getnewargs__": lambda self: tuple(self),
    "_make": classmethod(lambda cls, fields: cls(*fields)),
    "_replace": _replace,
    "_asdict": lambda self: dict(zip(self._fields, self)),
}


def named_tuple(body, **methods):
    """The plain class ``body`` as a tuple class, built by one ``type()``
    call: its annotated names, never evaluated, are the fields, its values
    for them their defaults. Its attributes override ``methods``, and those
    :data:`_METHODS`; without a ``__new__`` of its own it binds arguments
    as namedtuple's does. It has a ``__dict__`` only if a ``cached_property``
    needs one; a method may not use bare ``super()``, which names ``body``."""
    ns = {**_METHODS, **methods, **vars(body)}
    del ns["__dict__"], ns["__weakref__"]
    fields = tuple(ns.get("__annotations__", ()))
    defaults = {f: ns[f] for f in fields if f in ns}
    if "__new__" not in ns:
        code = _NEW[len(fields)].__code__.replace(co_varnames=("_cls", *fields))
        new = ns["__new__"] = FunctionType(code, globals(), "__new__", (*defaults.values(),))
        new.__qualname__ = f"{body.__qualname__}.__new__"
    ns.update({f: _tuplegetter(i, None) for i, f in enumerate(fields)})
    ns.update(_fields=fields, _field_defaults=defaults)
    if not any(type(value) is cached_property for value in ns.values()):
        ns["__slots__"] = ()
    return type(body.__name__, (tuple,), ns)


def _eq(self, other):
    kind = type(other)
    if kind is type(self) or kind is tuple:
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def record(body):
    """:func:`named_tuple` as a kernel record: it equals the records of its
    own class and the plain tuple of its fields, nothing else (two records
    of one arity stay apart; object's ``__ne__`` inverts that), hashes as
    that tuple, and is true without fields, as every value object is."""
    empty = {} if vars(body).get("__annotations__") else {"__bool__": lambda self: True}
    return named_tuple(body, __eq__=_eq, __ne__=object.__ne__, __hash__=tuple.__hash__, **empty)


class ShapeTables(dict):
    """Data of a horn shape by its key (n, k, ...), built by ``build(*key)``
    on first use. An n-shape's has O(n) to O(n^2) entries, so it is kept
    only up to dimension 8 and rebuilt above: what a document of high
    horns costs ends with the call that reads or writes it."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, shape: tuple):
        data = self.build(*shape)
        return self.setdefault(shape, data) if shape[0] <= 8 else data


@record
class Violation:
    """One row of a validation report.

    ``kind`` is a stable machine-checkable code; ``message`` is the
    human-readable line the CLI prints.
    """

    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"
