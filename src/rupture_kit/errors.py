"""Shared error types and the validation-report row used across the kernel."""

from __future__ import annotations

from dataclasses import dataclass


class KernelError(Exception):
    """A kernel operation was called with arguments that violate its contract."""


class ShapeError(KernelError):
    """A complex or fibration built with a face row or map level that does
    not fit its counts. ``path`` is the position as document keys, e.g.
    ``("faces", 1, 0)``, and ``key_path`` writes it as ``faces.1[0]``."""

    def __init__(self, reason: str, *path):
        self.reason, self.path = reason, path
        self.key_path = ".".join(map(str, path[:2])) + "".join(f"[{i}]" for i in path[2:])
        super().__init__(f"{reason} (at {self.key_path})")


class ExclusionError(KernelError):
    """A construction would put a coherent filler and a gap witness on the same horn."""

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


@dataclass(frozen=True)
class Violation:
    """One row of a validation report.

    ``kind`` is a stable machine-checkable code; ``message`` is the
    human-readable line the CLI prints.
    """

    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"
