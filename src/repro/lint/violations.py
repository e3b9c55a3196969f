"""The violation record and per-line suppression comments.

A :class:`Violation` is one rule finding, anchored to a file, line and
the enclosing definition (``context``, a dotted qualname like
``MQDeadValuePool.insert_garbage`` or ``<module>``).

Suppression is a trailing comment on the offending line::

    t = time.time()  # lint: disable=det.wallclock
    x = foo()        # lint: disable=det.set-iter,det.environ

Only the named codes are suppressed, only on that line.  There is no
file-level or blanket disable: a finding that recurs across a family of
sites is a rule to fix, not a suppression to widen.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

__all__ = ["Violation", "suppressed_codes"]

#: ``# lint: disable=code[,code...]`` anywhere in a source line.
_DISABLE_RE = re.compile(
    r"#\s*lint:\s*disable=([A-Za-z0-9_.,\s-]+)"
)


@dataclass(frozen=True, order=True)
class Violation:
    """One rule finding.

    Sort order (path, line, col, code) is the report order, so output is
    stable across runs regardless of rule execution order.
    """

    path: str
    line: int
    col: int
    code: str
    message: str = field(compare=False)
    context: str = field(default="<module>", compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


def suppressed_codes(source_line: str) -> FrozenSet[str]:
    """The lint codes a ``# lint: disable=...`` comment names on this line.

    Returns the empty set when the line carries no disable comment.  The
    comment syntax is deliberately rigid (no bare ``disable`` without
    codes) so a typo'd suppression fails loudly — the violation stays.
    """
    match = _DISABLE_RE.search(source_line)
    if not match:
        return frozenset()
    return frozenset(
        code.strip() for code in match.group(1).split(",") if code.strip()
    )


def suppression_table(source: str) -> Tuple[FrozenSet[str], ...]:
    """Per-line suppression sets for a whole file (1-indexed via line-1)."""
    return tuple(suppressed_codes(line) for line in source.splitlines())
