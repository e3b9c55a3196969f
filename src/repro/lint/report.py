"""Report rendering: human text, machine JSONL, GitHub annotations.

``text``
    The default terminal report: one ``path:line:col code message`` row
    per finding, a per-code tally, and the inline-suppression count.
``jsonl``
    One ``repro.api/v1`` :class:`~repro.api.schema.ResultRecord` of kind
    ``lint.finding`` per violation (so lint output round-trips through
    :func:`repro.api.parse_record` like every other machine-readable
    surface in the repo), then one trailing ``{"summary": ...}`` object —
    greppable, and stable enough to diff across runs.
``github``
    GitHub Actions workflow commands (``::error file=...``), so a CI
    failure annotates the exact line in the pull-request diff.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List

from .engine import LintResult

__all__ = ["render_github", "render_jsonl", "render_text"]


def _summary_dict(result: LintResult) -> dict:
    return {
        "summary": {
            "violations": len(result.violations),
            "suppressed": result.suppressed,
            "files_checked": result.files_checked,
        }
    }


def render_text(result: LintResult) -> str:
    lines: List[str] = []
    for violation in result.violations:
        lines.append(
            f"{violation.location()}: {violation.code} {violation.message}"
        )
    if result.violations:
        lines.append("")
        tally = Counter(v.code for v in result.violations)
        for code, count in sorted(tally.items()):
            lines.append(f"{count:5d}  {code}")
        lines.append("")
    verdict = (
        "clean" if result.clean
        else f"{len(result.violations)} violation"
             f"{'s' if len(result.violations) != 1 else ''}"
    )
    lines.append(
        f"repro lint: {verdict} "
        f"({result.files_checked} files, {result.suppressed} suppressed "
        f"inline)"
    )
    return "\n".join(lines)


def render_jsonl(result: LintResult) -> str:
    # Imported lazily: repro.api sits in a different layer, and text /
    # github rendering must not pull it in.
    from ..api import lint_finding_record

    lines = [
        json.dumps(
            lint_finding_record(
                path=v.path,
                line=v.line,
                col=v.col,
                code=v.code,
                message=v.message,
                context=v.context,
            ).to_dict(),
            sort_keys=True,
        )
        for v in result.violations
    ]
    lines.append(json.dumps(_summary_dict(result), sort_keys=True))
    return "\n".join(lines)


def _escape_annotation(message: str) -> str:
    """GitHub workflow-command data escaping (%, CR, LF)."""
    return (
        message.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
    )


def render_github(result: LintResult) -> str:
    """``::error`` annotations, one per finding, plus a notice summary."""
    lines = [
        "::error file={path},line={line},col={col},title={code}::{msg}".format(
            path=violation.path,
            line=violation.line,
            col=violation.col,
            code=violation.code,
            msg=_escape_annotation(
                f"{violation.message} [{violation.code}]"
            ),
        )
        for violation in result.violations
    ]
    summary = (
        f"repro lint: {len(result.violations)} violations in "
        f"{result.files_checked} files"
        if result.violations
        else f"repro lint: clean ({result.files_checked} files)"
    )
    lines.append(f"::notice title=repro lint::{_escape_annotation(summary)}")
    return "\n".join(lines)
