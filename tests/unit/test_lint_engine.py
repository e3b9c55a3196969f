"""Engine-level tests for :mod:`repro.lint`: reports, import graph, CLI.

The per-rule semantics live in ``test_lint_rules.py``; here the
machinery around them is pinned down — the three report formats, the
import graph helpers, and the ``repro lint`` CLI exit-code contract
(0 clean / 1 violations / 2 usage-or-IO error).
"""

import ast
import json
import textwrap

import pytest

import repro.cli as cli
from repro.lint import (
    LintEngine,
    Violation,
    build_import_graph,
    find_cycles,
    render_github,
    render_jsonl,
    render_text,
    suppressed_codes,
)

WALLCLOCK_SOURCE = """
    import time

    def stamp():
        return time.time()
"""


def write_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def run_lint(tmp_path, files, **engine_kwargs):
    write_tree(tmp_path, files)
    engine_kwargs.setdefault("package_root", str(tmp_path))
    engine = LintEngine(**engine_kwargs)
    return engine.run([str(tmp_path)])


# ---------------------------------------------------------------------------
# report formats
# ---------------------------------------------------------------------------

def lint_result(tmp_path):
    return run_lint(
        tmp_path, {"repro/sim/hot.py": WALLCLOCK_SOURCE},
        select=["det.wallclock"],
    )


def test_render_text_shows_location_tally_and_verdict(tmp_path):
    text = render_text(lint_result(tmp_path))
    assert "repro/sim/hot.py:5:" in text
    assert "det.wallclock" in text
    assert "repro lint: 1 violation (" in text


def test_render_jsonl_is_parseable_with_trailing_summary(tmp_path):
    lines = render_jsonl(lint_result(tmp_path)).splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1] == {
        "summary": {"violations": 1, "suppressed": 0, "files_checked": 1}
    }
    # Violations ride the repro.api/v1 schema as lint.finding records.
    from repro.api import parse_record

    parsed = parse_record(records[0])
    assert parsed.kind == "lint.finding"
    assert parsed.meta["code"] == "det.wallclock"
    assert parsed.counters["line"] == 5


def test_render_github_escapes_and_annotates(tmp_path):
    result = lint_result(tmp_path)
    out = render_github(result)
    first = out.splitlines()[0]
    assert first.startswith("::error file=")
    assert ",line=5," in first
    assert ",title=det.wallclock::" in first
    assert "\n::notice title=repro lint::" in out

    # workflow-command data escaping: %, CR, LF never appear raw
    hacked = LintEngine()  # only need a Violation to format
    del hacked
    tricky = result.violations[0]
    tricky = Violation(
        path=tricky.path, line=1, col=1, code=tricky.code,
        message="50% of\nruns", context="f",
    )
    result.violations[0] = tricky
    out = render_github(result)
    assert "50%25 of%0Aruns" in out


def test_render_text_clean_verdict(tmp_path):
    result = run_lint(
        tmp_path, {"repro/core/ok.py": "X = 1\n"},
        select=["det.wallclock"],
    )
    assert "repro lint: clean (1 files" in render_text(result)


# ---------------------------------------------------------------------------
# suppression comment parsing
# ---------------------------------------------------------------------------

def test_suppressed_codes_parses_lists_and_whitespace():
    line = "x = f()  # lint: disable=det.wallclock, det.set-iter"
    assert suppressed_codes(line) == {"det.wallclock", "det.set-iter"}
    assert suppressed_codes("x = f()  # just a comment") == set()


# ---------------------------------------------------------------------------
# import graph helpers
# ---------------------------------------------------------------------------

def _graph(sources):
    triples = [
        (name, ast.parse(textwrap.dedent(src)), name.endswith("__init__"))
        for name, src in sources.items()
    ]
    return build_import_graph(triples)


def test_find_cycles_reports_canonical_rotation():
    graph = _graph({
        "p.a": "from p import b\n",
        "p.b": "import p.c\n",
        "p.c": "import p.a\n",
    })
    cycles = find_cycles(graph.adjacency(include_lazy=False))
    assert cycles == [["p.a", "p.b", "p.c", "p.a"]]


def test_adjacency_trims_attribute_tails_to_known_modules():
    graph = _graph({
        "p.a": "from p.b import SomeClass\n",
        "p.b": "X = 1\n",
    })
    adjacency = graph.adjacency()
    assert adjacency["p.a"] == {"p.b"}


def test_lazy_imports_excluded_from_default_adjacency():
    graph = _graph({
        "p.a": "def f():\n    import p.b\n",
        "p.b": "X = 1\n",
    })
    assert graph.adjacency(include_lazy=False)["p.a"] == set()
    assert graph.adjacency(include_lazy=True)["p.a"] == {"p.b"}


# ---------------------------------------------------------------------------
# CLI exit-code contract
# ---------------------------------------------------------------------------

def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    write_tree(tmp_path, {"repro/core/ok.py": "X = 1\n"})
    rc = cli.main([
        "lint", str(tmp_path), "--package-root", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "repro lint: clean" in out


def test_cli_violations_exit_one_all_formats(tmp_path, capsys):
    write_tree(tmp_path, {"repro/sim/hot.py": WALLCLOCK_SOURCE})
    for fmt in ("text", "jsonl", "github"):
        rc = cli.main([
            "lint", str(tmp_path), "--format", fmt,
            "--package-root", str(tmp_path),
        ])
        capsys.readouterr()
        assert rc == 1, fmt


def test_cli_unknown_select_code_exits_two(tmp_path, capsys):
    rc = cli.main(["lint", str(tmp_path), "--select", "det.nonsense"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown rule codes" in err


def test_cli_rules_lists_catalog(capsys):
    rc = cli.main(["lint", "--rules"])
    out = capsys.readouterr().out
    assert rc == 0
    for code in ("det.wallclock", "layer.cycle", "frozen.setattr"):
        assert code in out
    assert "flow." not in out
    assert "frozen.spec-picklable" not in out


def test_cli_syntax_error_exits_two(tmp_path, capsys):
    write_tree(tmp_path, {"repro/core/broken.py": "def f(:\n"})
    rc = cli.main([
        "lint", str(tmp_path), "--package-root", str(tmp_path),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_missing_path_exits_two(tmp_path, capsys):
    """A mistyped path must fail the gate, not lint zero files clean."""
    missing = tmp_path / "no" / "such" / "path"
    rc = cli.main(["lint", str(missing)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "repro lint: clean" not in captured.out
    (line,) = captured.err.splitlines()
    assert line.startswith("error:")
    assert str(missing) in line


def test_cli_non_utf8_file_exits_two(tmp_path, capsys):
    """Undecodable source is a usage error (2), not a traceback that
    exits 1 and reads as "violations found"."""
    bad = tmp_path / "repro" / "core" / "latin1.py"
    bad.parent.mkdir(parents=True)
    bad.write_bytes(b"NAME = '\xe9t\xe9'\n")
    rc = cli.main([
        "lint", str(tmp_path), "--package-root", str(tmp_path),
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error:")
    assert "latin1.py" in line
    assert "UTF-8" in line
