"""Meta-tests: the shipped tree satisfies its own linter.

``make lint`` runs ``repro lint src/repro`` from the repo root; these
tests pin the same invariant inside the plain pytest suite, so a change
that introduces a determinism/layering violation fails even for
contributors who skip ``make lint``.
"""

import inspect
import pathlib

import pytest

import repro.core.dvp as dvp
from repro.lint import LintEngine
from repro.lint.rules.proto import _FALLBACK_POOL_SURFACE

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture()
def repo_cwd(monkeypatch):
    """Run from the repo root so the tree resolves as src/repro/..."""
    if not (REPO_ROOT / "src" / "repro").is_dir():
        pytest.skip("not running from a source checkout")
    monkeypatch.chdir(REPO_ROOT)


def test_live_tree_is_lint_clean(repo_cwd):
    result = LintEngine().run(["src/repro"])
    assert result.clean, "\n".join(
        f"{v.location()}: {v.code} {v.message}" for v in result.violations
    )


def test_live_tree_exercises_both_suppression_channels(repo_cwd):
    """The shipped tree deliberately carries one inline disable (the MQ
    queue order in core/mq.py, which *is* the LRU contract) so the one
    escape hatch stays exercised end to end; if the count drops to zero
    the comment went stale and should be pruned with this test."""
    result = LintEngine().run(["src/repro"])
    assert result.suppressed >= 1


def test_fallback_pool_surface_matches_live_protocol():
    """proto.pool-surface falls back to a hardcoded method tuple when
    the DeadValuePool Protocol class is not in the linted tree; keep
    that tuple in sync with the real protocol."""
    live = {
        name
        for name, member in inspect.getmembers(
            dvp.DeadValuePool, predicate=inspect.isfunction
        )
        if not name.startswith("_") or name in ("__len__", "__contains__")
    }
    assert set(_FALLBACK_POOL_SURFACE) == live


@pytest.mark.parametrize("pool_name", sorted(dvp.POOL_NAMES))
def test_every_shipped_pool_passes_the_surface_rule(repo_cwd, pool_name):
    """Belt and braces for proto.pool-surface: each shipped pool really
    does define the full surface with concrete bodies (the rule checks
    this statically; here we check the same thing at runtime)."""
    pool = dvp.pool_from_name(pool_name)
    for method in _FALLBACK_POOL_SURFACE:
        attr = getattr(type(pool), method, None)
        assert callable(attr), f"{type(pool).__name__} missing {method}"
