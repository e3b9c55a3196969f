"""The layering and frozen-value rules of DESIGN.md §1, read from source.

Every module under ``src/repro`` is parsed with ``ast`` and its imports
collected, lazy (function-body) ones included: a deferred import is
still a dependency.  Imports under ``if TYPE_CHECKING:`` never run and
are exempt.  Three checks:

* no import crosses an edge of ``FORBIDDEN`` or reaches ``repro.serve``
  from outside ``SERVE_IMPORTERS``;
* the top-level imports, which run at import time, form no cycle;
* ``object.__setattr__`` is called only while a value is being built,
  in ``__init__``, ``__post_init__`` or ``__setstate__``.

The fixture tests run each check on a small package with planted faults,
so a check that stops firing fails here too.
"""

import ast
import graphlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Layers that orchestrate devices; no device layer may depend on them.
HARNESS = ("repro.experiments", "repro.fleet", "repro.api", "repro.kv")
#: Importer package -> packages it must never import, lazily or not.
FORBIDDEN = {
    "repro.core": HARNESS + (
        "repro.sim", "repro.ftl", "repro.perf", "repro.check",
        "repro.faults", "repro.serve",
    ),
    "repro.flash": HARNESS,
    "repro.sim": HARNESS,
    "repro.ftl": HARNESS,
}
#: ``repro.serve`` is the top of the stack: only the CLI imports it.
SERVE_IMPORTERS = ("repro.serve", "repro.cli", "repro.cliopts")
#: The methods that may write a frozen value's fields.
CONSTRUCTORS = {"__init__", "__post_init__", "__setstate__"}


def within(name, package):
    return name == package or name.startswith(package + ".")


def load(root):
    """``{module: (tree, is_package)}`` for every file under root/repro."""
    modules = {}
    for path in sorted((root / "repro").rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        is_package = parts[-1] == "__init__"
        name = ".".join(parts[:-1] if is_package else parts)
        modules[name] = (ast.parse(path.read_text(), str(path)), is_package)
    return modules


def imports(name, tree, is_package):
    """``(target, line, lazy)`` per import that can run; ``from a import
    b`` yields both ``a`` and ``a.b``, which may be a submodule."""
    package = (name if is_package else name.rpartition(".")[0]).split(".")
    found = []

    def visit(nodes, lazy):
        for node in nodes:
            if isinstance(node, ast.If) and getattr(
                node.test, "id", getattr(node.test, "attr", None)
            ) == "TYPE_CHECKING":
                visit(node.orelse, lazy)
                continue
            if isinstance(node, ast.Import):
                found.extend((a.name, node.lineno, lazy) for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                anchor = package[:len(package) - node.level + 1]
                base = ".".join(
                    (anchor if node.level else []) + [node.module or ""]
                ).strip(".")
                found.append((base, node.lineno, lazy))
                found.extend(
                    (f"{base}.{a.name}", node.lineno, lazy)
                    for a in node.names if a.name != "*"
                )
            visit(ast.iter_child_nodes(node), lazy or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ))

    visit(tree.body, False)
    return found


def layer_violations(modules):
    bad = []
    for name, (tree, is_package) in modules.items():
        banned = [
            target for importer, targets in FORBIDDEN.items()
            if within(name, importer) for target in targets
        ]
        if not any(within(name, ok) for ok in SERVE_IMPORTERS):
            banned.append("repro.serve")
        bad.extend(
            f"{name}:{line} imports {target}"
            for target, line, _ in imports(name, tree, is_package)
            if any(within(target, layer) for layer in banned)
        )
    return bad


def top_level_cycle(modules):
    """One cycle among the top-level imports, or ``None``."""
    graph = {}
    for name, (tree, is_package) in modules.items():
        deps = graph.setdefault(name, set())
        for target, _, lazy in imports(name, tree, is_package):
            while target and target not in modules:
                target = target.rpartition(".")[0]
            if target and target != name and not lazy:
                deps.add(target)
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


def setattr_violations(modules):
    bad = []

    def visit(name, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(name, child, child.name)
                continue
            func = getattr(child, "func", None)
            if (
                isinstance(child, ast.Call)
                and getattr(func, "attr", None) == "__setattr__"
                and getattr(func.value, "id", None) == "object"
                and function not in CONSTRUCTORS
            ):
                bad.append(f"{name}:{child.lineno} in {function}")
            visit(name, child, function)

    for name, (tree, _) in modules.items():
        visit(name, tree, None)
    return bad


@pytest.fixture(scope="module")
def repro_modules():
    return load(SRC)


def test_every_layer_in_the_table_exists(repro_modules):
    named = set(FORBIDDEN) | set(SERVE_IMPORTERS)
    named.update(t for targets in FORBIDDEN.values() for t in targets)
    assert named <= set(repro_modules)


def test_no_forbidden_layer_edge(repro_modules):
    assert layer_violations(repro_modules) == []


def test_no_top_level_import_cycle(repro_modules):
    assert top_level_cycle(repro_modules) is None


def test_object_setattr_only_while_constructing(repro_modules):
    assert setattr_violations(repro_modules) == []


def plant(tmp_path, files):
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return load(tmp_path)


def test_fixture_forbidden_imports_fire_lazy_ones_too(tmp_path):
    modules = plant(tmp_path, {
        "repro/__init__.py": "",
        "repro/core/pool.py": "def f():\n    from ..sim import engine\n",
        "repro/ftl/ftl.py": "from repro.kv.store import KVStore\n",
        "repro/api/schema.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n    from ..fleet import x\n"
            "def f():\n    import repro.serve.server\n"
        ),
        "repro/cli.py": "from . import serve\n",
    })
    assert layer_violations(modules) == [
        "repro.api.schema:5 imports repro.serve.server",
        "repro.core.pool:2 imports repro.sim",
        "repro.core.pool:2 imports repro.sim.engine",
        "repro.ftl.ftl:1 imports repro.kv.store",
        "repro.ftl.ftl:1 imports repro.kv.store.KVStore",
    ]


def test_fixture_top_level_cycle_fires_and_lazy_back_edge_does_not(tmp_path):
    files = {
        "repro/__init__.py": "",
        "repro/a.py": "from . import b\n",
        "repro/b.py": "def f():\n    from .a import x\n",
    }
    assert top_level_cycle(plant(tmp_path, files)) is None
    files["repro/b.py"] = "from .a import x\n"
    assert set(top_level_cycle(plant(tmp_path, files))) == {
        "repro.a", "repro.b",
    }


def test_fixture_setattr_after_construction_fires(tmp_path):
    modules = plant(tmp_path, {"repro/spec.py": (
        "class Spec:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "    def with_x(self, x):\n"
        "        object.__setattr__(self, 'x', x)\n"
    )})
    assert setattr_violations(modules) == ["repro.spec:5 in with_x"]
