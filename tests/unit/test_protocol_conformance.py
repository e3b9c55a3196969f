"""Every pool and FTL class implements the hooks its contract names.

``isinstance(pool, DeadValuePool)`` only checks that the names exist: a
pool that stubs ``tracked_items`` passes every run and breaks the first
``--check`` run.  An FTL subclass that keeps state per physical page
desyncs silently when GC relocates or erases a page and the subclass
does not hear of it.  These tests resolve each member on the real
classes and read its body; the fixture tests plant one fault each.
"""

import ast
import importlib
import inspect
import pkgutil
import textwrap

import repro
from repro.core.dvp import (
    POOL_NAMES,
    DeadValuePool,
    LRUDeadValuePool,
    pool_from_name,
)
from repro.ftl.ftl import BaseFTL

#: The methods the Protocol declares, in declaration order.
POOL_MEMBERS = [
    name for name, value in vars(DeadValuePool).items()
    if inspect.isfunction(value)
    and value.__qualname__.startswith("DeadValuePool.")
]
#: Every FTL subclass must follow GC page moves.
ALWAYS = ("relocate_page",)
#: Hooking either content path obliges all three GC/audit hooks.
CONTENT_HOOKS = ("_on_page_death", "_handle_write")
PAIRED = ("relocate_page", "erase_cleanup", "check_invariants")


def is_stub(func):
    """Abstract, or a body of only ``...``/``pass``/``raise
    NotImplementedError`` after an optional docstring."""
    if getattr(func, "__isabstractmethod__", False):
        return True
    body = ast.parse(textwrap.dedent(inspect.getsource(func))).body[0].body
    if isinstance(getattr(body[0], "value", None), ast.Constant) and (
        isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr)
            and getattr(stmt.value, "value", None) is Ellipsis)
        or (isinstance(stmt, ast.Raise)
            and "NotImplementedError" in ast.unparse(stmt.exc))
        for stmt in body
    )


def owner(cls, name):
    """The class in ``cls``'s MRO that defines ``name``."""
    return next(base for base in cls.__mro__ if name in vars(base))


def stubbed_pool_members(cls):
    return [
        name for name in POOL_MEMBERS
        if is_stub(vars(owner(cls, name))[name])
    ]


def missing_ftl_hooks(cls):
    def overridden(name):
        where = owner(cls, name)
        return where is not BaseFTL and not is_stub(vars(where)[name])

    required = ALWAYS
    if any(overridden(hook) for hook in CONTENT_HOOKS):
        required += PAIRED
    return sorted({name for name in required if not overridden(name)})


def repro_ftl_classes():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, todo = [], [BaseFTL]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro."):
                found.append(sub)
    return sorted(found, key=lambda cls: cls.__qualname__)


def test_protocol_members_are_found():
    assert {"lookup_for_write", "tracked_items", "__contains__"} <= set(
        POOL_MEMBERS
    )


def test_every_named_pool_implements_the_whole_protocol():
    for name in POOL_NAMES:
        pool = pool_from_name(name, entries=256)
        assert isinstance(pool, DeadValuePool), name
        assert stubbed_pool_members(type(pool)) == [], name


def test_every_ftl_subclass_overrides_its_paired_hooks():
    classes = repro_ftl_classes()
    assert {cls.__name__ for cls in classes} >= {"DedupFTL", "DFTLFtl"}
    for cls in classes:
        assert missing_ftl_hooks(cls) == [], cls.__qualname__


def test_fixture_pool_member_stubbed_with_ellipsis_fires():
    class StubbedPool(LRUDeadValuePool):
        def tracked_items(self):
            """Looks implemented; is not."""
            ...

    assert stubbed_pool_members(LRUDeadValuePool) == []
    assert stubbed_pool_members(StubbedPool) == ["tracked_items"]


def test_fixture_write_hook_without_erase_cleanup_fires():
    class HalfHookedFTL(BaseFTL):
        def _handle_write(self, *args):
            return super()._handle_write(*args)

        def relocate_page(self, old_ppn, new_ppn):
            super().relocate_page(old_ppn, new_ppn)

        def check_invariants(self):
            super().check_invariants()

    class UnhookedFTL(BaseFTL):
        def relocate_page(self, old_ppn, new_ppn):
            raise NotImplementedError

    assert missing_ftl_hooks(HalfHookedFTL) == ["erase_cleanup"]
    assert missing_ftl_hooks(UnhookedFTL) == ["relocate_page"]
