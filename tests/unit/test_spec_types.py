"""Every spec the process-pool engines ship to workers pickles by value.

``RunSpec`` (matrix engine), ``KVSpec`` (KV engine), ``ShardSpec`` and
``FleetSpec`` (fleet engine) cross a process boundary on every
``--jobs N`` run.  A field typed as a callable, a live object or a
mutable container either fails at fan-out time or pickles state that
silently decouples the worker from the parent.

The check walks the *resolved* field types (``typing.get_type_hints``)
of every dataclass reachable from those roots and accepts only scalars,
enums, ``tuple``/``frozenset``/``Optional`` of accepted types, and
further dataclasses — then pickles a fully populated instance of each
reached type and checks it round-trips.
"""

import dataclasses
import enum
import pickle
import types
import typing
from typing import Callable, Optional, Tuple

import pytest

from repro.faults.model import FaultConfig
from repro.fleet import FleetSpec, ShardSpec
from repro.kv import KVSpec
from repro.perf.spec import RunSpec

ROOTS = (RunSpec, KVSpec, ShardSpec, FleetSpec)

_SCALARS = (bool, int, float, complex, str, bytes, type(None))
_UNIONS = tuple(
    u for u in (typing.Union, getattr(types, "UnionType", None)) if u
)


def walk_spec_types(root: type) -> Tuple[dict, list]:
    """``(reached, bad)`` for the dataclass closure under ``root``.

    ``reached`` maps each dataclass to the field path it was first
    reached by; ``bad`` lists ``"path: type"`` for every rejected field.
    """
    reached: dict = {}
    bad: list = []

    def visit_class(cls: type, path: str) -> None:
        if cls in reached:
            return
        reached[cls] = path
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            visit_type(hints[field.name], f"{path}.{field.name}")

    def visit_type(tp, path: str) -> None:
        if tp in _SCALARS or tp is Ellipsis:
            return
        if isinstance(tp, type) and issubclass(tp, enum.Enum):
            return
        if isinstance(tp, type) and dataclasses.is_dataclass(tp):
            visit_class(tp, path)
            return
        origin = typing.get_origin(tp)
        if origin in _UNIONS or origin in (tuple, frozenset):
            for arg in typing.get_args(tp):
                visit_type(arg, path)
            return
        bad.append(f"{path}: {tp!r}")

    visit_class(root, root.__name__)
    return reached, bad


FAULTS = FaultConfig(
    seed=7,
    program_failure_prob=0.01,
    erase_failure_prob=0.02,
    read_error_prob=0.03,
    max_read_retries=5,
    max_program_retries=6,
    program_failure_retire_threshold=3,
    spare_block_fraction=0.05,
    crash_after_requests=100,
)
FLEET = FleetSpec(
    workload="mail",
    system="mq-dvp",
    shards=3,
    paper_pool_entries=1_000,
    scale=0.01,
    seed=11,
    queue_depth=4,
    pool_mode="shared",
    replicas=8,
    chunk_requests=256,
    check_interval=50,
    oracle=True,
)

#: One instance of every reachable spec type, every field set.
POPULATED = {
    RunSpec: RunSpec(
        workload="mail",
        system="mq-dvp",
        paper_pool_entries=1_000,
        scale=0.01,
        seed=3,
        queue_depth=4,
        faults=FAULTS,
        check_interval=50,
        oracle=True,
        trim_every=7,
    ),
    KVSpec: KVSpec(
        workload="ycsb-b",
        system="dedup",
        paper_pool_entries=1_000,
        scale=0.01,
        seed=5,
        fill_fraction=0.5,
        queue_depth=2,
    ),
    FleetSpec: FLEET,
    ShardSpec: ShardSpec(fleet=FLEET, index=2),
    FaultConfig: FAULTS,
}


@pytest.mark.parametrize("root", ROOTS, ids=lambda cls: cls.__name__)
def test_spec_closure_has_only_by_value_field_types(root):
    _, bad = walk_spec_types(root)
    assert bad == []


def test_walk_reaches_every_shipped_spec_type():
    reached = set()
    for root in ROOTS:
        reached |= set(walk_spec_types(root)[0])
    assert sorted(cls.__name__ for cls in reached) == [
        "FaultConfig", "FleetSpec", "KVSpec", "RunSpec", "ShardSpec",
    ]
    # a newly reachable dataclass needs a populated instance below
    assert reached == set(POPULATED)


@pytest.mark.parametrize(
    "cls", sorted(POPULATED, key=lambda c: c.__name__),
    ids=lambda cls: cls.__name__,
)
def test_populated_instance_round_trips_through_pickle(cls):
    value = POPULATED[cls]
    unset = [
        f.name for f in dataclasses.fields(value)
        if getattr(value, f.name) is None
    ]
    assert unset == [], "populate every field so pickling sees it"
    clone = pickle.loads(pickle.dumps(value))
    assert type(clone) is cls
    assert clone == value


# -- the walk trips on a callable two dataclasses below a spec ----------


@dataclasses.dataclass(frozen=True)
class _Hook:
    on_sample: Callable[[int], None]


@dataclasses.dataclass(frozen=True)
class _Sampler:
    every: int = 100
    hook: Optional[_Hook] = None


@dataclasses.dataclass(frozen=True)
class _LeakySpec:
    workload: str
    sampler: Optional[_Sampler] = None


def test_callable_two_dataclasses_below_a_spec_is_rejected():
    reached, bad = walk_spec_types(_LeakySpec)
    assert set(reached) == {_LeakySpec, _Sampler, _Hook}
    (entry,) = bad
    assert entry.startswith("_LeakySpec.sampler.hook.on_sample: ")
    assert "Callable" in entry


def test_mutable_containers_are_rejected():
    @dataclasses.dataclass(frozen=True)
    class Tagged:
        tags: typing.List[str]
        extras: typing.Dict[str, int]
        fine: Tuple[int, ...] = ()

    _, bad = walk_spec_types(Tagged)
    assert [entry.split(":")[0] for entry in bad] == [
        "Tagged.tags", "Tagged.extras",
    ]
