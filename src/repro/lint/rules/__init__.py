"""Rule family modules; importing them populates the registry.

``det``     determinism (wall clocks, global RNG, set iteration, environ)
``layer``   import-DAG layering and cycle detection
``proto``   protocol-surface completeness (pools, FTL hooks)
``frozen``  frozen-dataclass hygiene (no ``object.__setattr__`` escapes)

The retired ``flow.*`` codes and ``frozen.spec-picklable`` stay reserved;
the invariants they guarded are checked at runtime by the test suite
(DESIGN.md §14 maps each code to its replacement test).
"""

from . import det, frozen, layer, proto  # noqa: F401

__all__ = ["det", "frozen", "layer", "proto"]
