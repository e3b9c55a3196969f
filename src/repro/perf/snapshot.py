"""Live mid-run device state: checkpoint and restore by pickle.

The serve layer checkpoints a device *mid-run* — FTL tables, timelines,
latency samples, the global request index — such that a restored device
finishes a trace digest-identical to one that was never interrupted.  A
live checkpoint pickles the whole (ftl, ssd) object graph in one piece,
so every cross-reference (gc→array, timelines, host queue heap,
accumulated samples) survives by construction.  Restores are
``pickle.loads`` of an immutable byte string, so a restored device can
never share state with the one it was captured from.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Tuple

from ..ftl.ftl import BaseFTL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.ssd import SimulatedSSD

__all__ = ["capture_live_state", "restore_live_state"]

#: Live-state blobs are version-tagged so a reader refuses a blob from
#: an incompatible writer instead of grafting mismatched state.
LIVE_STATE_VERSION = 1


def capture_live_state(ftl: BaseFTL, ssd: "SimulatedSSD") -> bytes:
    """Pickle the complete mid-run state of a device.

    Requires a device without live observers attached (samplers hold
    callbacks that cannot cross a pickle boundary); the serve layer
    never attaches them to checkpointable sessions.
    """
    if ssd.observer is not None:
        raise ValueError(
            "cannot capture live state with a TimeSeriesSampler attached "
            "(samplers hold process-local callbacks)"
        )
    if ssd.ftl is not ftl:
        raise ValueError("ssd was built over a different ftl")
    return pickle.dumps(
        {"version": LIVE_STATE_VERSION, "ftl": ftl, "ssd": ssd},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def restore_live_state(blob: bytes) -> Tuple[BaseFTL, "SimulatedSSD"]:
    """Rehydrate a :func:`capture_live_state` blob.

    The returned pair shares one object graph (``ssd.ftl is ftl``), so
    stepping the restored device continues exactly where the captured
    one stopped — the serve checkpoint tests prove digest identity with
    an uninterrupted run.
    """
    state = pickle.loads(blob)
    version = state.get("version")
    if version != LIVE_STATE_VERSION:
        raise ValueError(
            f"live-state blob version {version!r} != supported "
            f"{LIVE_STATE_VERSION}"
        )
    ftl, ssd = state["ftl"], state["ssd"]
    if ssd.ftl is not ftl:
        raise ValueError("corrupt live-state blob: ssd/ftl graph split")
    return ftl, ssd
