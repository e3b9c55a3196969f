"""Differential test: the live MultiQueue against its reference model.

``mq_reference.py`` keeps a verbatim copy of the MultiQueue as it was
before the touch/settle rewrite.  Both are driven with the same random
operation sequences over a key space of four fingerprints, so inserts hit
resident keys, accesses miss, and removals and evictions race with
promotions.  A short default lifetime (zero included, which lets one
sweep cascade) makes demotions frequent.  After
every operation the two must agree on the per-queue key order, every
entry's bookkeeping, the counters and the hottest-entry interval.  The
block digests cover four traces; this pins the MQ's aging semantics
directly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import fingerprint_of_value
from repro.core.mq import MultiQueue

from . import mq_reference

KEYS = [fingerprint_of_value(i) for i in range(4)]

key = st.sampled_from(KEYS)
operation = st.one_of(
    st.tuples(st.just("insert"), key, st.integers(0, 12)),
    st.tuples(st.just("access"), key),
    st.tuples(st.just("touch"), key),
    st.tuples(st.just("set_popularity"), key, st.integers(0, 40)),
    st.tuples(st.just("remove"), key),
    st.tuples(st.just("evict_one")),
    st.tuples(st.just("set_capacity"), st.integers(1, 8)),
)


def outcome(call):
    """What a call returned, or the exception type it raised."""
    try:
        return ("ok", call())
    except KeyError:
        return ("raised", KeyError)


def apply(mq, op, now, live):
    name, args = op[0], op[1:]
    if name == "insert":
        return outcome(lambda: mq.insert(args[0], f"v{args[0]!r}", now,
                                         popularity=args[1]))
    if name == "touch":
        if not live:
            # The reference has no touch(): access() is its definition.
            return ("ok", mq.access(args[0], now))
        entry = mq.entry(args[0])
        if entry is None:
            return ("ok", None)
        mq.touch(args[0], entry, now)
        return ("ok", entry.payload)
    if name == "access":
        return ("ok", mq.access(args[0], now))
    if name == "set_popularity":
        return outcome(lambda: mq.set_popularity(args[0], args[1], now))
    if name == "remove":
        return ("ok", mq.remove(args[0]))
    if name == "evict_one":
        return ("ok", mq.evict_one())
    return ("ok", mq.set_capacity(args[0]))


def state(mq):
    queues = [mq.keys_in_queue(i) for i in range(mq.num_queues)]
    entries = {}
    for keys in queues:
        for k in keys:
            e = mq.entry(k)
            entries[k] = (e.payload, e.popularity, e.queue_index,
                          e.expire_time, e.last_access, e.prev_access)
    return {
        "queues": queues,
        "entries": entries,
        "counters": (mq.promotions, mq.demotions, mq.evictions),
        "hottest_interval": mq.hottest_interval,
        "len": len(mq),
    }


@settings(max_examples=400, deadline=None)
@given(
    capacity=st.integers(1, 6),
    num_queues=st.integers(1, 5),
    lifetime=st.integers(0, 6),
    steps=st.lists(
        st.tuples(operation, st.integers(0, 3)), min_size=10, max_size=80
    ),
)
def test_multiqueue_matches_reference(capacity, num_queues, lifetime, steps):
    live = MultiQueue(capacity, num_queues=num_queues,
                      default_lifetime=lifetime)
    ref = mq_reference.MultiQueue(capacity, num_queues=num_queues,
                                  default_lifetime=lifetime)
    now = 0
    for op, advance in steps:
        now += advance
        got = apply(live, op, now, live=True)
        want = apply(ref, op, now, live=False)
        assert got == want, op
        assert state(live) == state(ref), op
        live.check_invariants()
