"""Pinned block digests at bounded and unlimited host queue depth.

Bounded depth was otherwise covered only by serial-vs-parallel identity,
which a change to admission itself cannot fail.  The ``GOLDEN`` digests
were minted before ``SimulatedSSD`` stopped keeping a host queue at
unlimited depth and before ``CompletedRequest`` became a named tuple;
both changes must leave every start time, and so every digest, as it was.

The unlimited-depth rows also pin the canonical matrix slice (mail, web
and desktop against baseline, mq-dvp and dedup at the paper's 200k-entry
pool label), so every cell of that slice has a golden here.
"""

import pytest

from repro.perf.spec import RunSpec, execute_spec, result_digest

SCALE = 0.05

#: (workload, system, queue_depth) -> result_digest, scale 0.05.
GOLDEN = {
    ("desktop", "baseline", None):
        "23bbdca308955e305f055b8743c3e04023cc03e37b1ac5255f37ce9698dfd766",
    ("desktop", "dedup", None):
        "7eb0eca2fd3c42bec025e9d0fb6e9571697e3645ab6bf1c0f6fdc87136efb318",
    ("desktop", "mq-dvp", None):
        "8248842a9c2412c974f369a3b5fa03eb44738c98f2837ccf307953cc25e6738c",
    ("mail", "baseline", None):
        "13f014f75c56439a3f2e1b9d81af415adb6b3a01cc0c49ccbbdd3c3c5def2086",
    ("mail", "dedup", None):
        "1b946999d22eb524362dfb20bfb9f852803b21b0566e18c25793139b3a6c99ac",
    ("mail", "mq-dvp", None):
        "51806b3cbc22a9b0710be44edb3391d940590ab3cc5ef79b1c3ad8718eba3dc8",
    ("mail", "mq-dvp", 1):
        "f14ce00e950862873f895d1fd796e90bc46f3146f6acc9b6febc0512fed0ce34",
    ("mail", "mq-dvp", 4):
        "e8020320402c6579a64e4d8b89d44bdb6b78bb0ababbbf0733fad9887aaf7ede",
    ("web", "baseline", None):
        "d13cc35d0a4d3ef309ae7b82c21cf764d1cafdee72c21c9c3dd4b12bf1f295ff",
    ("web", "baseline", 1):
        "5bea8f291d8fa6ca67106c6cdb39ae8bc6bbf3f5183f04a066c979e31f6cea7f",
    ("web", "baseline", 4):
        "c44fcc52eb2dfe1c220e3aa75f773c91ef6a54ab48cf3d5c3b964003f03bbeaf",
    ("web", "dedup", None):
        "b6c559060e5c64f98abe339ad788e67bf59a4bc6b9c6cd7f820c7edbadea9ea6",
    ("web", "mq-dvp", None):
        "26fd9b375a7ffa257860feb6ef0af44e2e79a0c2a9dc709b4a3c3f68888003dd",
    ("hadoop", "dedup", None):
        "df2bf0c0a7d80cf2a1760dcc2a5952606341db813990608578b67d22619e0057",
    ("hadoop", "dedup", 1):
        "cf7f6c20cbe0c2dd7cd9321a0e9b450f21d5b0f64ce21b5a37fe326208e57c5d",
    ("hadoop", "dedup", 4):
        "60076d019d28caa7f1034873a4c860ae88fa96a881f6b00875481e68f5ce509e",
}


@pytest.mark.parametrize("workload,system,queue_depth", sorted(
    GOLDEN, key=lambda cell: (cell[0], cell[1], cell[2] or 0)
))
def test_block_digest_matches_golden(workload, system, queue_depth):
    result = execute_spec(RunSpec(
        workload, system, paper_pool_entries=200_000, scale=SCALE,
        queue_depth=queue_depth,
    ))
    assert result_digest(result) == GOLDEN[workload, system, queue_depth]
