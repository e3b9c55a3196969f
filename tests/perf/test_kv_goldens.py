"""Pinned KV digests: every zoo workload through the key->LPN store.

The ``GOLDEN`` digests were minted before the kv translate path and the
zoo streams were flattened into one frame per op, and before the host
adapter stopped keeping a queue at unlimited depth.  Those rewrites must
change no page request, no store counter and no simulated time, so each
``kv_result_digest`` must reproduce byte for byte, on the page-mapped and
the DFTL-backed pool, at unlimited depth and at ``queue_depth=4``.

``ABLATION_GOLDEN`` pins both legs of ``run_kv_ablation`` (pool on and
pool off) for the update-heavy and read-mostly YCSB mixes at scale 0.5,
where ycsb-a revives about a fifth of its flash writes.
"""

import pytest

from repro.kv import KVSpec, execute_kv_spec

SCALE = 0.05

#: (workload, system, queue_depth) -> kv_result_digest, scale 0.05.
GOLDEN = {
    ("diurnal", "mq-dvp", None):
        "5850eb3c41f49e73f38c086de80a7e5ecb31a78b18175fc0411dd5159e9895a0",
    ("diurnal", "mq-dvp", 4):
        "401d75aa7408d7f8e635fadcbec030f44ce8ee173014874dcc8c1feb1d041cd9",
    ("diurnal", "dftl-mq-dvp", None):
        "aeb1a61bddb07aac2589e2ad2c9c0c8b9302093754f9d7bbce42c5311ddf2205",
    ("diurnal", "dftl-mq-dvp", 4):
        "87f572de871b7d943cd654e6ad0e0cb50921b5ca1a9a4a85c18cdaabea2f6477",
    ("trim-heavy", "mq-dvp", None):
        "8b1ceab5e6e19174a93d7228ec9d23eeae95e8c47b27221858dcf62bf432386c",
    ("trim-heavy", "mq-dvp", 4):
        "fc8048afb920465311110fc9aacdd64349ea70cabb4f6c6e603ed54d19232b0a",
    ("trim-heavy", "dftl-mq-dvp", None):
        "a34e68c60bbacfcea681c69f723ffabb4dd5ae7ae4fa1e58308ece1b3ffeb7d4",
    ("trim-heavy", "dftl-mq-dvp", 4):
        "e541aba5e919365440fb8a2aadea91a6237b25479b82fdd780407d894e6dd018",
    ("ycsb-a", "mq-dvp", None):
        "def2b2151e06cbbdc6e92a52ad1c1301351e24b5b58402797ed758f32bf13562",
    ("ycsb-a", "mq-dvp", 4):
        "bd8236080ce379146e8c246fa3e8c8aa9cd96a3bed7010ccc3bcf7a8883d10ba",
    ("ycsb-a", "dftl-mq-dvp", None):
        "9e7f82a589a45068da7676334e4919464c87e4905d04c1ad6a4ed38323df7f91",
    ("ycsb-a", "dftl-mq-dvp", 4):
        "ba62848da8aaae97242121addb01719fb2fee14e2fa5c8086acef7e271136ffa",
    ("ycsb-b", "mq-dvp", None):
        "eef4741ff67a05f981973dc956d6c735a71f37165c97af348b40d039e7aa9af3",
    ("ycsb-b", "mq-dvp", 4):
        "f03ae9ed4db28d6447530357dcb414f28452c9fa96c7ff759c95c65ef33aa4c8",
    ("ycsb-b", "dftl-mq-dvp", None):
        "f5abbfc44ed117b257b0a550a39dded03243ca0451b612f9ce6d0d03e165a145",
    ("ycsb-b", "dftl-mq-dvp", 4):
        "56203bd2f46913ee891c9a2bfbccb298f67e43c605a92fb621c6d7c568145ac8",
    ("ycsb-c", "mq-dvp", None):
        "9bc9414270d7c33ec4af0360564817543f66949310643a5580d5d4b72479d49c",
    ("ycsb-c", "mq-dvp", 4):
        "581e9d2a278cf80c65fa8537332c9ce6df16211ed4b4f63c161a2c49fdb71225",
    ("ycsb-c", "dftl-mq-dvp", None):
        "8201a83f0881598e54d7fb11b9eedbebfa84dd162f335e444a7892e7674cf083",
    ("ycsb-c", "dftl-mq-dvp", 4):
        "4046747f3c8682f9f2339ca3ce588bff21900b660baa116522f8719b113b31c4",
    ("ycsb-d", "mq-dvp", None):
        "4c31a7afbb85f47c24887edcac5e4cf323ddaf9db8a52d95829177ef3bfc4fda",
    ("ycsb-d", "mq-dvp", 4):
        "a8238c2dd45aa9dee162c1bbf7e4eadf43a2cc1d06dd6a1663b5ab846392eb3b",
    ("ycsb-d", "dftl-mq-dvp", None):
        "d3462a643ace7f739b70439242a3d77c1ed30a7a7c288cb071f18bd1d00b7a22",
    ("ycsb-d", "dftl-mq-dvp", 4):
        "8f9238a1a0ac4033c76a30228394f7555870588626b16757b2425320898c468d",
    ("ycsb-e", "mq-dvp", None):
        "3766d8a4fb7264d223a94c364df953c292d78b990d6f6d90a12c827a62479391",
    ("ycsb-e", "mq-dvp", 4):
        "2a246a73d83984ff7535aa8031404873c5fb3c8f9ae5c71a22127cd61c120c7e",
    ("ycsb-e", "dftl-mq-dvp", None):
        "03a356430c779bfd0717056332501a7f236e4aabd87a03b965871982aeaf0b1d",
    ("ycsb-e", "dftl-mq-dvp", 4):
        "2ef0d20abcb844ea1b9106fbb9ca8bc464775af1b5bbba89ac78192dbaf2f86a",
}


@pytest.mark.kv_smoke
@pytest.mark.parametrize("workload,system,queue_depth", sorted(
    GOLDEN, key=lambda cell: (cell[0], cell[1], cell[2] or 0)
))
def test_kv_digest_matches_golden(workload, system, queue_depth):
    run = execute_kv_spec(KVSpec(
        workload=workload, system=system, scale=SCALE,
        queue_depth=queue_depth,
    ))
    assert run.digest == GOLDEN[workload, system, queue_depth]


#: (workload, system) -> kv_result_digest, scale 0.5: each YCSB mix on
#: mq-dvp and on its pool-off counterpart (``KVSpec.pool_off``).
ABLATION_SCALE = 0.5
ABLATION_GOLDEN = {
    ("ycsb-a", "mq-dvp"):
        "7398c751303a70a35e111331a0c0f0700590d3d3c743f74e4d0ee081329336f8",
    ("ycsb-a", "baseline"):
        "adc4665a47301d23ad57bfe5d69d8a7c8feb3efe5a417c675a3fc0613eb1e60d",
    ("ycsb-b", "mq-dvp"):
        "435cd9e16b184ea7b2a3c540869f8178a6df858827463c358342f51d73fc602d",
    ("ycsb-b", "baseline"):
        "e3fcdc073475f08441c5358b3f2aa9ab2e6b86c3b8ec8fe7fb79376cbf910a70",
}


@pytest.mark.kv_smoke
@pytest.mark.parametrize("workload", ["ycsb-a", "ycsb-b"])
def test_kv_ablation_digests_match_golden(workload):
    on = KVSpec(workload=workload, system="mq-dvp", scale=ABLATION_SCALE)
    for spec in (on, on.pool_off()):
        assert execute_kv_spec(spec).digest == ABLATION_GOLDEN[
            workload, spec.system
        ]
