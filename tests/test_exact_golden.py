"""Golden exact outputs: the tree and set bytes for m = 1..6, the
exact Perron areas for m = 7 and 8, and perron-base tube families.

Each digest is the sha256 of what `perron --m k` or `kakeya --m k` writes
with `--out` and `--svg`; the areas are `tree.area().to_ints()`.  Any
change to the exact core that moves a piece, a vertex or an area shows
here.  The perron-base digests are of family_to_json: their tubes run
along covering segments turned about the apex, so they pin the turn's
doubles too.  The other placements' digests pin the family wire format,
and the `tubes analyze` report digests pin the doubles of the family's
total volume (a left-to-right sum of per-tube volumes), its bounding
box and the parallel-lines chord norms.
"""

import hashlib

import pytest

from kakeyalab.cli.main import dispatch
from kakeyalab.perron import PerronSpec, build_perron_tree
from kakeyalab.tubelab import family_to_json, generate_family, parallel_lines_family

# (subcommand, m) -> (sha256 of the JSON, sha256 of the SVG)
DIGESTS = {
    ("perron", 1): ("1ca1d7616688bd06166a2a9283b446e2902816681cbe39f36a5f5379d83499c3",
                  "b40cd9a8f4db6ad7256f03b8da0b90ce27594c3abe4b694f11ef24caa9b0f249"),
    ("kakeya", 1): ("a3b56be8f99534b0704c8b030b83276ec53bdea1e02ddf2022ea858947310342",
                  "ddf164198f5a1510e259dcf8af860ab5dc37abf87f15d5198606196407fc0585"),
    ("perron", 2): ("51f9bc72715ab3aaa3ee64e51e0482cd716f8c992c285671973c19311c355839",
                  "f06bae5c70bf45845aaf846bea79fe82ffcc07967936bf260c0612129fe2beb5"),
    ("kakeya", 2): ("01535178d12102e7943253754fa5d616be9a02d86ddea765b58d174344b7f093",
                  "73201ebfe8d08b68f08a355d54218e09eac6d8241067f7aec8d1789b3a62f27f"),
    ("perron", 3): ("71bed5f4ab75018c46ee0dc5fcf31072b593bf8fc3b765808f626f80f1095da8",
                  "14f87c93834398414fdb8257fcf53f17df5bd548c5e1a0e192e4cab0da43bcdb"),
    ("kakeya", 3): ("04c43142db282e459a406bf9a9cc147d7b5ca225299116c61ca7b96443cb845f",
                  "f3cabd66b23fb3c7e9d4d45663d2c8693b55b19ea69df7fa06f72ab33555b2ce"),
    ("perron", 4): ("daaef9d2e8c91b02b9c6b49b970bb30a2cc11a3a3df0e53fcad4226c893f24a2",
                  "cece06872a135bb6ef384518528439eaef2de3be225ee5bce710d5b6b6c6aa6a"),
    ("kakeya", 4): ("50d1cbdac04b89c393e64687ab49ff471aaaa5da56f2e37f049889eece209284",
                  "0f2b38c291eedebad5f4b49ae24984345726f5479293f98dec01020e59e56a00"),
    ("perron", 5): ("04e37dffed239f88c7182cbd973d378c08d54c7e32f1945c3369bfda583366aa",
                  "95164ba52dfeaba20c2d606e314a2ad942106eabe08817d7039843ddea4ddc0c"),
    ("kakeya", 5): ("4c5953fe8175600f47dd0319e2d571feecea3f0f26344d221e43e42be7cb6017",
                  "29f5e08a46a89a707333f08fc48c76ed814c1857aabf8cd74902458a279d3baa"),
    ("perron", 6): ("7c4da3eceb54bd43dc3d4eb4951ab6ceba64012551a350286145228bce562fe3",
                  "7678a2495145105f39e87327d3ee0aba528767bbbe1599643e7b163c3d859f0b"),
    ("kakeya", 6): ("123f6935925f4d4b76d8add0aab824a467fa4a5352212a3c9f224b169c83ee6e",
                  "9c83f3229b14333ce9a24b754c3a7b693af3ec364a437be97779f7f81fbc8191"),
}

AREAS = {7: (0, 1, 40157, 476280), 8: (0, 1, 27119, 340200)}

# (log2 1/delta, tree_levels) -> sha256 of the perron-base family's JSON
FAMILIES = {
    (5, 6): "037085a6e000b187ce76b698963ff1a3f0763e742e683056021085b29f4e9076",
    (6, 6): "d7540b7f703da7d4298b52bc5d6ee3470892cc9e5a48c55b6559202eb9121692",
    (7, 4): "b062f91099ad40b6f8a64bd0f6cb6afa8d57bb65e3ebca10bddb89d87dc3a26f",
}

# (placement, dim, log2 1/delta, seed) -> sha256 of the family's JSON
PLACED = {
    ("bush", 2, 5, 0): "51ca970f1cd58ddcf0daaa4533dd437b7e1844f1cf6f15602e0a1e7aef7312be",
    ("bush", 3, 3, 0): "d1730c861e2e88f8d2f8d1c8fde9cc1f3de927e6b54a3dcf26b2b3ed3bb4cd79",
    ("random", 2, 5, 7): "1b43e2485df6430b3d52f8d9787df6605696a06f2c74010a81aa49636d53ecd2",
    ("random", 3, 3, 7): "125385daa6168f02dedc30ffc11d04899a4b626ac1a351fae570cb3737571b91",
    ("parallel-lines", 3, 3, 0): "f10a29fb6b4239ccecf77c533fd249af1fd05c8ab49f93ee84fe11a6ec5cc703",
}

# `tubes analyze` flags -> sha256 of the report CSV
REPORTS = {
    "parallel-lines-1/8": (
        ["--delta", "0.125", "--placement", "parallel-lines",
         "--checks", "volume,distinct,wolff,sticky"],
        "a868ed58ec35e54edc122dd4fb6d01ec4d1751cc5e2bf43e630c48605b8dfbc5"),
    "bush-2^-5-grid": (
        ["--delta", "0.03125", "--method", "grid"],
        "b3d6ffa57dc92fc71b6f78d9914bf5007403285853db366d23d4f6de9c013dae"),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("cmd,m", sorted(DIGESTS), ids=lambda v: str(v))
def test_output_bytes(tmp_path, cmd, m):
    out, svg = tmp_path / "out.json", tmp_path / "out.svg"
    assert dispatch([cmd, "--m", str(m), "--out", str(out), "--svg", str(svg)]) == 0
    assert (sha256(out), sha256(svg)) == DIGESTS[cmd, m]


@pytest.mark.parametrize("m", sorted(AREAS))
def test_deep_tree_areas(m):
    assert build_perron_tree(PerronSpec.default(m)).area().to_ints() == AREAS[m]


@pytest.mark.parametrize("k,levels", sorted(FAMILIES))
def test_perron_base_family_bytes(k, levels):
    fam = generate_family(2.0 ** -k, 2, "perron-base", tree_levels=levels)
    assert hashlib.sha256(family_to_json(fam).encode()).hexdigest() == FAMILIES[k, levels]


@pytest.mark.parametrize("placement,dim,k,seed", sorted(PLACED), ids=lambda v: str(v))
def test_placed_family_bytes(placement, dim, k, seed):
    fam = (parallel_lines_family(2.0 ** -k) if placement == "parallel-lines"
           else generate_family(2.0 ** -k, dim, placement, seed=seed))
    assert hashlib.sha256(family_to_json(fam).encode()).hexdigest() == PLACED[placement, dim, k, seed]


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_tubes_report_bytes(tmp_path, name):
    flags, digest = REPORTS[name]
    out = tmp_path / "r.csv"
    assert dispatch(["tubes", "analyze", *flags, "--out", str(out)]) == 0
    assert sha256(out) == digest
