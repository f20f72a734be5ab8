"""Pinned compressed bytes for small seeded fields.

Speed work on the entropy stage (Huffman pack, LZ match index) must not
change a single output byte. These SHA-256 digests of ``CliZ`` and ``SZ3``
blobs were recorded before the packed-key LZ index and the word-plane
``BitWriter`` pack replaced the older kernels. A change that alters them
changes the format and must say so.
"""

import hashlib

import pytest

from repro import decompress
from repro.baselines.sz3 import SZ3
from repro.core import CliZ
from repro.datasets import cesm_t, hurricane_t, ssh

FIELDS = {
    "SSH": lambda: ssh(shape=(24, 20, 96), seed=3),  # masked
    "CESM-T": lambda: cesm_t(shape=(13, 60, 60), seed=4),
    "Hurricane-T": lambda: hurricane_t(shape=(20, 50, 50), seed=5),
}

GOLDEN = {
    ("SSH", "CliZ"): (30843, "d1e4a68490e4c8a20f115ec91403798818e4aa392dc73c6baf7d73325843a4a6"),
    ("SSH", "SZ3"): (54204, "6ee770c3068ba219350363702c7f1441dd7f011f7f552043246358ee65904d0c"),
    ("CESM-T", "CliZ"): (27767, "3d5a4c6dd8252b9e465cd8596238fb970e411fa450d377f7d03b75c24f693e36"),
    ("CESM-T", "SZ3"): (27123, "bdede11f23937d81887bd17b000669888335b153d80cf558b0fd295ddf2fbbfb"),
    ("Hurricane-T", "CliZ"): (19776, "ac336d4e7f516dcdcbb89d2b4fa5308a4fcab6ad7f75033db64cf32ca3cbff05"),
    ("Hurricane-T", "SZ3"): (19257, "ef0b4132e0f03a05c7b8551d14c92b5080335ec7d0f11b6b238455c1d8d54129"),
}

CODECS = {"CliZ": CliZ, "SZ3": SZ3}


@pytest.mark.parametrize("field,codec", sorted(GOLDEN))
def test_blob_bytes_are_pinned(field, codec):
    f = FIELDS[field]()
    assert (f.mask is not None) == (field == "SSH")
    blob = CODECS[codec]().compress(f.data, rel_eb=1e-3, mask=f.mask)
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == GOLDEN[field, codec]
    out = decompress(blob)
    assert out.shape == f.data.shape and out.dtype == f.data.dtype
