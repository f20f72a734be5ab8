"""Pinned compressed bytes for every registered codec, and frozen streams.

A change to a codec's encoder, to the shared entropy stage or to the
codec frame (:class:`repro.core.codec.Codec`) must not change a single
output byte unless it says so. ``GOLDEN`` holds SHA-256 digests of blobs
for small seeded fields:

* the ``CliZ`` and ``SZ3`` pins were recorded before the packed-key LZ
  index and the word-plane ``BitWriter`` pack replaced the older kernels;
* the other seven codecs' pins were recorded before the codec frame took
  over each codec's own input checks, container tag and dtype restore.
  They use smaller fields (SPERR alone costs 3 s on the full-size ones).

``FROZEN`` pins what the committed streams ``tests/fixtures/codec_*.rz``
decode to, so old streams keep decoding to the same values. Each was
written by ``compressor_for(name).compress(data, rel_eb=1e-3, mask=mask)``
on ``hurricane_t(shape=(6, 16, 16), seed=7)`` (CliZ: the masked
``ssh(shape=(6, 8, 24), seed=7)``); ``codec_zfp_4d.rz`` is the same
Hurricane-T field as float64, reshaped to ``(2, 3, 16, 16)``.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import compressor_for, decompress
from repro.datasets import cesm_t, hurricane_t, ssh

FIXTURES = Path(__file__).parent / "fixtures"

FIELDS = {
    "SSH": lambda: ssh(shape=(24, 20, 96), seed=3),  # masked
    "CESM-T": lambda: cesm_t(shape=(13, 60, 60), seed=4),
    "Hurricane-T": lambda: hurricane_t(shape=(20, 50, 50), seed=5),
    "SSH-small": lambda: ssh(shape=(12, 10, 48), seed=3),  # masked
    "CESM-T-small": lambda: cesm_t(shape=(13, 30, 30), seed=4),
    "Hurricane-T-small": lambda: hurricane_t(shape=(10, 25, 25), seed=5),
}

GOLDEN = {
    ("SSH", "CliZ"): (30843, "d1e4a68490e4c8a20f115ec91403798818e4aa392dc73c6baf7d73325843a4a6"),
    ("SSH", "SZ3"): (54204, "6ee770c3068ba219350363702c7f1441dd7f011f7f552043246358ee65904d0c"),
    ("CESM-T", "CliZ"): (27767, "3d5a4c6dd8252b9e465cd8596238fb970e411fa450d377f7d03b75c24f693e36"),
    ("CESM-T", "SZ3"): (27123, "bdede11f23937d81887bd17b000669888335b153d80cf558b0fd295ddf2fbbfb"),
    ("Hurricane-T", "CliZ"): (19776, "ac336d4e7f516dcdcbb89d2b4fa5308a4fcab6ad7f75033db64cf32ca3cbff05"),
    ("Hurricane-T", "SZ3"): (19257, "ef0b4132e0f03a05c7b8551d14c92b5080335ec7d0f11b6b238455c1d8d54129"),
    ("SSH-small", "SZ2"): (27381, "72c18b83add454ef90b321f818c49fb3418992bc31b0c9d6821b8259a41e1129"),
    ("SSH-small", "QoZ"): (9070, "e44f27e00f3ea5106dac88948fd374b3e859bb71c0e98438b8ff2251eb196166"),
    ("SSH-small", "ZFP"): (30043, "b669aa5c85890d8e71583f8311e0fd4a77ea7fc23d8168d1fe93cf372e1ad370"),
    ("SSH-small", "SPERR"): (46007, "aa4962d4c0d32d26eddd6138cddd85f02e389bfc9c260b9ddc8e27868ea72482"),
    ("SSH-small", "TTHRESH"): (10423, "5947bf4671cbbd3b42ac0e2acb67eb69f61a00b1e5ced3071f90e6ebd3605c36"),
    ("SSH-small", "BitGrooming"): (17865, "fd1ff311ebac7aa97e08625019430dbc9554f33fb54f354d838fd7a6b8b5a0d1"),
    ("SSH-small", "DigitRounding"): (12059, "2ba568f35439ed32a778d5ccaf7dba41f164e05a49f633c83e033534ea351ebf"),
    ("CESM-T-small", "SZ2"): (11649, "452b79255e0d30212bfe88732c613705738586c4c63ed1483ce92cec549d8f2c"),
    ("CESM-T-small", "QoZ"): (7212, "2c5ad848964065b7302dd0dfc3b13ffee39f2d908786fb9f76246585dfd82fc3"),
    ("CESM-T-small", "ZFP"): (19296, "b1a06dc2c09fb622de43d12aafbcbea6b9866eeb1f45ab40000468e87db560aa"),
    ("CESM-T-small", "SPERR"): (9913, "49ac8589ef748baa8e68bf2b38937590ec0e2f6a3a3133e1bf5efaebdbad1174"),
    ("CESM-T-small", "TTHRESH"): (20060, "4a1832c7b81806167356db35e41ba7f0b0c6f67f147f8f18fcd0a6faf040bf66"),
    ("CESM-T-small", "BitGrooming"): (36644, "c6496c8d51ca20a8e19b92e812257788ea9548892c54f78342a35502054b99c7"),
    ("CESM-T-small", "DigitRounding"): (33701, "bdad9020259b8c9374aa9a7cc67a45fd70b58d4168dd9099563746ad33913b2a"),
    ("Hurricane-T-small", "SZ2"): (7835, "a709e4768abbc3e4650921c5ae90a3aa7ef7f9309d938ac85d82ac920ed20c72"),
    ("Hurricane-T-small", "QoZ"): (2955, "f1d2a0612d590d4d1170189996f50323a4b3b02fcbe6d8220f9cce2d143760fa"),
    ("Hurricane-T-small", "ZFP"): (12445, "0afc97a2d39ade9b09399bdc45cfb5806c69c8988b62608818edce997f7f539d"),
    ("Hurricane-T-small", "SPERR"): (5632, "5311bc7f32b6bb149d322607414fde87096dceca15602072b963b3e48c4b810c"),
    ("Hurricane-T-small", "TTHRESH"): (12812, "0bd5f7a4ce61d9af3b6be10cc489cbb9901204b061e53e6c7eff3a74e13f54c2"),
    ("Hurricane-T-small", "BitGrooming"): (20120, "c4a0314eec3f2717b4eb66755f9a9487b1330519cbd067f42c4cc537e37cd821"),
    ("Hurricane-T-small", "DigitRounding"): (18742, "656386273133cf9955f71432d1550fdb0e737c4a969cf3f76d06dcf102f71c09"),
}

#: fixture stem -> (decoded shape, dtype, SHA-256 of the decoded values)
FROZEN = {
    "cliz": ((6, 8, 24), "<f4", "6ab3a64a746cb178240f7d365b66ffa823e9f4452770e305cdcb681cc327cb45"),
    "sz3": ((6, 16, 16), "<f4", "96aefde74d95bf99e9e67ee6fbeae42de831b59a72173456ef6b92149f0fa5d4"),
    "sz2": ((6, 16, 16), "<f4", "17f5a6f2fd2e32125f1fc5c0e4a9600be231d04c94ce3f31029a4a28334a429a"),
    "qoz": ((6, 16, 16), "<f4", "96aefde74d95bf99e9e67ee6fbeae42de831b59a72173456ef6b92149f0fa5d4"),
    "zfp": ((6, 16, 16), "<f4", "6e5db0c1f78ad3414d6340f1abfa7b1abe69ca5db83cc3cc8b7d01eb79d2e6dc"),
    "zfp_4d": ((2, 3, 16, 16), "<f8", "58f08f04d5ee68cd861f75980a39d891869c270ac535062263a0c3964b9b7070"),
    "sperr": ((6, 16, 16), "<f4", "8eba1ba80e384e962a9f1b89cb88aaff52571fc05768203eeb4fafe6a292228a"),
    "tthresh": ((6, 16, 16), "<f4", "1e8be95e44f90ffc3f1cee05d1f95ef6a756ff11d8d36e4e834af2a96438a93c"),
    "bitgroom": ((6, 16, 16), "<f4", "2074060dacd2b8133de32e24991510cb50317f8036b174b0a915e46791d79562"),
    "digitround": ((6, 16, 16), "<f4", "24a76c6b5eb8d74121d4f95b4f881f4344eb9ef3bb063684374a78625ad27e7f"),
}


def _pin(blob: bytes) -> tuple[int, str]:
    return len(blob), hashlib.sha256(blob).hexdigest()


def test_every_registered_codec_is_pinned():
    pinned = {codec for _, codec in GOLDEN}
    assert pinned == set(repro._CODEC_NAMES.values())
    assert {stem.split("_")[0] for stem in FROZEN} == set(repro._CODEC_NAMES)


@pytest.mark.parametrize("field,codec", sorted(GOLDEN))
def test_blob_bytes_are_pinned(field, codec):
    f = FIELDS[field]()
    assert (f.mask is not None) == field.startswith("SSH")
    blob = getattr(repro, codec)().compress(f.data, rel_eb=1e-3, mask=f.mask)
    assert _pin(blob) == GOLDEN[field, codec]
    out = decompress(blob)
    assert out.shape == f.data.shape and out.dtype == f.data.dtype


def test_zfp_4d_fold_is_pinned():
    data = hurricane_t(shape=(10, 25, 25), seed=5).data.astype(np.float64)
    blob = compressor_for("zfp").compress(data.reshape(2, 5, 25, 25), rel_eb=1e-3)
    assert _pin(blob) == (12471, "2d8d8c4ed650dcf105133ac3e6338db254e7a1ae5aeaa52ff09bb1b3559aeaa0")


def test_bitgrooming_keep_bits_is_pinned():
    data = FIELDS["Hurricane-T-small"]().data
    blob = compressor_for("bitgroom").compress(data, keep_bits=8)
    assert _pin(blob) == (9769, "c9e35d9079dc1c58481efd132a1b22856b1ab5f879b962549d8ca8a83d7d66a3")


@pytest.mark.parametrize("stem", sorted(FROZEN))
def test_frozen_stream_decodes(stem):
    blob = (FIXTURES / f"codec_{stem}.rz").read_bytes()
    out = decompress(blob)
    shape, dtype, digest = FROZEN[stem]
    assert out.shape == shape and out.dtype.str == dtype
    assert hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest() == digest
