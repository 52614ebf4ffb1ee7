"""Golden GDZ1 bytes: the container formats are pinned by sha256.

Every configuration below is compressed on every available codec backend,
both as a streamed container (``registry.get("gd")`` fed 64 KiB blocks)
and as a legacy whole-buffer container (``GDCodec.compress_to_container``).
The digests were recorded before the codec was collapsed onto one batched
path per direction; any change to record packing, dictionary decisions or
tail handling shows up here as a digest mismatch.
"""

import hashlib
import random

import pytest

from repro import registry
from repro.core.backends import available_backend_names
from repro.core.codec import GDCodec
from repro.core.hamming import HammingCode

BLOCK = 64 * 1024


def golden_data(order: int, seed: int = 20200):
    """``(data, pool)``: ~96 KiB of sensor-like chunks plus noise and a
    ragged 5-byte tail, and the basis pool the chunks were drawn from.

    Chunks are codewords of a 40-basis pool with at most one flipped bit,
    every tenth chunk is random (fresh bases: dictionary pressure for the
    small-identifier configuration), and the length is not a multiple of
    the chunk size (exercises tail padding and the length trailer).
    """
    rng = random.Random(seed)
    code = HammingCode(order)
    chunk_bits = code.n + (-code.n % 8)
    chunk_bytes = chunk_bits // 8
    pool = [rng.getrandbits(code.k) for _ in range(40)]
    chunks = []
    for index in range((96 * 1024) // chunk_bytes):
        if index % 10 == 9:
            value = rng.getrandbits(chunk_bits)
        else:
            body = code.encode(rng.choice(pool))
            flip = rng.randrange(code.n + 1)
            if flip < code.n:
                body ^= 1 << flip
            value = (rng.getrandbits(chunk_bits - code.n) << code.n) | body
        chunks.append(value.to_bytes(chunk_bytes, "big"))
    return b"".join(chunks) + bytes(rng.getrandbits(8) for _ in range(5)), pool


def static_pool() -> list:
    return golden_data(8)[1]


CONFIGS = {
    "default": dict(),
    "order4": dict(order=4, identifier_bits=6),
    "no_table": dict(mode="no_table"),
    "padded": dict(alignment_padding_bits=8),
    "learning_delay": dict(learning_delay_chunks=3),
    "static": dict(mode="static", static_bases="pool"),
}

STREAMED = {
    "default": "a7ea2c51968af74a55dd8d1380721bb92a63270b76fca7a47ea94909e393c5dd",
    "learning_delay": "6d6531c1a4ed27bf25ea3fb7eecb0ae20e73a622edd7e7337b716021e83d079e",
    "no_table": "9ca93fe01ae6b1692357a4ececbef101e1d30cf5c03447a85656be33f83059a4",
    "order4": "b237abac5ee61c690e5a57332f607b84dfc544c039cad9e15eca1b88ecc6a75c",
    "static": "23dad6fa5f89b80b20f352cae72a4a37bb20e5df38cc0257f9b21171afbb0846",
}

# The streamed writer has no type-2 alignment padding, so "padded" is
# pinned for the legacy layout only.
LEGACY = {
    "default": "ad9f7171c62e21563f49bde1d4f76e30bc3c231132e60cf290b1d1676e048438",
    "learning_delay": "293df017f9a0048962c164272c2474f65fa591dbb21e1a72cbf35861bba2921f",
    "no_table": "da648012283ef81e16aae2f9edb80ebc6c2f79e942a6669bc4cf369b71057133",
    "order4": "9f4f827de491efcad0d3e816de5994eab026f046bafe929a5b9d0e1e9f16d4dc",
    "padded": "e3a08b8e2a8e996b67a972b466fe371a22284264b8a30456aaa0bdba2082d88f",
    "static": "8e2bcb13c50d14c107849b89ab6c0174c357c244e10e866c3bfb37877ace91c4",
}


def _config(name: str, backend: str) -> dict:
    config = dict(CONFIGS[name], backend=backend)
    if config.get("static_bases") == "pool":
        config["static_bases"] = static_pool()
    return config


def _data(name: str) -> bytes:
    return golden_data(CONFIGS[name].get("order", 8))[0]


@pytest.mark.parametrize("backend", available_backend_names())
@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_container_golden(name, backend):
    compressor = registry.get("gd", **_config(name, backend))
    data = _data(name)
    blocks = [data[offset : offset + BLOCK] for offset in range(0, len(data), BLOCK)]
    blob = b"".join(compressor.compress_stream(blocks))
    assert hashlib.sha256(blob).hexdigest() == STREAMED[name]
    assert b"".join(compressor.decompress_stream([blob])) == data


@pytest.mark.parametrize("backend", available_backend_names())
@pytest.mark.parametrize("name", sorted(LEGACY))
def test_legacy_container_golden(name, backend):
    codec = GDCodec(**_config(name, backend))
    data = _data(name)
    blob = codec.compress_to_container(data)
    assert hashlib.sha256(blob).hexdigest() == LEGACY[name]
    assert codec.clone().decompress_container(blob) == data
