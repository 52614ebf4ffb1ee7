"""Batch APIs: split_batch / encode / decode match the unit paths.

The codec runs whole buffers through one batched path per direction;
these tests pin down that it is observationally identical to feeding one
chunk (or record) at a time — same records, same stats, same dictionary
evolution, including the dynamic-learning activation delay.
"""

import random

import pytest

from repro.core.codec import GDCodec
from repro.core.decoder import GDDecoder
from repro.core.dictionary import BasisDictionary
from repro.core.encoder import EncoderMode, GDEncoder
from repro.core.records import RawRecord
from repro.core.transform import GDTransform
from repro.exceptions import ChunkSizeError


def clustered_chunks(count: int, seed: int = 3, bases: int = 6) -> list:
    rng = random.Random(seed)
    population = [rng.getrandbits(247) for _ in range(bases)]
    chunks = []
    for _ in range(count):
        body = rng.choice(population) ^ (1 << rng.randrange(255))
        chunks.append(((rng.getrandbits(1) << 255) | body).to_bytes(32, "big"))
    return chunks


class TestSplitBatch:
    def test_matches_per_chunk_split(self):
        transform = GDTransform(order=8)
        chunks = clustered_chunks(50)
        expected = [transform.split(chunk) for chunk in chunks]
        assert transform.split_batch(b"".join(chunks)) == expected

    def test_split_bytes_delegates(self):
        transform = GDTransform(order=4)
        data = bytes(range(transform.chunk_bytes * 3))
        assert transform.split_bytes(data) == transform.split_batch(data)

    def test_rejects_ragged_buffer(self):
        transform = GDTransform(order=8)
        with pytest.raises(ChunkSizeError):
            transform.split_batch(b"\x00" * 33)

    def test_non_byte_aligned_chunk_bits_range_checked(self):
        transform = GDTransform(order=8, chunk_bits=257)
        oversized = (1 << 257).to_bytes(transform.chunk_bytes, "big")
        with pytest.raises(ChunkSizeError):
            transform.split_batch(oversized)


def _fresh_encoder(mode=EncoderMode.DYNAMIC, learning_delay_chunks=0):
    transform = GDTransform(order=8)
    dictionary = None
    if mode is not EncoderMode.NO_TABLE:
        dictionary = BasisDictionary(1 << 15)
    return GDEncoder(
        transform,
        dictionary,
        mode=mode,
        alignment_padding_bits=8,
        learning_delay_chunks=learning_delay_chunks,
    )


class TestEncodeBatch:
    @pytest.mark.parametrize("delay", [0, 7])
    def test_matches_encode_chunk_sequence(self, delay):
        chunks = clustered_chunks(300)
        unit = _fresh_encoder(learning_delay_chunks=delay)
        batch = _fresh_encoder(learning_delay_chunks=delay)
        expected = [unit.encode_chunk(chunk) for chunk in chunks]
        assert batch.encode(b"".join(chunks)) == expected
        assert batch.stats.as_dict() == unit.stats.as_dict()
        assert batch.dictionary.snapshot() == unit.dictionary.snapshot()

    def test_encode_accepts_any_bytes_like(self):
        data = b"".join(clustered_chunks(120))
        unit = _fresh_encoder()
        batch = _fresh_encoder()
        expected = unit.encode(data)
        assert batch.encode(memoryview(bytearray(data))) == expected

    def test_batches_compose_with_state(self):
        """Two consecutive batches equal one batch over the concatenation."""
        chunks = clustered_chunks(200)
        split_run = _fresh_encoder(learning_delay_chunks=3)
        whole_run = _fresh_encoder(learning_delay_chunks=3)
        first = split_run.encode(b"".join(chunks[:90]))
        second = split_run.encode(b"".join(chunks[90:]))
        assert list(first) + list(second) == list(whole_run.encode(b"".join(chunks)))
        assert split_run.stats.as_dict() == whole_run.stats.as_dict()

    def test_no_table_mode(self):
        chunks = clustered_chunks(40)
        encoder = _fresh_encoder(mode=EncoderMode.NO_TABLE)
        records = encoder.encode(b"".join(chunks))
        assert len(records) == 40
        assert encoder.stats.compressed_records == 0


class TestDecodeBatch:
    def test_matches_decode_record_sequence(self):
        chunks = clustered_chunks(250)
        codec = GDCodec(order=8, identifier_bits=15)
        records = list(codec.compress(b"".join(chunks)).records)

        transform = GDTransform(order=8)
        unit = GDDecoder(transform, BasisDictionary(1 << 15))
        batch = GDDecoder(transform, BasisDictionary(1 << 15))
        expected = b"".join(unit.decode([record]) for record in records)
        assert batch.decode(records) == expected == b"".join(chunks)
        assert batch.stats.as_dict() == unit.stats.as_dict()

    def test_raw_records_pass_through(self):
        transform = GDTransform(order=8)
        decoder = GDDecoder(transform)
        records = [RawRecord(chunk=123, chunk_bits=256)]
        assert decoder.decode(records) == (123).to_bytes(32, "big")
        assert decoder.stats.raw_records == 1
        assert decoder.stats.output_bits == 256

    def test_decompress_records_roundtrip(self):
        chunks = clustered_chunks(100)
        data = b"".join(chunks)
        codec = GDCodec(order=8, identifier_bits=15)
        result = codec.compress(data)
        assert codec.decompress_records(result.records) == data


class TestEvictionSeedPlumbing:
    def test_seeded_random_eviction_reproducible_through_codec(self):
        """Same seed -> identical record streams under dictionary pressure."""
        chunks = clustered_chunks(2000, bases=64)
        data = b"".join(chunks)

        def run(seed):
            codec = GDCodec(
                order=8,
                identifier_bits=4,  # 16 slots for 64 bases: constant eviction
                eviction_policy="random",
                eviction_seed=seed,
            )
            return codec.compress(data).records

        assert run(1234) == run(1234)

    def test_seeded_codec_roundtrips_with_random_eviction(self):
        chunks = clustered_chunks(1500, bases=64)
        data = b"".join(chunks)
        codec = GDCodec(
            order=8,
            identifier_bits=4,
            eviction_policy="random",
            eviction_seed=99,
        )
        assert codec.roundtrip(data) == data

    def test_clone_preserves_seed(self):
        codec = GDCodec(eviction_policy="random", eviction_seed=5)
        assert codec.clone()._eviction_seed == 5

    def test_unseeded_random_eviction_still_lossless_in_process(self):
        """Without an explicit seed the codec samples one shared seed, so
        encoder and decoder dictionaries evict in lock-step and round trips
        stay exact even under dictionary pressure."""
        chunks = clustered_chunks(1500, bases=64)
        data = b"".join(chunks)
        codec = GDCodec(order=8, identifier_bits=4, eviction_policy="random")
        assert codec.roundtrip(data) == data
