"""The one batched codec path against its oracles.

`GDCodec.compress` encodes a whole buffer at once into a columnar
`EncodedBatch`.  Its records, stats and dictionary state must equal
feeding the chunks one at a time through `GDEncoder.encode_chunk`, and its
container must equal the one the bit-serial reference transform
(``REPRO_GD_FAST=0``) produces.  On the way back, `parse_records` must
invert the packer and `decode_columns` must match decoding the record
objects.  Golden container digests live in ``test_golden_containers.py``.
"""

import dataclasses
import random

import pytest

from repro.core.codec import GDCodec
from repro.core.records import EncodedBatch, parse_records


def clustered_data(codec, bases, count, rng):
    """Data whose chunks share the given bases (codeword ± one bit)."""
    code = codec.transform.code
    chunks = []
    for index in range(count):
        codeword = code.encode(bases[index % len(bases)])
        position = rng.randrange(code.n + 1)
        body = codeword if position == code.n else codeword ^ (1 << position)
        chunks.append(body.to_bytes(codec.chunk_bytes, "big"))
    return b"".join(chunks)

CONFIGS = {
    "default": dict(),
    "order4": dict(order=4, identifier_bits=6),
    "no_table": dict(mode="no_table"),
    "padded": dict(alignment_padding_bits=8),
    "learning_delay": dict(learning_delay_chunks=3),
    "pure_backend": dict(backend="pure"),
}


def _sample(codec, count=120, seed=11):
    rng = random.Random(seed)
    bases = [rng.getrandbits(codec.transform.code.k) for _ in range(8)]
    return clustered_data(codec, bases, count, rng)


def _chunk_at_a_time(codec, data):
    """Encode ``data`` chunk by chunk through ``codec``'s encoder."""
    size = codec.chunk_bytes
    return [
        codec.encoder.encode_chunk(data[offset : offset + size])
        for offset in range(0, len(data), size)
    ]


@pytest.mark.parametrize("config", sorted(CONFIGS))
class TestCompressBatchEquivalence:
    def test_records_stats_and_container_match_chunk_at_a_time(
        self, config, monkeypatch
    ):
        batch_codec = GDCodec(**CONFIGS[config])
        unit_codec = GDCodec(**CONFIGS[config])
        data = _sample(batch_codec)

        batch_result = batch_codec.compress(data)
        assert isinstance(batch_result.records, EncodedBatch)
        assert batch_result.records == _chunk_at_a_time(unit_codec, data)
        assert batch_codec.encoder.stats.as_dict() == unit_codec.encoder.stats.as_dict()
        if batch_codec.encoder.dictionary is not None:
            assert (
                batch_codec.encoder.dictionary.snapshot()
                == unit_codec.encoder.dictionary.snapshot()
            )

        monkeypatch.setenv("REPRO_GD_FAST", "0")
        oracle = GDCodec(**CONFIGS[config])
        assert not oracle.transform.fast
        oracle_result = oracle.compress(data)
        assert dataclasses.replace(batch_result, records=()) == dataclasses.replace(
            oracle_result, records=()
        )
        assert batch_codec.to_container(batch_result) == oracle.to_container(
            oracle_result
        )

    def test_batches_compose_with_dictionary_state(self, config):
        """Back-to-back compress calls see the dictionary the previous batch
        left behind, exactly like chunk-at-a-time encoding."""
        batch_codec = GDCodec(**CONFIGS[config])
        unit_codec = GDCodec(**CONFIGS[config])
        rng = random.Random(3)
        for count in (40, 40, 40):
            data = _sample(batch_codec, count=count, seed=rng.randrange(1 << 30))
            assert batch_codec.compress(data).records == _chunk_at_a_time(
                unit_codec, data
            )

    def test_container_roundtrip(self, config, monkeypatch):
        codec = GDCodec(**CONFIGS[config])
        data = _sample(codec)
        blob = codec.to_container(codec.compress(data))
        assert codec.clone().decompress_container(blob) == data


class TestColumnarDecompress:
    def test_parser_inverts_packer(self):
        codec = GDCodec(alignment_padding_bits=8)
        data = _sample(codec, count=200)
        records = codec.compress(data).records
        body = records.pack()
        tags, prefixes, keys, deviations, end = parse_records(
            body, 0, len(body), codec.encoder.record_format
        )
        assert (tags, prefixes, keys, deviations) == records.columns()
        assert end == len(body)
        assert codec.decompress_container(codec.compress_to_container(data)) == data

    def test_decode_columns_matches_record_path_bytes_and_stats(self):
        codec = GDCodec()
        data = _sample(codec, count=150)
        records = list(codec.compress(data).records)
        assert any(record.record_type == 3 for record in records)

        record_codec = codec.clone()
        record_bytes = record_codec.decoder.decode(records)

        tags = bytearray()
        prefixes, keys, deviations = [], [], []
        for record in records:
            tags.append(int(record.record_type))
            prefixes.append(record.prefix)
            keys.append(
                record.identifier if int(record.record_type) == 3 else record.basis
            )
            deviations.append(record.deviation)
        columnar_codec = codec.clone()
        columnar_bytes = columnar_codec.decoder.decode_columns(
            bytes(tags), prefixes, keys, deviations
        )
        assert columnar_bytes == record_bytes == data
        assert (
            columnar_codec.decoder.stats.as_dict()
            == record_codec.decoder.stats.as_dict()
        )

    def test_empty_payload_roundtrips(self):
        codec = GDCodec()
        blob = codec.to_container(codec.compress(b""))
        assert codec.clone().decompress_container(blob) == b""


class TestEncodedBatchContainer:
    def test_pack_matches_per_record_serialisation(self):
        codec = GDCodec(alignment_padding_bits=8)
        data = _sample(codec, count=90)
        records = codec.compress(data).records
        assert isinstance(records, EncodedBatch)
        assert records.pack() == b"".join(
            bytes([int(record.record_type)]) + record.to_bytes() for record in records
        )

    def test_sequence_protocol(self):
        codec = GDCodec()
        data = _sample(codec, count=30)
        records = codec.compress(data).records
        assert isinstance(records, EncodedBatch)
        assert len(records) == 30
        assert records[0] == list(records)[0]
        assert records[-1] == list(records)[-1]
        assert records == tuple(records)
