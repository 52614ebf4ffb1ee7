"""The GDZ1 record wire format: one packer, one bounded parser.

Covers the parser's stopping rules, the hostile-header regression (a
record count in the header buys no allocation), the pure packing
implementation behind ``backend="pure"``, and that tracing only observes
the codec: containers, stats and dictionaries are identical with it on.
"""

import hashlib
import random
import tracemalloc

import pytest

from repro import obs, registry
from repro.core import codec as codec_module
from repro.core import engine as engine_module
from repro.core.backends import CodecBackend, available_backend_names
from repro.core.codec import CONTAINER_HEADER, GDCodec
from repro.core.engine import decompress_bytes
from repro.core.records import RecordFormat, parse_records
from repro.core.transform import GDTransform
from repro.exceptions import CodingError, ReproError


def sensor_data(chunks: int, seed: int = 5, bases: int = 6) -> bytes:
    """Chunks clustered around a few bases (one bit flipped), plus a tail."""
    rng = random.Random(seed)
    code = GDTransform(order=8).code
    pool = [rng.getrandbits(code.k) for _ in range(bases)]
    out = bytearray()
    for _ in range(chunks):
        body = code.encode(rng.choice(pool)) ^ (1 << rng.randrange(code.n))
        out += ((rng.getrandbits(1) << code.n) | body).to_bytes(32, "big")
    return bytes(out) + b"\x07\x07\x07"


FORMAT = RecordFormat(prefix_bits=1, basis_bits=247, deviation_bits=8, identifier_bits=15)


class TestParser:
    def _body(self):
        codec = GDCodec()
        records = codec.compress(sensor_data(20), pad=True).records
        return records, records.pack()

    def test_stops_at_incomplete_record(self):
        records, body = self._body()
        tags, _, _, _, end = parse_records(body, 0, len(body) - 1, FORMAT)
        assert len(tags) == len(records) - 1
        assert end == parse_records(body, 0, len(body), FORMAT, len(tags))[4]

    def test_stops_at_end_tag_and_limit(self):
        records, body = self._body()
        tags, _, _, _, end = parse_records(body + b"\x00junk", 0, len(body) + 5, FORMAT)
        assert (len(tags), end) == (len(records), len(body))
        tags, prefixes, keys, deviations, _ = parse_records(body, 0, len(body), FORMAT, 3)
        assert (tags, prefixes, keys, deviations) == tuple(
            column[:3] for column in records.columns()
        )

    def test_unknown_tag_raises(self):
        _, body = self._body()
        with pytest.raises(CodingError, match="unknown record tag 7 at offset 0"):
            parse_records(b"\x07" + body, 0, len(body) + 1, FORMAT)


class TestHostileRecordCount:
    """A 61-byte legacy container whose header claims 2**22 records."""

    def _container(self) -> bytes:
        chunk = sensor_data(1)[:32]
        blob = GDCodec().compress_to_container(chunk * 2)  # one type-2, one type-3
        assert len(blob) == 61
        fields = list(CONTAINER_HEADER.unpack_from(blob))
        fields[5] = 1 << 22
        return CONTAINER_HEADER.pack(*fields) + blob[CONTAINER_HEADER.size :]

    @pytest.mark.parametrize(
        "decode",
        [
            lambda blob: GDCodec().decompress_container(blob),
            lambda blob: decompress_bytes(registry.get("gd"), blob),
        ],
        ids=["decompress_container", "decompress_stream"],
    )
    def test_raises_without_allocating_for_the_count(self, decode):
        blob = self._container()
        tracemalloc.start()
        try:
            with pytest.raises(ReproError, match="truncated"):
                decode(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPureBackendPacking:
    def test_pure_backend_packs_through_pure_implementation(self, monkeypatch):
        calls = []
        pure = CodecBackend.pack_type3_rows

        def spy(self, *args):
            calls.append(self.name)
            return pure(self, *args)

        monkeypatch.setattr(CodecBackend, "pack_type3_rows", spy)
        data = sensor_data(300)
        blobs = {
            name: GDCodec(backend=name).compress_to_container(data)
            for name in available_backend_names()
        }
        assert calls == ["pure"]
        assert len(set(blobs.values())) == 1


def _counting(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestTracingOnlyObserves:
    @pytest.fixture(autouse=True)
    def _restore_global_tracer(self):
        before = obs.TRACER
        yield
        obs.TRACER = before

    def _run(self, traced: bool):
        collector = obs.enable().sink if traced else None
        data = sensor_data(2500)
        compressor = registry.get("gd")
        blocks = [data[offset : offset + 65536] for offset in range(0, len(data), 65536)]
        streamed = b"".join(compressor.compress_stream(blocks))
        assert decompress_bytes(compressor, streamed) == data
        codec = GDCodec(alignment_padding_bits=8)
        legacy = codec.compress_to_container(data)
        assert codec.decompress_container(legacy) == data
        result = codec.compress(data, pad=True)
        restored = codec.decompress_records(result.records, len(data))
        assert restored == data
        obs.disable()
        state = (
            hashlib.sha256(streamed).hexdigest(),
            hashlib.sha256(legacy).hexdigest(),
            codec.encoder.stats.as_dict(),
            codec.decoder.stats.as_dict(),
            codec.encoder.dictionary.snapshot(),
            codec.decoder.dictionary.snapshot(),
        )
        return state, collector.events if collector is not None else []

    def test_traced_run_matches_untraced_run(self, monkeypatch):
        counts = {}
        _counting(monkeypatch, GDTransform, "split_batch_columns", counts)
        _counting(monkeypatch, codec_module, "parse_records", counts)
        _counting(monkeypatch, engine_module, "parse_records", counts)
        plain, _ = self._run(traced=False)
        plain_counts = dict(counts)
        counts.clear()
        traced, events = self._run(traced=True)
        traced_counts = dict(counts)
        assert traced == plain
        for counts in (plain_counts, traced_counts):
            assert counts["split_batch_columns"] > 0
            assert counts["parse_records"] > 0
        assert traced_counts == plain_counts

        keys = {"chunks", "hits", "misses", "pending", "inserted", "evicted", "backend"}
        for name in ("gd.encode", "gd.decode"):
            batches = [event for event in events if event["name"] == name]
            assert batches, name
            assert all(set(event["args"]) == keys for event in batches)
        # One encode instant per batch: the streamed blocks, the legacy
        # container, then the in-process compress.
        encodes = [event["args"] for event in events if event["name"] == "gd.encode"]
        assert sum(args["chunks"] for args in encodes) == 3 * 2501
        assert all(
            args["hits"] + args["misses"] + args["pending"] == args["chunks"]
            for args in encodes
        )
