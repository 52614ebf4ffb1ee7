"""GD decoder: reconstructs original chunks from type-2/type-3 records.

The decoder inverts :class:`~repro.core.encoder.GDEncoder`.  Its dictionary
maps identifiers back to (prefix, basis) pairs; in the pure-software codec
the decoder keeps its dictionary synchronised by learning from the type-2
records it receives (the same deterministic insertion order the encoder
used), while in the switch deployment the control plane installs the reverse
mapping explicitly before the forward mapping is enabled (Section 5 of the
paper), which the :mod:`repro.controlplane` package models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro import obs as _obs
from repro.core.backends import MIN_BATCH_CHUNKS
from repro.core.dictionary import BasisDictionary, dictionary_activity
from repro.core.records import (
    CompressedRecord,
    EncodedBatch,
    GDRecord,
    RawRecord,
    UncompressedRecord,
)
from repro.core.transform import GDTransform
from repro.exceptions import CodingError, DictionaryError

__all__ = ["DecoderStats", "GDDecoder"]


@dataclass
class DecoderStats:
    """Counters describing what the decoder has processed."""

    records: int = 0
    raw_records: int = 0
    uncompressed_records: int = 0
    compressed_records: int = 0
    output_bits: int = 0
    unknown_identifiers: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view used by the reporting helpers."""
        return {
            "records": self.records,
            "raw_records": self.raw_records,
            "uncompressed_records": self.uncompressed_records,
            "compressed_records": self.compressed_records,
            "output_bits": self.output_bits,
            "unknown_identifiers": self.unknown_identifiers,
        }


class GDDecoder:
    """Decode GD records back into the original chunks.

    Parameters
    ----------
    transform:
        Must be configured identically to the encoder's transform.
    dictionary:
        The identifier → basis mapping.  May be shared with an encoder (the
        ideal zero-latency model) or kept separate and fed by learning /
        control-plane installs.
    learn_from_uncompressed:
        When ``True`` (default), every type-2 record inserts its basis into
        the dictionary, mirroring the deterministic insertion the encoder
        performs in dynamic mode so that both sides assign the same
        identifiers without any out-of-band channel.
    """

    def __init__(
        self,
        transform: GDTransform,
        dictionary: Optional[BasisDictionary] = None,
        learn_from_uncompressed: bool = True,
    ):
        self._transform = transform
        self._dictionary = dictionary
        self._learn = learn_from_uncompressed
        self.stats = DecoderStats()

    # -- accessors ---------------------------------------------------------

    @property
    def transform(self) -> GDTransform:
        """The GD transformation in use."""
        return self._transform

    @property
    def dictionary(self) -> Optional[BasisDictionary]:
        """The identifier → basis dictionary (``None`` when decoding type 2 only)."""
        return self._dictionary

    # -- decoding ------------------------------------------------------------

    def decode(self, records: Iterable[GDRecord]) -> bytes:
        """Decode record objects and concatenate the chunk bytes.

        Turns the records into columns for :meth:`decode_columns` (an
        :class:`EncodedBatch` already is columns).  Raw (type-1) records
        pass through as-is.  A record of the wrong widths or type raises
        after the records before it have been decoded, so the dictionary
        ends in the state a record-by-record decode would leave.
        """
        transform = self._transform
        if isinstance(records, EncodedBatch):
            fmt = records.record_format
            error = self._width_error(fmt.prefix_bits, fmt.basis_bits, fmt.deviation_bits)
            if error is not None:
                raise error
            return self.decode_columns(*records.columns())
        stats = self.stats
        pieces: List[bytes] = []
        tags = bytearray()
        prefixes: List[int] = []
        keys: List[int] = []
        deviations: List[int] = []
        error: Optional[CodingError] = None
        for record in records:
            if isinstance(record, UncompressedRecord):
                error = self._width_error(
                    record.prefix_bits, record.basis_bits, record.deviation_bits
                )
                tag, key = 2, record.basis
            elif isinstance(record, CompressedRecord):
                error = self._width_error(record.prefix_bits, None, record.deviation_bits)
                tag, key = 3, record.identifier
            elif isinstance(record, RawRecord):
                if tags:
                    pieces.append(self.decode_columns(bytes(tags), prefixes, keys, deviations))
                    tags, prefixes, keys, deviations = bytearray(), [], [], []
                stats.records += 1
                stats.raw_records += 1
                stats.output_bits += record.chunk_bits
                pieces.append(transform.chunk_to_bytes(record.chunk))
                continue
            else:
                stats.records += 1
                error = CodingError(f"unsupported record type {type(record).__name__}")
            if error is not None:
                break
            tags.append(tag)
            prefixes.append(record.prefix)
            keys.append(key)
            deviations.append(record.deviation)
        if tags:
            pieces.append(self.decode_columns(bytes(tags), prefixes, keys, deviations))
        if error is not None:
            raise error
        return b"".join(pieces)

    def decode_columns(
        self,
        tags: "bytes | bytearray",
        prefixes: List[int],
        keys: List[int],
        deviations: List[int],
    ) -> bytes:
        """Decode record columns into the original bytes.

        ``tags[i]`` is the record type (2 or 3) of position ``i``;
        ``keys[i]`` carries the basis of a type-2 record and the
        identifier of a type-3 record.  The one resolve loop: strictly in
        order, since a type-3 record may reference a basis a type-2
        record introduced earlier in the same batch.  Type-2 bases are
        learned, type-3 hits refresh the dictionary's recency so both
        sides evict alike.  Then every chunk is rebuilt in one join,
        through the transform's backend when it is eligible.  Callers
        guarantee that the fields fit the transform's widths (the parser
        masks them); only dictionary-supplied bases are re-checked.
        """
        stats = self.stats
        transform = self._transform
        dictionary = self._dictionary
        learn = self._learn
        insert = dictionary.insert if learn and dictionary is not None else None
        basis_width = transform.basis_bits
        before = dictionary_activity(dictionary)
        bases: List[int] = []
        append = bases.append
        compressed = 0
        try:
            for tag, key in zip(tags, keys):
                if tag == 2:
                    if insert is not None:
                        insert(key)
                    append(key)
                    continue
                if dictionary is None:
                    raise DictionaryError(
                        "cannot decode a compressed record without a dictionary"
                    )
                basis = dictionary.reverse_lookup(key)
                if basis is None:
                    stats.unknown_identifiers += 1
                    raise DictionaryError(f"identifier {key} is not mapped to any basis")
                if learn:
                    dictionary.touch(basis)
                if not isinstance(basis, int) or basis < 0 or basis >> basis_width:
                    raise CodingError(
                        f"basis {basis!r} does not fit in {basis_width} bits"
                    )
                append(basis)
                compressed += 1
        finally:
            # Account for the records resolved before any failure.
            count = len(bases)
            stats.records += count
            stats.compressed_records += compressed
            stats.uncompressed_records += count - compressed
            stats.output_bits += count * transform.chunk_bits
        tracer = _obs.TRACER
        if tracer.enabled:
            _, inserted, evicted = (
                after - start
                for after, start in zip(dictionary_activity(dictionary), before)
            )
            tracer.instant(
                "gd.decode",
                "gd-decoder",
                args={
                    "chunks": count,
                    "hits": compressed,
                    "misses": count - compressed,
                    "pending": 0,
                    "inserted": inserted,
                    "evicted": evicted,
                    "backend": transform.backend,
                },
            )
        backend = transform.backend_impl
        if (
            backend.accelerated
            and transform.fast
            and count >= MIN_BATCH_CHUNKS
            and backend.supports_join(transform)
        ):
            return backend.join_batch_to_bytes(transform, prefixes, bases, deviations)
        return transform._join_batch_to_bytes_local(prefixes, bases, deviations)

    # -- internals ------------------------------------------------------------

    def _width_error(
        self,
        prefix_bits: int,
        basis_bits: Optional[int],
        deviation_bits: int,
    ) -> Optional[CodingError]:
        """The error for record widths that differ from the transform's."""
        transform = self._transform
        if prefix_bits != transform.prefix_bits:
            return CodingError(
                f"record prefix width {prefix_bits} does not match transform "
                f"prefix width {transform.prefix_bits}"
            )
        if basis_bits is not None and basis_bits != transform.basis_bits:
            return CodingError(
                f"record basis width {basis_bits} does not match transform "
                f"basis width {transform.basis_bits}"
            )
        if deviation_bits != transform.deviation_bits:
            return CodingError(
                f"record deviation width {deviation_bits} does not match transform "
                f"deviation width {transform.deviation_bits}"
            )
        return None

    def reset_stats(self) -> None:
        """Zero the accounting counters without touching the dictionary."""
        self.stats = DecoderStats()

    # -- snapshot / restore ----------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """Canonical, JSON-serialisable snapshot of the decoder's state.

        The counterpart of :meth:`GDEncoder.snapshot_state`: the dictionary
        (with its recency order and allocator) plus the record accounting.
        Configuration (transform, learning flag) is not captured; restore
        requires an identically configured decoder.
        """
        stats = self.stats
        state: Dict[str, object] = {
            "stats": {
                "records": stats.records,
                "raw_records": stats.raw_records,
                "uncompressed_records": stats.uncompressed_records,
                "compressed_records": stats.compressed_records,
                "output_bits": stats.output_bits,
                "unknown_identifiers": stats.unknown_identifiers,
            },
        }
        if self._dictionary is not None:
            state["dictionary"] = self._dictionary.snapshot_state()
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a snapshot taken by an identically configured decoder.

        This is the crash-recovery entry point: a decoder restarted
        mid-trace restores the identifier → basis mapping (and its recency
        order, so future evictions stay in lock-step with the encoder)
        instead of emitting ``unknown_identifier`` for every type-3 record
        until the control plane happens to reinstall each mapping.
        """
        if "dictionary" in state:
            if self._dictionary is None:
                raise DictionaryError(
                    "snapshot carries a dictionary but this decoder has none"
                )
            self._dictionary.restore_state(state["dictionary"])
        stats = state.get("stats", {})
        self.stats = DecoderStats(
            records=int(stats.get("records", 0)),
            raw_records=int(stats.get("raw_records", 0)),
            uncompressed_records=int(stats.get("uncompressed_records", 0)),
            compressed_records=int(stats.get("compressed_records", 0)),
            output_bits=int(stats.get("output_bits", 0)),
            unknown_identifiers=int(stats.get("unknown_identifiers", 0)),
        )
