"""GD encoder: turns a stream of fixed-size chunks into type-2/type-3 records.

The encoder combines a :class:`~repro.core.transform.GDTransform` (the
algebraic split) with a :class:`~repro.core.dictionary.BasisDictionary` (the
bounded basis ↔ identifier mapping).  Three operating modes mirror the
paper's three measured configurations:

* ``no table`` — the dictionary is never consulted or filled; every chunk
  becomes a type-2 record (the 1.03× bar in Figure 3);
* ``static table`` — the dictionary is preloaded and never modified; chunks
  whose basis is known become type-3 records;
* ``dynamic learning`` — unknown bases are inserted on first sight, after an
  optional learning delay expressed in packets (the software stand-in for
  the 1.77 ms control-plane latency; the full latency model lives in
  :mod:`repro.zipline` / :mod:`repro.controlplane`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from repro import obs as _obs
from repro.core.dictionary import (
    BasisDictionary,
    decode_snapshot_key,
    dictionary_activity,
    encode_snapshot_key,
)
from repro.core.records import EncodedBatch, GDRecord, RecordFormat
from repro.core.transform import ChunkLike, GDTransform
from repro.exceptions import CodingError, DictionaryError

__all__ = ["EncodedBatch", "EncoderMode", "EncoderStats", "GDEncoder"]


class EncoderMode(Enum):
    """Dictionary-handling mode (matches the Figure 3 scenarios)."""

    NO_TABLE = "no_table"
    STATIC = "static"
    DYNAMIC = "dynamic"

    @classmethod
    def from_name(cls, name: "str | EncoderMode") -> "EncoderMode":
        """Parse a mode from its name (case-insensitive) or pass through."""
        if isinstance(name, EncoderMode):
            return name
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(mode.value for mode in cls)
            raise CodingError(
                f"unknown encoder mode {name!r}; valid modes: {valid}"
            ) from None


@dataclass
class EncoderStats:
    """Byte and packet accounting kept by the encoder.

    ``input_bits`` counts the original chunks; ``output_bits`` counts the
    unpadded record payloads; ``output_padded_bits`` includes the
    byte-alignment padding that the Tofino target imposes.  The ratios at the
    bottom of Figure 3 are ``output_padded_bits / input_bits``.
    """

    chunks: int = 0
    uncompressed_records: int = 0
    compressed_records: int = 0
    input_bits: int = 0
    output_bits: int = 0
    output_padded_bits: int = 0

    @property
    def compression_ratio(self) -> float:
        """Padded output size over input size (Figure 3's numeric labels)."""
        if self.input_bits == 0:
            return 0.0
        return self.output_padded_bits / self.input_bits

    @property
    def unpadded_ratio(self) -> float:
        """Output size over input size ignoring alignment padding."""
        if self.input_bits == 0:
            return 0.0
        return self.output_bits / self.input_bits

    @property
    def input_bytes(self) -> float:
        """Input volume in bytes."""
        return self.input_bits / 8

    @property
    def output_bytes(self) -> float:
        """Padded output volume in bytes."""
        return self.output_padded_bits / 8

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by the reporting helpers."""
        return {
            "chunks": self.chunks,
            "uncompressed_records": self.uncompressed_records,
            "compressed_records": self.compressed_records,
            "input_bits": self.input_bits,
            "output_bits": self.output_bits,
            "output_padded_bits": self.output_padded_bits,
            "compression_ratio": self.compression_ratio,
            "unpadded_ratio": self.unpadded_ratio,
        }


class GDEncoder:
    """Encode chunks into GD records using a bounded basis dictionary.

    Parameters
    ----------
    transform:
        The GD transformation to apply to each chunk.
    dictionary:
        The basis dictionary.  Optional for :attr:`EncoderMode.NO_TABLE`.
    mode:
        One of ``no_table``, ``static`` or ``dynamic``.
    identifier_bits:
        Width of the identifier field in type-3 records.  Defaults to the
        dictionary's natural width (``ceil(log2(capacity))``), 15 bits for
        the paper's configuration.
    alignment_padding_bits:
        Extra padding added to the *uncompressed* (type-2) representation to
        model the Tofino container-alignment overhead (8 bits in the paper's
        deployment, producing the 1.03 ratio).  Type-3 records are already
        byte aligned for the paper's parameters and get no extra padding.
    learning_delay_chunks:
        In dynamic mode, the number of subsequent chunks that still see the
        dictionary miss after a new basis is first observed — a simple
        packet-counted stand-in for the control-plane installation latency.
        0 means learning is instantaneous.
    """

    def __init__(
        self,
        transform: GDTransform,
        dictionary: Optional[BasisDictionary] = None,
        mode: "str | EncoderMode" = EncoderMode.DYNAMIC,
        identifier_bits: Optional[int] = None,
        alignment_padding_bits: int = 8,
        learning_delay_chunks: int = 0,
    ):
        self._transform = transform
        self._mode = EncoderMode.from_name(mode)
        if self._mode is not EncoderMode.NO_TABLE and dictionary is None:
            raise DictionaryError(f"mode {self._mode.value} requires a dictionary")
        self._dictionary = dictionary
        if identifier_bits is None:
            identifier_bits = (
                dictionary.identifier_width() if dictionary is not None else 15
            )
        if dictionary is not None and (1 << identifier_bits) < dictionary.capacity:
            raise DictionaryError(
                f"identifier width {identifier_bits} cannot address a dictionary "
                f"of capacity {dictionary.capacity}"
            )
        self._identifier_bits = identifier_bits
        if alignment_padding_bits < 0:
            raise CodingError("alignment padding cannot be negative")
        self._alignment_padding_bits = alignment_padding_bits
        if learning_delay_chunks < 0:
            raise CodingError("learning delay cannot be negative")
        self._learning_delay_chunks = learning_delay_chunks
        # (prefix, basis) -> chunk index at which the mapping becomes usable.
        self._pending_activation: Dict[object, int] = {}
        self._format = RecordFormat(
            prefix_bits=transform.prefix_bits,
            basis_bits=transform.basis_bits,
            deviation_bits=transform.deviation_bits,
            identifier_bits=identifier_bits,
            padding_bits=alignment_padding_bits,
        )
        self.stats = EncoderStats()

    # -- accessors ---------------------------------------------------------

    @property
    def transform(self) -> GDTransform:
        """The GD transformation in use."""
        return self._transform

    @property
    def dictionary(self) -> Optional[BasisDictionary]:
        """The basis dictionary (``None`` in no-table mode)."""
        return self._dictionary

    @property
    def mode(self) -> EncoderMode:
        """Configured dictionary-handling mode."""
        return self._mode

    @property
    def identifier_bits(self) -> int:
        """Width of the identifier field in compressed records."""
        return self._identifier_bits

    @property
    def alignment_padding_bits(self) -> int:
        """Padding added to type-2 payloads for container alignment."""
        return self._alignment_padding_bits

    @property
    def record_format(self) -> RecordFormat:
        """Field widths of the records this encoder emits."""
        return self._format

    # -- encoding ---------------------------------------------------------------

    def encode_chunk(self, chunk: ChunkLike) -> GDRecord:
        """Encode one chunk into a type-2 or type-3 record."""
        return self.encode(self._transform.chunk_to_bytes(chunk))[0]

    def encode(self, data: "bytes | bytearray | memoryview") -> EncodedBatch:
        """Encode a buffer of whole chunks into a columnar batch.

        The one dictionary loop: the transform's backend splits the whole
        buffer into columns, then every basis is looked up (and, in
        dynamic mode, learned) in order.  A hit whose mapping is still
        inside its learning delay is emitted as type 2.  :attr:`stats`
        is updated once per batch, and a tracer sees one ``gd.encode``
        instant per batch.
        """
        transform = self._transform
        prefixes, bases, deviations = transform.split_batch_columns(data).columns()
        stats = self.stats
        dictionary = self._dictionary
        no_table = self._mode is EncoderMode.NO_TABLE or dictionary is None
        dynamic = self._mode is EncoderMode.DYNAMIC
        lookup = None if no_table else dictionary.lookup
        insert = None if no_table else dictionary.insert
        learning_delay = self._learning_delay_chunks
        pending = self._pending_activation
        is_active = self._is_active
        before = dictionary_activity(dictionary)

        count = len(bases)
        tags = bytearray(b"\x02") * count
        keys: List[int] = []
        append_key = keys.append
        first = stats.chunks  # stream index of this batch's first chunk
        compressed = 0
        for position, basis in enumerate(bases):
            identifier = None if no_table else lookup(basis)
            if identifier is not None and (
                not pending or is_active(basis, first + position)
            ):
                tags[position] = 3
                append_key(identifier)
                compressed += 1
            else:
                if identifier is None and dynamic:
                    insert(basis)
                    if learning_delay:
                        # The mapping becomes usable after the current
                        # chunk plus the configured number of delayed chunks.
                        pending[basis] = first + position + 1 + learning_delay
                append_key(basis)
        uncompressed = count - compressed
        fmt = self._format
        stats.chunks = first + count
        stats.input_bits += count * transform.chunk_bits
        stats.output_bits += compressed * fmt.type3_bits + uncompressed * fmt.type2_bits
        stats.output_padded_bits += 8 * (
            compressed * fmt.type3_size + uncompressed * fmt.type2_size
        )
        stats.compressed_records += compressed
        stats.uncompressed_records += uncompressed
        tracer = _obs.TRACER
        if tracer.enabled:
            # ``found``: lookups that found a mapping, active or pending.
            found, inserted, evicted = (
                after - start
                for after, start in zip(dictionary_activity(dictionary), before)
            )
            tracer.instant(
                "gd.encode",
                "gd-encoder",
                args={
                    "chunks": count,
                    "hits": compressed,
                    "misses": count - found,
                    "pending": found - compressed,
                    "inserted": inserted,
                    "evicted": evicted,
                    "backend": transform.backend,
                },
            )
        return EncodedBatch(
            bytes(tags), prefixes, keys, deviations, fmt, transform.backend_impl
        )

    def _is_active(self, key: object, chunk_index: int) -> bool:
        """True when a learned mapping has passed its activation delay."""
        activation = self._pending_activation.get(key)
        if activation is None:
            return True
        if chunk_index >= activation:
            del self._pending_activation[key]
            return True
        return False

    def reset_stats(self) -> None:
        """Zero the accounting counters without touching the dictionary."""
        self.stats = EncoderStats()

    # -- snapshot / restore ----------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """Canonical, JSON-serialisable snapshot of the encoder's state.

        Captures everything a resumed encoder needs to continue exactly
        where this one stopped: the dictionary (mapping, recency order,
        identifier allocator), the pending-activation ledger of mappings
        still inside their learning delay, and the byte/packet accounting.
        The configuration itself (transform, mode, widths) is *not* part of
        the snapshot — restore requires an identically configured encoder.
        """
        stats = self.stats
        state: Dict[str, object] = {
            "mode": self._mode.value,
            "pending_activation": [
                [encode_snapshot_key(key), activation]
                for key, activation in self._pending_activation.items()
            ],
            "stats": {
                "chunks": stats.chunks,
                "uncompressed_records": stats.uncompressed_records,
                "compressed_records": stats.compressed_records,
                "input_bits": stats.input_bits,
                "output_bits": stats.output_bits,
                "output_padded_bits": stats.output_padded_bits,
            },
        }
        if self._dictionary is not None:
            state["dictionary"] = self._dictionary.snapshot_state()
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a snapshot taken by an identically configured encoder."""
        if state.get("mode") != self._mode.value:
            raise CodingError(
                f"snapshot mode {state.get('mode')!r} does not match encoder "
                f"mode {self._mode.value!r}"
            )
        if "dictionary" in state:
            if self._dictionary is None:
                raise DictionaryError(
                    "snapshot carries a dictionary but this encoder has none"
                )
            self._dictionary.restore_state(state["dictionary"])
        self._pending_activation = {
            decode_snapshot_key(key): int(activation)
            for key, activation in state.get("pending_activation", [])
        }
        stats = state.get("stats", {})
        self.stats = EncoderStats(
            chunks=int(stats.get("chunks", 0)),
            uncompressed_records=int(stats.get("uncompressed_records", 0)),
            compressed_records=int(stats.get("compressed_records", 0)),
            input_bits=int(stats.get("input_bits", 0)),
            output_bits=int(stats.get("output_bits", 0)),
            output_padded_bits=int(stats.get("output_padded_bits", 0)),
        )
