"""Record types produced by the GD encoder.

The paper defines three packet types (Section 5):

* **type 1** — a regular, unprocessed packet (the raw chunk);
* **type 2** — processed but uncompressed: the chunk replaced by its
  (prefix, basis, deviation) decomposition;
* **type 3** — processed and compressed: the basis replaced by a short
  identifier.

At the library (non-switch) level these are represented by
:class:`RawRecord`, :class:`UncompressedRecord` and :class:`CompressedRecord`.
Each record knows its exact payload size in bits, both unpadded (the
information-theoretic size) and padded to byte alignment (what actually goes
on the wire once the Tofino byte-alignment constraint applies — the source of
the paper's 3 % "no table" overhead).

This module is also the one place that knows the GDZ1 record wire format:
one tag byte (2 or 3) followed by the byte-aligned payload.  The codec
keeps records columnar — ``tags`` (one byte per record), and parallel
``prefixes``, ``keys`` (the basis of a type-2 record, the identifier of a
type-3 record) and ``deviations`` lists.  :class:`EncodedBatch` holds the
encoder's columns and packs them (:meth:`EncodedBatch.pack`);
:func:`parse_records` turns container bytes back into columns for
:meth:`~repro.core.decoder.GDDecoder.decode_columns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, List, Optional, Tuple, Union

from repro.core.bits import align_up, bits_to_bytes_len, int_to_bytes
from repro.exceptions import CodingError

__all__ = [
    "RecordType",
    "RawRecord",
    "UncompressedRecord",
    "CompressedRecord",
    "GDRecord",
    "RecordFormat",
    "EncodedBatch",
    "parse_records",
]


class RecordType(IntEnum):
    """Numeric tags matching the paper's packet-type terminology."""

    RAW = 1
    UNCOMPRESSED = 2
    COMPRESSED = 3


@dataclass(frozen=True)
class RawRecord:
    """A type-1 record: the chunk travels untouched."""

    chunk: int
    chunk_bits: int

    def __post_init__(self) -> None:
        if self.chunk < 0 or self.chunk >> self.chunk_bits:
            raise CodingError(
                f"chunk {self.chunk:#x} does not fit in {self.chunk_bits} bits"
            )

    @property
    def record_type(self) -> RecordType:
        return RecordType.RAW

    @property
    def payload_bits(self) -> int:
        """Unpadded payload size in bits."""
        return self.chunk_bits

    @property
    def padded_bits(self) -> int:
        """Payload size after byte alignment."""
        return align_up(self.chunk_bits, 8)

    @property
    def payload_bytes(self) -> int:
        """Payload size in whole bytes."""
        return bits_to_bytes_len(self.chunk_bits)

    def to_bytes(self) -> bytes:
        """Serialise the payload (big-endian, byte aligned)."""
        return int_to_bytes(self.chunk, self.chunk_bits)


@dataclass(frozen=True)
class UncompressedRecord:
    """A type-2 record: (prefix, basis, deviation) with no dictionary hit."""

    prefix: int
    basis: int
    deviation: int
    prefix_bits: int
    basis_bits: int
    deviation_bits: int
    alignment_padding_bits: int = 0

    def __post_init__(self) -> None:
        if self.prefix < 0 or self.prefix >> self.prefix_bits:
            raise CodingError(
                f"prefix {self.prefix:#x} does not fit in {self.prefix_bits} bits"
            )
        if self.basis < 0 or self.basis >> self.basis_bits:
            raise CodingError(
                f"basis {self.basis:#x} does not fit in {self.basis_bits} bits"
            )
        if self.deviation < 0 or self.deviation >> self.deviation_bits:
            raise CodingError(
                f"deviation {self.deviation:#x} does not fit in "
                f"{self.deviation_bits} bits"
            )
        if self.alignment_padding_bits < 0:
            raise CodingError("alignment padding cannot be negative")

    @property
    def record_type(self) -> RecordType:
        return RecordType.UNCOMPRESSED

    @property
    def dedup_key(self) -> int:
        """The basis value that identifies the dictionary entry."""
        return self.basis

    @property
    def payload_bits(self) -> int:
        """Information-theoretic payload size (no padding)."""
        return self.prefix_bits + self.basis_bits + self.deviation_bits

    @property
    def padded_bits(self) -> int:
        """Wire payload size: fields plus explicit padding, byte aligned."""
        return align_up(self.payload_bits + self.alignment_padding_bits, 8)

    @property
    def payload_bytes(self) -> int:
        """Wire payload size in bytes."""
        return self.padded_bits // 8

    def to_bytes(self) -> bytes:
        """Serialise prefix | basis | deviation, left-padded to byte alignment."""
        value = (
            ((self.prefix << self.basis_bits) | self.basis) << self.deviation_bits
        ) | self.deviation
        return int_to_bytes(value, self.padded_bits)


@dataclass(frozen=True)
class CompressedRecord:
    """A type-3 record: the basis is replaced by a short identifier."""

    prefix: int
    identifier: int
    deviation: int
    prefix_bits: int
    identifier_bits: int
    deviation_bits: int
    alignment_padding_bits: int = 0

    def __post_init__(self) -> None:
        if self.prefix < 0 or self.prefix >> self.prefix_bits:
            raise CodingError(
                f"prefix {self.prefix:#x} does not fit in {self.prefix_bits} bits"
            )
        if self.identifier < 0 or self.identifier >> self.identifier_bits:
            raise CodingError(
                f"identifier {self.identifier} does not fit in "
                f"{self.identifier_bits} bits"
            )
        if self.deviation < 0 or self.deviation >> self.deviation_bits:
            raise CodingError(
                f"deviation {self.deviation:#x} does not fit in "
                f"{self.deviation_bits} bits"
            )
        if self.alignment_padding_bits < 0:
            raise CodingError("alignment padding cannot be negative")

    @property
    def record_type(self) -> RecordType:
        return RecordType.COMPRESSED

    @property
    def payload_bits(self) -> int:
        """Information-theoretic payload size (no padding)."""
        return self.prefix_bits + self.identifier_bits + self.deviation_bits

    @property
    def padded_bits(self) -> int:
        """Wire payload size: fields plus explicit padding, byte aligned."""
        return align_up(self.payload_bits + self.alignment_padding_bits, 8)

    @property
    def payload_bytes(self) -> int:
        """Wire payload size in bytes."""
        return self.padded_bits // 8

    def to_bytes(self) -> bytes:
        """Serialise prefix | identifier | deviation, byte aligned."""
        value = (
            ((self.prefix << self.identifier_bits) | self.identifier)
            << self.deviation_bits
        ) | self.deviation
        return int_to_bytes(value, self.padded_bits)


GDRecord = Union[RawRecord, UncompressedRecord, CompressedRecord]


#: Record columns: ``(tags, prefixes, keys, deviations)``.
Columns = Tuple[bytes, List[int], List[int], List[int]]


@dataclass(frozen=True)
class RecordFormat:
    """Field widths of the GDZ1 type-2 and type-3 records.

    ``padding_bits`` is the alignment padding added to type-2 payloads
    only (8 in the paper's deployment, 0 for the software codec).
    """

    prefix_bits: int
    basis_bits: int
    deviation_bits: int
    identifier_bits: int
    padding_bits: int = 0

    @property
    def type2_bits(self) -> int:
        """Unpadded type-2 payload: prefix | basis | deviation."""
        return self.prefix_bits + self.basis_bits + self.deviation_bits

    @property
    def type3_bits(self) -> int:
        """Unpadded type-3 payload: prefix | identifier | deviation."""
        return self.prefix_bits + self.identifier_bits + self.deviation_bits

    @property
    def type2_size(self) -> int:
        """Type-2 payload bytes on the wire (after the tag byte)."""
        return bits_to_bytes_len(self.type2_bits + self.padding_bits)

    @property
    def type3_size(self) -> int:
        """Type-3 payload bytes on the wire (after the tag byte)."""
        return bits_to_bytes_len(self.type3_bits)


class EncodedBatch:
    """Columnar records produced by :meth:`GDEncoder.encode`.

    Holds one type tag per chunk plus the ``prefixes``/``keys``/
    ``deviations`` columns, and behaves like the tuple of record objects
    it stands for: length, iteration, indexing and equality all go
    through :meth:`materialize`, which builds the exact
    :class:`CompressedRecord` / :class:`UncompressedRecord` objects on
    first use.  The hot consumers never materialise: :meth:`pack` writes
    the container body straight from the columns.
    """

    __slots__ = (
        "tags",
        "prefixes",
        "keys",
        "deviations",
        "record_format",
        "backend",
        "_records",
    )

    def __init__(
        self,
        tags: bytes,
        prefixes: List[int],
        keys: List[int],
        deviations: List[int],
        record_format: RecordFormat,
        backend,
    ):
        self.tags = tags
        self.prefixes = prefixes
        self.keys = keys
        self.deviations = deviations
        self.record_format = record_format
        self.backend = backend
        self._records: Optional[Tuple[GDRecord, ...]] = None

    def columns(self) -> Columns:
        """``(tags, prefixes, keys, deviations)``."""
        return self.tags, self.prefixes, self.keys, self.deviations

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self) -> Iterator[GDRecord]:
        return iter(self.materialize())

    def __getitem__(self, index):
        return self.materialize()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, EncodedBatch):
            other = other.materialize()
        if isinstance(other, (tuple, list)):
            return self.materialize() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.materialize())

    def __repr__(self) -> str:
        return f"EncodedBatch({len(self.tags)} records)"

    def materialize(self) -> Tuple[GDRecord, ...]:
        """The record objects, built once and cached."""
        if self._records is None:
            fmt = self.record_format
            self._records = tuple(
                CompressedRecord(
                    prefix=prefix,
                    identifier=key,
                    deviation=deviation,
                    prefix_bits=fmt.prefix_bits,
                    identifier_bits=fmt.identifier_bits,
                    deviation_bits=fmt.deviation_bits,
                )
                if tag == 3
                else UncompressedRecord(
                    prefix=prefix,
                    basis=key,
                    deviation=deviation,
                    prefix_bits=fmt.prefix_bits,
                    basis_bits=fmt.basis_bits,
                    deviation_bits=fmt.deviation_bits,
                    alignment_padding_bits=fmt.padding_bits,
                )
                for tag, prefix, key, deviation in zip(*self.columns())
            )
        return self._records

    def pack(self) -> bytes:
        """The container body: one tag byte plus the payload per record.

        The type-3 rows come from the backend in one piece
        (:meth:`~repro.core.backends.CodecBackend.pack_type3_rows`); the
        type-2 records are spliced in between them.
        """
        tags, prefixes, keys, deviations = self.columns()
        fmt = self.record_format
        block = self.backend.pack_type3_rows(fmt, tags, prefixes, keys, deviations)
        row = 1 + fmt.type3_size
        if len(block) == row * len(tags):
            return block
        size = fmt.type2_size
        basis_bits = fmt.basis_bits
        deviation_bits = fmt.deviation_bits
        parts: List[bytes] = []
        append = parts.append
        consumed = 0  # type-3 rows already copied out of ``block``
        rank = 0  # type-2 records already written
        position = tags.find(2)
        while position >= 0:
            preceding = position - rank  # type-3 rows before this record
            if preceding > consumed:
                append(block[consumed * row : preceding * row])
                consumed = preceding
            value = (
                ((prefixes[position] << basis_bits) | keys[position]) << deviation_bits
            ) | deviations[position]
            append(b"\x02" + value.to_bytes(size, "big"))
            rank += 1
            position = tags.find(2, position + 1)
        append(block[consumed * row :])
        return b"".join(parts)


def parse_records(
    buf: "bytes | bytearray",
    offset: int,
    end: int,
    fmt: RecordFormat,
    limit: Optional[int] = None,
) -> Tuple[bytes, List[int], List[int], List[int], int]:
    """Parse complete records of ``buf[offset:end]`` into columns.

    Stops at the first incomplete record, at a ``0x00`` end tag, or after
    ``limit`` records, and returns ``(tags, prefixes, keys, deviations,
    next_offset)``.  The columns grow with the bytes actually present, so
    a record count claimed by an untrusted header costs nothing.  Fields
    are masked to their widths (padding bits are ignored).  Raises
    :class:`CodingError` on a tag other than 0, 2 or 3.
    """
    deviation_bits = fmt.deviation_bits
    deviation_mask = (1 << deviation_bits) - 1
    prefix_mask = (1 << fmt.prefix_bits) - 1
    size2 = fmt.type2_size
    basis_mask = (1 << fmt.basis_bits) - 1
    basis_shift = deviation_bits + fmt.basis_bits
    size3 = fmt.type3_size
    identifier_mask = (1 << fmt.identifier_bits) - 1
    identifier_shift = deviation_bits + fmt.identifier_bits
    from_bytes = int.from_bytes
    tags = bytearray()
    prefixes: List[int] = []
    keys: List[int] = []
    deviations: List[int] = []
    add_prefix = prefixes.append
    add_key = keys.append
    add_deviation = deviations.append
    left = end - offset if limit is None else limit
    while left and offset < end:
        tag = buf[offset]
        if tag == 3:
            stop = offset + 1 + size3
            if stop > end:
                break
            value = from_bytes(buf[offset + 1 : stop], "big")
            add_key((value >> deviation_bits) & identifier_mask)
            add_prefix((value >> identifier_shift) & prefix_mask)
        elif tag == 2:
            stop = offset + 1 + size2
            if stop > end:
                break
            value = from_bytes(buf[offset + 1 : stop], "big")
            add_key((value >> deviation_bits) & basis_mask)
            add_prefix((value >> basis_shift) & prefix_mask)
        elif tag == 0:
            break
        else:
            raise CodingError(f"unknown record tag {tag} at offset {offset}")
        add_deviation(value & deviation_mask)
        tags.append(tag)
        offset = stop
        left -= 1
    return bytes(tags), prefixes, keys, deviations, offset
