"""The GD transformation function: fixed-size chunks ⇄ (prefix, basis, deviation).

The Hamming code of order ``m`` works on chunks of exactly ``n = 2**m - 1``
bits, which is never byte aligned.  ZipLine therefore processes chunks of
``n + e`` bits where the ``e`` extra most-significant bits (``e = 1`` for the
paper's 256-bit chunks with ``m = 8``) are carried through verbatim — the
paper calls this "one additional bit to store the MSB of the raw data
packet".

:class:`GDTransform` wraps a :class:`~repro.core.hamming.HammingCode` and
handles this framing: it accepts chunks as integers, byte strings or
:class:`~repro.core.bits.BitVector` values, splits them into a *prefix*
(the verbatim extra bits), a *basis* and a *deviation* (the syndrome), and
reassembles them exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.backends import (
    MIN_BATCH_CHUNKS,
    BatchSplit,
    CodecBackend,
    resolve_backend,
)
from repro.core.bits import (
    BitVector,
    bits_to_bytes_len,
    int_to_bytes,
    mask,
    padding_bits_for_alignment,
)
from repro.core.crc import lane_tables, prefix_syndrome_table
from repro.core.hamming import HammingCode
from repro.exceptions import ChunkSizeError, CodingError

__all__ = ["GDParts", "GDTransform", "ChunkLike", "GDFields", "fast_path_default"]

ChunkLike = Union[int, bytes, bytearray, memoryview, BitVector]

#: The allocation-free representation the fast path works in:
#: ``(prefix, basis, deviation)`` as plain integers.
GDFields = Tuple[int, int, int]

#: Environment switch: set ``REPRO_GD_FAST=0`` to force the reference
#: (checked, layer-by-layer) transform everywhere, e.g. while bisecting a
#: suspected fast-path bug.  Any other value (or absence) keeps the fused
#: table-driven path on.
_FAST_ENV = "REPRO_GD_FAST"

#: Largest prefix width for which the per-prefix syndrome-correction table
#: is precomputed (2**bits entries).  Wider prefixes — far beyond anything
#: the paper's framing uses — fall back to re-serialising the body.
_MAX_PREFIX_TABLE_BITS = 12


def fast_path_default() -> bool:
    """The process-wide fast-path default (``REPRO_GD_FAST``, on unless 0)."""
    return os.environ.get(_FAST_ENV, "1").strip().lower() not in ("0", "false", "no")


@dataclass(frozen=True)
class GDParts:
    """The three components produced by the GD transformation of one chunk.

    Attributes
    ----------
    prefix:
        The ``prefix_bits`` most-significant bits of the chunk, carried
        verbatim (0 when ``prefix_bits`` is 0).
    basis:
        The ``k``-bit basis (deduplication unit).
    deviation:
        The ``m``-bit syndrome identifying which bit of the chunk deviates
        from the basis' codeword (0 = none).
    prefix_bits, basis_bits, deviation_bits:
        Field widths, kept alongside the values so the parts are
        self-describing and can be reserialised without the transform.
    """

    prefix: int
    basis: int
    deviation: int
    prefix_bits: int
    basis_bits: int
    deviation_bits: int

    def __post_init__(self) -> None:
        if self.prefix < 0 or self.prefix >> self.prefix_bits:
            raise CodingError(
                f"prefix {self.prefix:#x} does not fit in {self.prefix_bits} bits"
            )
        if self.basis >> self.basis_bits:
            raise CodingError(
                f"basis {self.basis:#x} does not fit in {self.basis_bits} bits"
            )
        if self.deviation >> self.deviation_bits:
            raise CodingError(
                f"deviation {self.deviation:#x} does not fit in "
                f"{self.deviation_bits} bits"
            )

    @property
    def chunk_bits(self) -> int:
        """Total chunk width this decomposition corresponds to."""
        return self.prefix_bits + self.basis_bits + self.deviation_bits

    @property
    def dedup_key(self) -> int:
        """The value deduplicated across chunks: the basis.

        The prefix bits are carried verbatim in every packet (compressed or
        not), exactly like the paper's per-packet MSB bit, so they do not
        participate in deduplication.
        """
        return self.basis

    def basis_vector(self) -> BitVector:
        """The basis as a :class:`BitVector`."""
        return BitVector(self.basis, self.basis_bits)

    def deviation_vector(self) -> BitVector:
        """The deviation as a :class:`BitVector`."""
        return BitVector(self.deviation, self.deviation_bits)


class GDTransform:
    """Bijective mapping between chunks and (prefix, basis, deviation) parts.

    Parameters
    ----------
    order:
        Hamming order ``m``; the code has ``n = 2**m - 1`` and ``k = n - m``.
    chunk_bits:
        Total chunk width.  Must be at least ``n``; the default is the
        smallest byte-aligned width not below ``n`` (256 for ``m = 8``),
        matching the paper's configuration.
    polynomial:
        Optional generator polynomial override (full form, with leading
        term).  Defaults to the Table 1 entry for the order.
    fast:
        Selects the fused, table-driven fast path (the default).  Pass
        ``False`` to force the reference implementation — one checked layer
        per step — which the property tests compare the fast path against
        bit for bit.  ``None`` defers to the ``REPRO_GD_FAST`` environment
        variable (see :func:`fast_path_default`).
    backend:
        Codec backend for the batch entry points: a registered name
        (``"pure"``, ``"numpy"``, ``"native"``), a
        :class:`~repro.core.backends.CodecBackend` instance, or ``None``
        to follow the documented precedence (``REPRO_GD_BACKEND``, then
        the best available).  Accelerated backends only engage on the
        fast path and for configurations they support; everything else
        stays on the fused pure loop.  All backends are bit-identical.
    """

    def __init__(
        self,
        order: int = 8,
        chunk_bits: int | None = None,
        polynomial: int | None = None,
        fast: Optional[bool] = None,
        backend: "str | CodecBackend | None" = None,
    ):
        self._code = HammingCode(order, polynomial)
        n = self._code.n
        if chunk_bits is None:
            chunk_bits = n + padding_bits_for_alignment(n, 8)
        if chunk_bits < n:
            raise CodingError(
                f"chunk_bits={chunk_bits} is smaller than the code length n={n}"
            )
        self._chunk_bits = chunk_bits
        self._prefix_bits = chunk_bits - n
        self._fast = fast_path_default() if fast is None else bool(fast)
        self._backend = resolve_backend(backend)
        # Fused-path constants, bound once: the shared byte→remainder
        # closure, the syndrome→XOR-mask array, and the per-prefix syndrome
        # correction.  A whole chunk's remainder splits linearly as
        # ``syndrome(chunk) = syndrome(body) ^ syndrome(prefix << n)``, so
        # reducing the chunk's own bytes plus one table lookup recovers the
        # body syndrome without isolating (re-serialising) the body.
        self._body_mask = mask(n)
        self._remainder = self._code.byte_remainder
        self._error_masks = self._code.error_masks
        self._prefix_syndromes: Optional[Tuple[int, ...]] = None
        if self._fast and 0 < self._prefix_bits <= _MAX_PREFIX_TABLE_BITS:
            self._prefix_syndromes = prefix_syndrome_table(
                self._code.full_polynomial, n, self._prefix_bits
            )
        self._lanes: Optional[Tuple[bytes, ...]] = None  # built on first batch

    # -- accessors -----------------------------------------------------------

    @property
    def code(self) -> HammingCode:
        """The underlying Hamming code."""
        return self._code

    @property
    def order(self) -> int:
        """Hamming order ``m`` (deviation width)."""
        return self._code.m

    @property
    def chunk_bits(self) -> int:
        """Chunk width in bits (prefix + n)."""
        return self._chunk_bits

    @property
    def chunk_bytes(self) -> int:
        """Bytes needed to carry one chunk."""
        return bits_to_bytes_len(self._chunk_bits)

    @property
    def prefix_bits(self) -> int:
        """Verbatim prefix width in bits (chunk_bits - n)."""
        return self._prefix_bits

    @property
    def basis_bits(self) -> int:
        """Basis width ``k`` in bits."""
        return self._code.k

    @property
    def deviation_bits(self) -> int:
        """Deviation (syndrome) width ``m`` in bits."""
        return self._code.m

    @property
    def fast(self) -> bool:
        """True when the fused table-driven fast path is active."""
        return self._fast

    @property
    def backend(self) -> str:
        """Name of the resolved codec backend (``pure``/``numpy``/...)."""
        return self._backend.name

    @property
    def backend_impl(self) -> CodecBackend:
        """The resolved backend instance the batch entry points dispatch to."""
        return self._backend

    @property
    def uncompressed_bits(self) -> int:
        """Bits of a processed-but-uncompressed representation.

        prefix + basis + deviation — always equal to ``chunk_bits`` because
        the transformation is a bijection that adds no redundancy (the
        paper's "applying GD does not introduce additional bits").
        """
        return self._prefix_bits + self._code.k + self._code.m

    def __repr__(self) -> str:
        return (
            f"GDTransform(order={self.order}, chunk_bits={self._chunk_bits}, "
            f"n={self._code.n}, k={self._code.k})"
        )

    # -- input normalisation ----------------------------------------------------

    def _chunk_to_int(self, chunk: ChunkLike) -> int:
        if isinstance(chunk, BitVector):
            if chunk.width != self._chunk_bits:
                raise ChunkSizeError(
                    f"chunk width {chunk.width} does not match "
                    f"configured {self._chunk_bits} bits"
                )
            return chunk.value
        if isinstance(chunk, (bytes, bytearray, memoryview)):
            data = bytes(chunk)
            if len(data) != self.chunk_bytes:
                raise ChunkSizeError(
                    f"chunk of {len(data)} bytes does not match configured "
                    f"{self.chunk_bytes} bytes"
                )
            value = int.from_bytes(data, "big")
            if value >> self._chunk_bits:
                raise ChunkSizeError(
                    f"chunk value does not fit in {self._chunk_bits} bits"
                )
            return value
        if isinstance(chunk, int):
            if chunk < 0:
                raise ChunkSizeError(f"chunk must be non-negative, got {chunk}")
            if chunk >> self._chunk_bits:
                raise ChunkSizeError(
                    f"chunk {chunk:#x} does not fit in {self._chunk_bits} bits"
                )
            return chunk
        raise ChunkSizeError(f"unsupported chunk type {type(chunk).__name__}")

    # -- forward / inverse ---------------------------------------------------------

    def split(self, chunk: ChunkLike) -> GDParts:
        """Apply the GD transformation to one chunk (Figure 1, steps ➊–➎)."""
        value = self._chunk_to_int(chunk)
        prefix, basis, deviation = self._split_value(value)
        return GDParts(
            prefix=prefix,
            basis=basis,
            deviation=deviation,
            prefix_bits=self._prefix_bits,
            basis_bits=self._code.k,
            deviation_bits=self._code.m,
        )

    def split_fields(self, chunk: ChunkLike) -> GDFields:
        """Transform one chunk into plain ``(prefix, basis, deviation)`` ints.

        The allocation-free twin of :meth:`split`: no :class:`GDParts`
        object, no per-field width re-validation.  Input validation is the
        same as :meth:`split`.
        """
        return self._split_value(self._chunk_to_int(chunk))

    def _split_value(self, value: int) -> GDFields:
        """Fused (or reference) split of an already-validated chunk value."""
        n = self._code.n
        body = value & self._body_mask
        if not self._fast:
            basis, deviation = self._code.chunk_to_basis(body)
            return value >> n, basis, deviation
        deviation = self._remainder(
            body.to_bytes((n + 7) // 8, "big")
        )
        basis = (body ^ self._error_masks[deviation]) >> self._code.m
        return value >> n, basis, deviation

    def join(self, parts: GDParts) -> int:
        """Invert the GD transformation (Figure 2, steps ➌–➐)."""
        self._check_parts(parts)
        body = self._code.basis_to_chunk(parts.basis, parts.deviation)
        return (parts.prefix << self._code.n) | body

    def join_fields(self, prefix: int, basis: int, deviation: int) -> int:
        """Invert the transformation from raw field values."""
        parts = GDParts(
            prefix=prefix,
            basis=basis,
            deviation=deviation,
            prefix_bits=self._prefix_bits,
            basis_bits=self._code.k,
            deviation_bits=self._code.m,
        )
        return self.join(parts)

    def join_fields_fast(self, prefix: int, basis: int, deviation: int) -> int:
        """Fused, unchecked inverse: callers guarantee the field widths.

        The decode-direction hot path: parity bits through the shared CRC
        byte loop, one XOR-mask lookup to flip the deviated bit back.  Used
        by the batch decoder after it has validated record widths once per
        run; :meth:`join_fields` remains the checked entry point.  With
        ``fast=False`` it goes through the reference
        :meth:`~repro.core.hamming.HammingCode.basis_to_chunk` layer.
        """
        code = self._code
        if not self._fast:
            return (prefix << code.n) | code.basis_to_chunk(basis, deviation)
        codeword = (basis << code.m) | code.parity_of_basis_fast(basis)
        return (prefix << code.n) | (codeword ^ self._error_masks[deviation])

    def join_to_bytes(self, parts: GDParts) -> bytes:
        """Invert the transformation and serialise the chunk to bytes."""
        return int_to_bytes(self.join(parts), self._chunk_bits)

    def split_bytes(self, data: bytes) -> List[GDParts]:
        """Split a byte string into consecutive chunks and transform each.

        The data length must be an exact multiple of :attr:`chunk_bytes`;
        callers that need tail padding handle it at the framing layer (the
        trace generators always emit whole chunks, as in the paper).
        """
        return self.split_batch(data)

    def split_batch(self, data: "bytes | bytearray | memoryview") -> List[GDParts]:
        """Transform a contiguous buffer of whole chunks in one pass.

        Semantically equal to calling :meth:`split` on every
        :attr:`chunk_bytes`-sized slice, but running the fused field loop
        of :meth:`split_batch_fields` and wrapping each result once.
        """
        prefix_bits = self._prefix_bits
        k = self._code.k
        m = self._code.m
        return [
            GDParts(
                prefix=prefix,
                basis=basis,
                deviation=deviation,
                prefix_bits=prefix_bits,
                basis_bits=k,
                deviation_bits=m,
            )
            for prefix, basis, deviation in self.split_batch_fields(data)
        ]

    def split_batch_fields(
        self, data: "bytes | bytearray | memoryview"
    ) -> List[GDFields]:
        """The batch hot entry point: buffer of whole chunks → field triples.

        Dispatches to the configured codec backend: an accelerated backend
        (``numpy``) computes the whole buffer's syndromes, bases and
        deviations as ndarray operations; otherwise the fused pure loop of
        :meth:`_split_batch_fields_local` runs.  Batches shorter than
        :data:`~repro.core.backends.MIN_BATCH_CHUNKS`, configurations the
        backend does not support, and ``fast=False`` transforms always use
        the pure path.  Every backend is bit-identical, so callers never
        observe which one ran.
        """
        backend = self._backend
        if (
            backend.accelerated
            and self._fast
            and len(data) >= self.chunk_bytes * MIN_BATCH_CHUNKS
            and backend.supports_transform(self)
        ):
            return backend.split_batch_fields(self, data)
        return self._split_batch_fields_local(data)

    def split_batch_columns(
        self, data: "bytes | bytearray | memoryview"
    ) -> BatchSplit:
        """Whole-buffer split in the backend's columnar representation.

        Same dispatch rules as :meth:`split_batch_fields`, but the result
        stays in the producing backend's natural shape — for ``numpy``,
        parallel prefix/deviation arrays and a basis byte matrix — and the
        classic tuple list is materialised lazily via
        :meth:`BatchSplit.fields`.  This is the cheapest way to consume a
        whole trace when only column-level access is needed, and the shape
        the hot-path benchmark times per backend.
        """
        backend = self._backend
        if (
            backend.accelerated
            and self._fast
            and len(data) >= self.chunk_bytes * MIN_BATCH_CHUNKS
            and backend.supports_transform(self)
        ):
            return backend.split_batch_columns(self, data)
        return BatchSplit.from_fields(
            self._split_batch_fields_local(data), backend="pure"
        )

    def _split_batch_fields_local(
        self, data: "bytes | bytearray | memoryview"
    ) -> List[GDFields]:
        """The fused pure loop: buffer of whole chunks → list of field triples.

        One table-driven pass per chunk — ``int.from_bytes`` for the value,
        the shared CRC byte loop over the chunk's own bytes for the
        syndrome (corrected for the prefix bits by one lookup), one
        XOR-mask lookup for the codeword — with zero per-chunk object
        allocation.  ``data`` is sliced through a :class:`memoryview`, so
        callers can pass views of larger buffers without copying.

        With ``fast=False`` every chunk instead goes through the reference
        :meth:`~repro.core.hamming.HammingCode.chunk_to_basis` layer; the
        property suite asserts both paths agree bit for bit.
        """
        chunk_bytes = self.chunk_bytes
        total = len(data)
        if total % chunk_bytes:
            raise ChunkSizeError(
                f"data length {total} is not a multiple of the chunk size "
                f"{chunk_bytes}"
            )
        code = self._code
        n = code.n
        m = code.m
        chunk_bits = self._chunk_bits
        body_mask = self._body_mask
        from_bytes = int.from_bytes
        aligned = chunk_bits == chunk_bytes * 8
        view = memoryview(data)
        fields: List[GDFields] = []
        append = fields.append

        if not self._fast:
            chunk_to_basis = code.chunk_to_basis
            for offset in range(0, total, chunk_bytes):
                value = from_bytes(view[offset : offset + chunk_bytes], "big")
                if not aligned and value >> chunk_bits:
                    raise ChunkSizeError(
                        f"chunk value does not fit in {chunk_bits} bits"
                    )
                basis, deviation = chunk_to_basis(value & body_mask)
                append((value >> n, basis, deviation))
            return fields

        masks = self._error_masks
        prefix_syndromes = self._prefix_syndromes
        lane_eligible = m <= 8 and (
            self._prefix_bits == 0 or prefix_syndromes is not None
        )
        if lane_eligible and total:
            # Bulk lane pass: every chunk's raw-buffer syndrome at once, at
            # C speed — slice the buffer into its byte lanes, translate each
            # lane through its contribution table, XOR the lanes as big
            # integers.  The per-chunk Python work then collapses to one
            # ``int.from_bytes`` plus a handful of arithmetic ops.
            buf = data if isinstance(data, (bytes, bytearray)) else bytes(view)
            lanes = self._lanes
            if lanes is None:
                lanes = self._lanes = tuple(
                    lane_tables(self._code.crc_parameter, m, chunk_bytes)
                )
            accumulator = 0
            for position, lane_table in enumerate(lanes):
                accumulator ^= from_bytes(
                    buf[position::chunk_bytes].translate(lane_table), "big"
                )
            raw_syndromes = accumulator.to_bytes(total // chunk_bytes, "big")
            index = 0
            for offset in range(0, total, chunk_bytes):
                value = from_bytes(buf[offset : offset + chunk_bytes], "big")
                if not aligned and value >> chunk_bits:
                    raise ChunkSizeError(
                        f"chunk value does not fit in {chunk_bits} bits"
                    )
                prefix = value >> n
                deviation = raw_syndromes[index]
                index += 1
                if prefix:
                    # syndrome(chunk) = syndrome(body) ^ syndrome(prefix<<n)
                    deviation ^= prefix_syndromes[prefix]
                append(
                    (prefix, ((value & body_mask) ^ masks[deviation]) >> m, deviation)
                )
            return fields

        remainder = self._remainder
        body_bytes = (n + 7) // 8
        for offset in range(0, total, chunk_bytes):
            piece = view[offset : offset + chunk_bytes]
            value = from_bytes(piece, "big")
            if not aligned and value >> chunk_bits:
                raise ChunkSizeError(
                    f"chunk value does not fit in {chunk_bits} bits"
                )
            prefix = value >> n
            body = value & body_mask
            if prefix_syndromes is not None:
                deviation = remainder(piece) ^ prefix_syndromes[prefix]
            elif prefix:
                deviation = remainder(body.to_bytes(body_bytes, "big"))
            else:
                deviation = remainder(piece)
            append((prefix, (body ^ masks[deviation]) >> m, deviation))
        return fields

    def _join_batch_to_bytes_local(
        self,
        prefixes: "List[int]",
        bases: "List[int]",
        deviations: "List[int]",
    ) -> bytes:
        """Pure bulk inverse: resolved field columns → concatenated chunks.

        The decode-direction twin of :meth:`_split_batch_fields_local`:
        parity bits for the whole batch through the bulk lane reduction,
        then one combine + ``to_bytes`` per chunk.  Callers guarantee the
        field widths (the decoder validates records once per batch) and a
        byte-aligned ``chunk_bits``.
        """
        chunk_bytes = self.chunk_bytes
        code = self._code
        if not self._fast:
            join = self.join_fields_fast  # reference layer when fast=False
            return b"".join(
                join(prefixes[index], bases[index], deviations[index]).to_bytes(
                    chunk_bytes, "big"
                )
                for index in range(len(bases))
            )
        parities = code.parities_of_bases(bases, backend=self._backend)
        masks = self._error_masks
        m = code.m
        n = code.n
        pieces: List[bytes] = []
        append = pieces.append
        for index in range(len(bases)):
            codeword = (bases[index] << m) | parities[index]
            append(
                (
                    (prefixes[index] << n) | (codeword ^ masks[deviations[index]])
                ).to_bytes(chunk_bytes, "big")
            )
        return b"".join(pieces)

    def iter_split(self, chunks: Iterable[ChunkLike]) -> Iterator[GDParts]:
        """Lazily transform an iterable of chunks."""
        for chunk in chunks:
            yield self.split(chunk)

    def chunk_to_bytes(self, chunk: int) -> bytes:
        """Serialise an integer chunk into its byte representation."""
        return int_to_bytes(self._chunk_to_int(chunk), self._chunk_bits)

    # -- validation ---------------------------------------------------------------

    def _check_parts(self, parts: GDParts) -> None:
        if parts.prefix_bits != self._prefix_bits:
            raise CodingError(
                f"parts prefix width {parts.prefix_bits} does not match "
                f"transform prefix width {self._prefix_bits}"
            )
        if parts.basis_bits != self._code.k:
            raise CodingError(
                f"parts basis width {parts.basis_bits} does not match k={self._code.k}"
            )
        if parts.deviation_bits != self._code.m:
            raise CodingError(
                f"parts deviation width {parts.deviation_bits} does not match "
                f"m={self._code.m}"
            )
