"""The benchmark's workloads: seeded inputs, one timed repetition, output checks.

Every workload is built from ``--seed`` alone, so the same seed gives the
same bytes on every commit.  Nothing here imports :mod:`repro` at module
level: the set-up probe times that import itself.

A *repetition* is the unit of timed work:

* stream workloads — one closed-loop round trip of ``STREAM_BYTES`` (1 or
  2 MiB) through ``registry.get("gd")``: ``compress_stream`` fed in 64 KiB
  blocks (the block size of ``repro compress``), then
  ``decompress_stream`` fed the container in 64 KiB blocks;
* topology workload — one ``TopologyEngine(spec).run()`` over four senders
  of 512 chunks each, i.e. exactly 64 KiB of payload; successive
  repetitions cycle through ``TOPOLOGY_VARIANTS`` seeded specs.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Dict, List, Optional

#: GD chunk size at the paper's order 8 (every workload here uses it).
CHUNK = 32
#: Input block size: ``repro compress``'s default read size.
BLOCK = 64 * 1024
#: Bytes per stream repetition.  Incompressible: 65536 chunks of 32 bytes,
#: more than the 2**15-entry dictionary holds, so it also evicts.  Sensor:
#: its bases are all learned in the first block, and half the bytes give
#: twice the repetitions, so each block's fastest time is a steadier figure.
STREAM_BYTES = {
    "gd-stream-sensor": 1024 * 1024,
    "gd-stream-incompressible": 2 * 1024 * 1024,
}
#: Sensor data: a few tens of operating points plus 4% random readings,
#: which gives the paper's ~96% dictionary hit rate.
SENSOR_BASES = 32
SENSOR_NOISE = 0.04
#: Fan-in preset arguments.  512 chunks per sender make one run exactly
#: 64 KiB of payload; at 5e4 packets/s per flow the control plane learns
#: within the run, so both type-2 and type-3 frames cross the wire (at the
#: preset's 1e6 packets/s a run this short ends before the first install).
TOPOLOGY = dict(senders=4, scenario="dynamic", chunks=512, packet_rate=5e4)
#: Topology repetitions cycle through this many specs derived from the
#: seed: how much a 64 KiB run compresses depends on when each flow's bases
#: are learned, so one spec alone would make compression_ratio a property
#: of the seed rather than of the program.
TOPOLOGY_VARIANTS = 32
#: Simulator events per timed slice of a topology run (a few ms of work).
SLICE_EVENTS = 256
#: Seed whose input fingerprints are pinned in ``reference.json``.
REFERENCE_SEED = 0

STREAM_WORKLOADS = ("gd-stream-sensor", "gd-stream-incompressible")
TOPOLOGY_WORKLOADS = ("topology-fanin-dynamic",)
WORKLOADS = STREAM_WORKLOADS + TOPOLOGY_WORKLOADS


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- inputs --------------------------------------------------------------------


def stream_input(workload: str, seed: int) -> bytes:
    """The bytes a stream workload compresses."""
    size = STREAM_BYTES[workload]
    if workload == "gd-stream-incompressible":
        return random.Random(seed).randbytes(size)
    from repro.workloads import SyntheticSensorWorkload

    chunks = SyntheticSensorWorkload(
        num_chunks=size // CHUNK,
        distinct_bases=SENSOR_BASES,
        noise_fraction=SENSOR_NOISE,
        seed=seed,
    ).iter_chunks()
    data = b"".join(chunks)
    if len(data) != size:
        raise RuntimeError(f"sensor workload produced {len(data)} bytes")
    return data


def topology_specs(seed: int) -> list:
    """The specs one topology run cycles through."""
    from repro.topology import fan_in_topology

    return [
        fan_in_topology(name="perfbench-fan-in", seed=seed * TOPOLOGY_VARIANTS + variant, **TOPOLOGY)
        for variant in range(TOPOLOGY_VARIANTS)
    ]


def topology_input_digest(specs) -> str:
    """sha256 of each spec's JSON plus every flow's chunk stream.

    The chunks are regenerated through the public workload API with the
    spec's per-flow seeds, so an edit to ``repro.workloads`` shows here even
    though the spec JSON is unchanged.
    """
    import json

    from repro.workloads import SyntheticSensorWorkload

    digest = hashlib.sha256()
    for spec in specs:
        digest.update(json.dumps(spec.as_dict(), sort_keys=True, default=str).encode())
        for flow in spec.flows:
            workload = SyntheticSensorWorkload(
                num_chunks=flow.chunks,
                distinct_bases=flow.bases,
                order=spec.order,
                seed=spec.flow_seed(flow),
            )
            for chunk in workload.iter_chunks():
                digest.update(chunk)
    return digest.hexdigest()


def input_digest(workload: str, seed: int) -> str:
    if workload in STREAM_WORKLOADS:
        return sha256(stream_input(workload, seed))
    return topology_input_digest(topology_specs(seed))


# -- set-up --------------------------------------------------------------------


def build_system(workload: str, spec=None):
    """Reach ready: the compressor with its tables built, or the engine."""
    if workload in TOPOLOGY_WORKLOADS:
        from repro.topology import TopologyEngine

        return TopologyEngine(spec)
    from repro import registry

    compressor = registry.get("gd")
    # The first block builds the codec's lazy tables in both directions.
    warm = bytes(BLOCK)
    container = b"".join(compressor.compress_stream([warm]))
    if b"".join(compressor.decompress_stream([container])) != warm:
        raise RuntimeError("warm-up round trip failed")
    return compressor


# -- one repetition --------------------------------------------------------------


def _blocks(data: bytes) -> List[bytes]:
    return [data[offset : offset + BLOCK] for offset in range(0, len(data), BLOCK)]


def stream_repetition(compressor, data: bytes, tracer=None) -> Dict[str, object]:
    """One timed round trip; block latencies only when untraced.

    ``failed`` counts the 64 KiB input blocks whose bytes did not come
    back, or all of them if a direction raised.
    """
    clock = time.perf_counter
    blocks = _blocks(data)
    latencies: List[float] = []
    handed: List[Optional[float]] = [None]
    compress_marks: List[float] = []
    decompress_marks: List[float] = []

    def feed(source, marks):
        for block in source:
            handed[0] = clock()
            marks.append(handed[0])
            yield block

    pieces: List[bytes] = []
    result: Dict[str, object] = {"attempted": len(blocks)}
    try:
        if tracer is not None:
            tracer.active = True
        start = clock()
        for piece in compressor.compress_stream(blocks if tracer else feed(blocks, compress_marks)):
            if handed[0] is not None:
                latencies.append(clock() - handed[0])
                handed[0] = None
            pieces.append(piece)
        middle = clock()
        container = b"".join(pieces)
        packed = _blocks(container)
        restored = b"".join(
            compressor.decompress_stream(packed if tracer else feed(packed, decompress_marks))
        )
        end = clock()
    except Exception as error:  # a failed round trip is counted, not fatal
        result.update(failed=len(blocks), error=repr(error))
        return result
    finally:
        if tracer is not None:
            tracer.active = False
    failed = sum(
        1
        for offset in range(0, len(data), BLOCK)
        if restored[offset : offset + BLOCK] != data[offset : offset + BLOCK]
    )
    if len(restored) != len(data):
        failed = max(failed, 1)
    result.update(
        failed=failed,
        wall_s=end - start,
        input_bytes=len(data),
        output_bytes=len(container),
        chunks=len(data) // CHUNK,
        block_latencies_s=latencies,
        # Piece i: from the hand-off of block i to that of block i + 1.
        compress_intervals_s=_intervals(start, compress_marks[1:], middle),
        decompress_intervals_s=_intervals(middle, decompress_marks[1:], end),
        output_sha256=sha256(container),
    )
    return result


def _intervals(start: float, marks: List[float], end: float) -> List[float]:
    """Split ``end - start`` at ``marks``; the pieces sum to the whole."""
    bounds = [start] + marks + [end]
    return [later - earlier for earlier, later in zip(bounds, bounds[1:])]


def topology_repetition(spec, tracer=None) -> Dict[str, object]:
    """One engine build (untimed) and one timed ``run()``.

    When untraced, a simulator observer (the telemetry hook the periodic
    snapshotter uses) marks the clock every ``SLICE_EVENTS`` events, so
    the run's wall time comes split into slices, slice ``i`` being the
    same stage of every run (see ``child.best_by_position``).

    ``failed`` counts chunks never sent, missing, corrupted or out of
    order; every flow must also be ``lossless_in_order``.
    """
    from repro.topology import TopologyEngine

    engine = TopologyEngine(spec)
    clock = time.perf_counter
    total = sum(flow.chunks for flow in spec.flows)
    result: Dict[str, object] = {"attempted": total}
    marks: List[float] = []
    seen = [0]

    def mark(_event) -> None:
        seen[0] += 1
        if seen[0] == SLICE_EVENTS:
            seen[0] = 0
            marks.append(clock())

    if tracer is None:
        engine.simulator.add_observer(mark)
    try:
        if tracer is not None:
            tracer.active = True
        start = clock()
        report = engine.run()
        end = clock()
    except Exception as error:  # a failed run is counted, not fatal
        result.update(failed=total, error=repr(error))
        return result
    finally:
        if tracer is not None:
            tracer.active = False
        engine.simulator.remove_observer(mark)
    failed = total - report.chunks_sent
    for flow in report.flows:
        integrity = flow.integrity
        if integrity is None:
            failed += flow.chunks_sent
            continue
        bad = integrity.missing + integrity.corrupted + integrity.out_of_order
        if not integrity.lossless_in_order:
            bad = max(bad, 1)
        failed += bad
    counters = report.metrics.as_dict()["counters"]
    links = engine.graph.links
    result.update(
        failed=failed,
        wall_s=end - start,
        slices_s=_intervals(start, marks, end),
        input_bytes=report.payload_bytes_sent,
        delivered_bytes=sum(flow.delivered for flow in report.flows) * CHUNK,
        delivered_chunks=sum(flow.delivered for flow in report.flows),
        compression_ratio=report.compression_ratio,
        output_sha256=sha256(report.json_text().encode()),
        digests_received=counters.get("controlplane.digests_received", 0),
        mappings_learned=counters.get("controlplane.mappings_learned", 0),
        max_queue_depth=max((link.stats.max_queue_depth for link in links), default=0),
        dropped=sum(link.stats.dropped for link in links),
    )
    return result
