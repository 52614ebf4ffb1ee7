"""One benchmark process: ``setup``, ``measure`` (untraced) or ``traced``.

Run by ``run.py`` as ``python3 perfbench/child.py ROLE WORKLOAD SEED SECONDS``
from the repository root.  Each role runs in a fresh interpreter and prints
one JSON object as its last line of standard output.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads as wl  # noqa: E402

#: Fewest repetitions a measuring role makes, however short ``--seconds``.
MIN_REPETITIONS = 3


def check_source_tree() -> None:
    """Refuse to measure a ``repro`` imported from anywhere but ``src/``."""
    import repro

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")


def percentile(values, fraction: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(fraction * 1000) - 1]


def environment() -> dict:
    from repro import registry

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": registry.default_backend().name,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def role_setup(workload: str, seed: int) -> dict:
    """Fresh process to ready: ``import repro`` plus building the system."""
    start = time.perf_counter()
    import repro  # noqa: F401

    if workload in wl.TOPOLOGY_WORKLOADS:
        import repro.topology  # noqa: F401

        imported = time.perf_counter() - start
        spec = wl.topology_specs(seed)[0]  # the input: not set-up
        start = time.perf_counter()
        wl.build_system(workload, spec)
        return {"setup_s": imported + time.perf_counter() - start}
    wl.build_system(workload)
    return {"setup_s": time.perf_counter() - start}


def repetitions(workload: str, seed: int, seconds: float, tracer=None):
    """Run repetitions until ``seconds`` have passed, and at least
    :data:`MIN_REPETITIONS` and one full cycle of topology specs."""
    if workload in wl.TOPOLOGY_WORKLOADS:
        specs = wl.topology_specs(seed)
        input_sha = wl.topology_input_digest(specs)
        least = max(MIN_REPETITIONS, len(specs))

        def once(index):
            variant = index % len(specs)
            return dict(wl.topology_repetition(specs[variant], tracer), variant=variant)

    else:
        data = wl.stream_input(workload, seed)
        input_sha = wl.sha256(data)
        compressor = wl.build_system(workload)
        least = MIN_REPETITIONS

        def once(index):
            return dict(wl.stream_repetition(compressor, data, tracer), variant=0)

    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < least or time.perf_counter() < deadline:
        gc.collect()  # untimed: each repetition starts with the same heap
        reps.append(once(len(reps)))
    return reps, input_sha


def best_by_position(rows):
    """Fastest time at each position across repetitions.

    ``rows`` holds one list of times per repetition, position ``i`` being
    the same stage of the work in each: the same stream block, or the
    same 256-event slice of a topology run.  Topology rows differ in
    length by a slice or two (specs differ only in their data, not in
    senders, rates or chunk counts); a position counts the rows that
    reach it.  The host's speed switches between levels for seconds at a
    time when another tenant shares the core, so a median over
    repetitions follows that tenant's duty cycle; the fastest time at
    each position is the program's own cost and repeats to a few percent.
    """
    width = max(len(row) for row in rows)
    return [min(row[i] for row in rows if i < len(row)) for i in range(width)]


def outcome(reps) -> dict:
    """Attempted/failed counts.  A repetition whose output bytes differ from
    those of the first repetition of the same input counts as failed."""
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    first = {}
    for rep in reps:
        sha = first.setdefault(rep["variant"], rep.get("output_sha256"))
        if rep.get("output_sha256") != sha and not rep["failed"]:
            failed += rep["attempted"]
    errors = sorted({rep["error"] for rep in reps if "error" in rep})
    shas = [first[variant] or "" for variant in sorted(first)]
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "repetitions": len(reps),
        "output_sha256": shas[0] if len(shas) == 1 else wl.sha256("".join(shas).encode()),
    }


def compression_ratio(reps) -> float:
    """Wire bytes over payload bytes across one run of each topology spec."""
    once = {rep["variant"]: rep for rep in reps}
    return sum(rep["compression_ratio"] * rep["input_bytes"] for rep in once.values()) / sum(
        rep["input_bytes"] for rep in once.values()
    )


def role_measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics, fingerprints, environment."""
    check_source_tree()
    leaked_before = layers.leaked_wrappers()
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference["input_sha256"][workload]
    actual = wl.input_digest(workload, reference["seed"])
    reps, input_sha = repetitions(workload, seed, seconds)
    leaked = sorted(set(leaked_before + layers.leaked_wrappers()))
    good = [rep for rep in reps if "wall_s" in rep]
    result = outcome(reps)
    result.update(
        input_sha256=input_sha,
        reference_ok=actual == expected,
        reference_sha256=actual,
        leaked_wrappers=leaked,
        environment=environment(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        wall_s=[rep["wall_s"] for rep in good],
    )
    if not good:
        return result
    if workload in wl.TOPOLOGY_WORKLOADS:
        # A run's full slices, then its tail (the last events and report()).
        blocks = best_by_position([rep["slices_s"][:-1] for rep in good])
        tail = min(rep["slices_s"][-1] for rep in good)
        wall = sum(blocks) + tail
        result.update(
            compress_mbps=max(rep["input_bytes"] for rep in good) / wall / 1e6,
            decompress_mbps=max(rep["delivered_bytes"] for rep in good) / wall / 1e6,
            chunks_per_s=max(rep["delivered_chunks"] for rep in good) / wall,
            compression_ratio=compression_ratio(good),
        )
    else:
        blocks = best_by_position([rep["block_latencies_s"] for rep in good])
        compress_s = sum(best_by_position([rep["compress_intervals_s"] for rep in good]))
        decompress_s = sum(best_by_position([rep["decompress_intervals_s"] for rep in good]))
        first = good[0]
        result.update(
            compress_mbps=first["input_bytes"] / compress_s / 1e6,
            decompress_mbps=first["input_bytes"] / decompress_s / 1e6,
            chunks_per_s=first["chunks"] / (compress_s + decompress_s),
            compression_ratio=first["output_bytes"] / first["input_bytes"],
        )
    result.update(
        compress_block_ms_p50=percentile(blocks, 0.50) * 1e3,
        compress_block_ms_p90=percentile(blocks, 0.90) * 1e3,
        block_samples=len(blocks),
    )
    return result


def role_traced(workload: str, seed: int, seconds: float) -> dict:
    """The traced run: every layer wrapped, counts per repetition."""
    check_source_tree()
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        reps, _ = repetitions(workload, seed, seconds, tracer)
    finally:
        tracer.uninstall()
    result = outcome(reps)
    good = [rep for rep in reps if "wall_s" in rep]
    count = max(1, len(good))
    traced_wall = sum(rep["wall_s"] for rep in good)
    counts = tracer.counts
    result.update(
        leaked_after_uninstall=layers.leaked_wrappers(),
        missing_targets=tracer.missing,
        wall_s=[rep["wall_s"] for rep in good],
        traced_wall_s=traced_wall,
        calls={layer: tracer.calls[layer] / count for layer in layers.LAYERS},
        busy_s={layer: tracer.busy[layer] / count for layer in layers.LAYERS},
        counts={name: value / count for name, value in counts.items()},
        frame_us_p50=percentile(tracer.frame_times, 0.50) * 1e6,
        frame_us_p99=percentile(tracer.frame_times, 0.99) * 1e6,
        frame_samples=len(tracer.frame_times),
    )
    for key in ("digests_received", "mappings_learned", "max_queue_depth", "dropped"):
        result[key] = (
            statistics.median(rep[key] for rep in good) if good and key in good[0] else 0
        )
    return result


def main(argv) -> int:
    role, workload, seed = argv[0], argv[1], int(argv[2])
    if role == "setup":
        result = role_setup(workload, seed)
    elif role == "measure":
        result = role_measure(workload, seed, float(argv[3]))
    elif role == "traced":
        result = role_traced(workload, seed, float(argv[3]))
    else:
        raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
