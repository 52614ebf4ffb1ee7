"""The repository benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload gd-stream-sensor --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: set-up
is timed in fresh processes, then one untraced process measures the
workload for ``--seconds``.  ``--trace 1`` prints the per-layer metrics:
an untraced process and a traced process (every layer wrapped, see
``layers.py``) each run the workload for half of ``--seconds``, and the
ratio of their repetition times is the tracing overhead.

Each measuring process checks the program's outputs (round trips byte
equal, topology flows lossless and in order) and that its input
fingerprint at the reference seed still matches ``reference.json``.  The
last line of standard output is the JSON result; the line before it is a
record with the environment, fingerprints and sample counts, also written
to ``perfbench/results/``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402

#: Fresh processes timed for ``setup_s`` (after one untimed warm-up that
#: leaves the byte-code cache as a user's second run would find it).
SETUP_PROBES = 7
#: Seconds a child may run past its measuring time before it is stopped.
CHILD_GRACE = 60
#: A fixed hash seed: str/bytes-keyed dict layouts would otherwise differ
#: from one process to the next and add to the run-to-run spread.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")


class ChildFailed(Exception):
    pass


def child(role: str, workload: str, seed: int, seconds: float = 0.0) -> dict:
    command = [sys.executable, str(HERE / "child.py"), role, workload, str(seed), str(seconds)]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=seconds + CHILD_GRACE,
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{role} process timed out after {error.timeout:.0f}s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{role} process exited {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float):
    child("setup", workload, seed)
    setups = [child("setup", workload, seed)["setup_s"] for _ in range(SETUP_PROBES)]
    measured = child("measure", workload, seed, seconds)
    values = {
        name: measured.get(name)
        for name in (
            "compress_mbps",
            "decompress_mbps",
            "compress_block_ms_p50",
            "compress_block_ms_p90",
            "chunks_per_s",
            "compression_ratio",
            "peak_rss_mb",
        )
    }
    values["setup_s"] = statistics.median(setups)
    problems = checks(measured)
    record = {
        "setup_s_samples": setups,
        "block_samples": measured.get("block_samples"),
        "failed_fraction": measured["failed"] / max(1, measured["attempted"]),
    }
    return values, measured, measured, record, problems


def per_layer(workload: str, seed: int, seconds: float):
    untraced = child("measure", workload, seed, seconds / 2)
    traced = child("traced", workload, seed, seconds / 2)
    untraced_rep = statistics.median(untraced["wall_s"])
    traced_rep = statistics.median(traced["wall_s"])
    traced_wall = traced["traced_wall_s"] / max(1, len(traced["wall_s"]))
    counts = traced["counts"]
    values = {}
    for layer in layers.LAYERS:
        values[f"{layer}.calls"] = traced["calls"][layer]
        values[f"{layer}.busy_s"] = traced["busy_s"][layer]
        values[f"{layer}.share"] = traced["busy_s"][layer] / traced_wall
    inserts = counts.get("dictionary.inserts", 0)
    typed = counts.get("records.type2", 0) + counts.get("records.type3", 0)
    digests = traced["digests_received"]
    events = counts.get("sim.events", 0)
    values.update(
        {
            "dictionary.hit_ratio": ratio(counts.get("dictionary.hits", 0), counts.get("dictionary.lookups", 0)),
            "dictionary.evictions": counts.get("dictionary.evictions", 0),
            "dictionary.evictions_per_insert": ratio(counts.get("dictionary.evictions", 0), inserts),
            "records.type3_share": ratio(counts.get("records.type3", 0), typed),
            "zipline.frame_us_p50": traced["frame_us_p50"],
            "zipline.frame_us_p99": traced["frame_us_p99"],
            "link.max_queue_depth": traced["max_queue_depth"],
            "link.dropped": traced["dropped"],
            "sim.events": events,
            "sim.events_per_s": events / untraced_rep,
            "controlplane.digests_received": digests,
            "controlplane.useful_digest_ratio": ratio(traced["mappings_learned"], digests),
            "controlplane.installs": counts.get("controlplane.installs", 0),
            "unattributed.share": 1.0 - sum(values[f"{layer}.share"] for layer in layers.LAYERS),
            "trace.overhead": traced_rep / untraced_rep,
        }
    )
    problems = checks(untraced) + checks(traced)
    if traced["leaked_after_uninstall"]:
        problems.append(f"wrappers left after uninstall: {traced['leaked_after_uninstall']}")
    record = {
        "layer_check": layer_check(workload, traced["calls"]),
        "missing_targets": traced["missing_targets"],
        "frame_samples": traced["frame_samples"],
        "traced_repetitions": len(traced["wall_s"]),
        "untraced_repetitions": len(untraced["wall_s"]),
    }
    merged = {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
    }
    return values, merged, untraced, record, problems


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def checks(result: dict) -> list:
    problems = []
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} failed {result['errors']}")
    if "reference_ok" in result and not result["reference_ok"]:
        problems.append(
            "input fingerprint at the reference seed changed: "
            f"{result['reference_sha256']} (see perfbench/reference.json)"
        )
    if result.get("leaked_wrappers"):
        problems.append(f"tracing wrappers present in the untraced run: {result['leaked_wrappers']}")
    return problems


def layer_check(workload: str, calls: dict) -> dict:
    """Predicted-busy layers that made no call; predicted-idle ones that did."""
    silent = [
        layer for layer, entry in layers.LAYER_MAP.items()
        if workload in entry["busy"] and not calls[layer]
    ]
    noisy = [
        layer for layer, entry in layers.LAYER_MAP.items()
        if workload in entry["idle"] and calls[layer]
    ]
    return {"busy_without_calls": silent, "idle_with_calls": noisy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = definition["per_layer" if args.trace else "end_to_end"]

    measure = per_layer if args.trace else end_to_end
    try:
        values, totals, untraced, record, problems = measure(
            args.workload, args.seed, args.seconds
        )
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    missing = [entry["name"] for entry in listed if values.get(entry["name"]) is None]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in listed
    }
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=untraced["environment"],
        input_sha256=untraced["input_sha256"],
        output_sha256=untraced["output_sha256"],
        reference_sha256=untraced["reference_sha256"],
        repetitions=untraced["repetitions"],
        problems=problems,
        metrics=metrics,
    )
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": totals["attempted"],
                "failed": totals["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
