"""Self-test of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py [--seconds 2]

For every workload it runs ``run.py`` untraced and traced and asserts:

* the run is correct (round trips equal, flows lossless, reference input
  fingerprint unchanged) and prints every metric ``BENCHMARK.json`` lists;
* the untraced process saw no tracing wrapper on any class, and the traced
  process left none behind;
* every layer target still exists, every layer predicted busy on the
  workload made calls and every layer predicted idle made none;
* the layer shares plus ``unattributed.share`` add up to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    definition = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(
                    ["--workload", workload, "--seed", "1",
                     "--seconds", str(args.seconds), "--trace", str(trace)]
                )
            lines = out.getvalue().strip().splitlines()
            label = f"{workload} --trace {trace}"
            check(code == 0 and lines, f"{label}: exit {code}")
            result = json.loads(lines[-1])
            record = json.loads(lines[-2].split(" ", 1)[1])
            check(result["correct"] and result["failed"] == 0, f"{label}: {record['problems']}")
            listed = definition["per_layer" if trace else "end_to_end"]
            check(
                [entry["name"] for entry in listed] == list(result["metrics"]),
                f"{label}: metrics differ from BENCHMARK.json",
            )
            if trace:
                check_layers(label, record, result["metrics"])
            print(f"ok  {label}")
    return 0


def check_layers(label: str, record: dict, metrics: dict) -> None:
    check(not record["missing_targets"], f"{label}: missing {record['missing_targets']}")
    check(
        record["layer_check"] == {"busy_without_calls": [], "idle_with_calls": []},
        f"{label}: {record['layer_check']}",
    )
    total = metrics["unattributed.share"]["value"] + sum(
        metrics[f"{layer}.share"]["value"] for layer in layers.LAYERS
    )
    check(abs(total - 1.0) < 1e-9, f"{label}: shares add up to {total}")


if __name__ == "__main__":
    sys.exit(main())
