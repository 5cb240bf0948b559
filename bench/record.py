"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/record.py --seeds 0-9 --trace 0 --out bench/baseline.json

For each workload and metric it stores the median, the quartiles and the
spread (distance between the quartiles over the median), next to the
machine and the commit measured. Use it to compare two commits: record
both with identical settings on the same machine. A later run with a
different --trace value is merged into the same file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PRINTED_ONLY = ("op_p50_ms", "op_tail_ms", "cmd_enumerate_ms", "cmd_probe_ms",
                "cmd_prop1_ms")


def seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def machine():
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4) \
        if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    seconds = spec["run_seconds"]
    record.update(machine=machine(), commit=commit(), run_seconds=seconds)
    key = "per_layer" if args.trace else "end_to_end"
    table = record.setdefault(key, {})
    for name in (w["name"] for w in spec["workloads"]):
        values, runs = {}, []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
            *human, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            runs.append({k: result[k] for k in ("correct", "attempted",
                                                 "failed")} | {"seed": seed})
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            for line in human:
                words = line.split()
                if line.strip().startswith("deadline misses:"):
                    runs[-1]["deadline_misses"] = line.split(":", 1)[1].strip()
                elif line.strip().startswith("power-level searches past"):
                    runs[-1]["search_tail"] = line.split(":", 1)[1].strip()
                elif words and words[0] in PRINTED_ONLY:
                    # Printed, not gated: see NOTES.md.
                    values.setdefault(words[0], []).append(float(words[1]))
            print(name, seed, {m: round(v[-1], 4) for m, v in values.items()
                               if not args.trace}, runs[-1], flush=True)
        table[name] = {"runs": runs,
                       "metrics": {m: summary(v) for m, v in values.items()}}
        if not args.trace:
            for metric, stats in table[name]["metrics"].items():
                print(f"  {metric:<14} median {stats['median']:.5g}  "
                      f"spread {stats['spread']:.4f}", flush=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
