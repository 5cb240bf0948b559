"""powersemi benchmark: one workload per run, or all four in turn.

    python3 bench/run.py --workload probe-order5 --seed 3 --trace 0
    python3 bench/run.py --workload all --seed 3

Run it from the root of a checkout; it imports powersemi from ``src/``
there and refuses to run without it. ``--trace 0`` measures the
end-to-end metrics with no instrumentation; ``--trace 1`` runs the same
ops untraced and then traced and prints the per-layer metrics and the
tracing overhead. Every op's output is checked; the last line of stdout
is the JSON result. See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("cli-order4", "probe-order5", "transfer-order5",
                  "classify-order5")
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class Deadline(Exception):
    """An op ran past its workload's deadline."""


def _alarm(signum, frame):
    raise Deadline()


@dataclass
class Outcome:
    ms: float
    status: str     # "ok", "wrong" or "missed"
    detail: object


def import_program():
    """Import powersemi from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "powersemi" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'powersemi'} not found; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import powersemi
    if Path(powersemi.__file__).resolve().parent != src / "powersemi":
        sys.exit(f"error: imported powersemi from {powersemi.__file__}, "
                 f"not from {src}")


def run_op(workload, fn, i, program, counts, deadline_s):
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            status, detail = fn(i, program, counts)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        status, detail = "missed", workload.label(i)
    except Exception as exc:  # a crash is a failed op, not a dead run
        status, detail = "wrong", f"{workload.label(i)}: " \
                                  f"{type(exc).__name__}: {exc}"
    return Outcome((time.perf_counter() - start) * 1000, status, detail)


def run_ops(workload, fn, program, counts, seconds=None, count=None,
            deadline_s=None):
    """Ops 0, 1, ... until `seconds` have passed (at least one op) or
    `count` ops have run, each under `deadline_s` (by default the
    workload's); returns the outcomes and the elapsed seconds."""
    if deadline_s is None:
        deadline_s = workload.deadline_s
    outcomes = []
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        while True:
            outcomes.append(run_op(workload, fn, len(outcomes), program,
                                   counts, deadline_s))
            if count is not None:
                if len(outcomes) >= count:
                    break
            elif time.perf_counter() - start >= seconds:
                break
        return outcomes, time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)


def tail(values):
    """(percentile, value) for the highest listed percentile with at least
    ten samples above it, or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-p * n // 100)     # nearest rank, 1-based
        if n - rank >= 10:
            return p, ordered[int(rank) - 1]
    return None


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ops, extra):
    """Per-layer metrics: `.s` are seconds per op, counts are per op
    (fingerprint buckets per probe pass), ratios are of run totals; 0
    where the workload skips the layer."""
    inclusive, own, longest = tracer.totals()
    c = tracer.counts

    def per(value):
        return value / ops

    def per_probe(value):
        return ratio(value, c["catalog.probe.calls"])

    metrics = {
        "catalog.generate.s": (per(inclusive["catalog.generate"]), "s"),
        "catalog.generate.tables": (per(c["catalog.generate.tables"]),
                                    "count"),
        "catalog.enumerate.self_s": (per(own["catalog.enumerate"]), "s"),
        "catalog.enumerate.kept_ratio": (
            ratio(c["catalog.enumerate.kept"], c["catalog.generate.tables"]),
            "ratio"),
        "catalog.probe.self_s": (per(own["catalog.probe"]), "s"),
        "cli.startup_ms": (extra.get("cli.startup_ms", 0.0), "ms"),
        "cli.report_bytes": (extra.get("cli.report_bytes", 0.0), "bytes"),
        "power.build.s": (per(inclusive["power.build"]), "s"),
        "power.build.calls": (per(c["power.build.calls"]), "count"),
        "power.build.products": (per(c["power.build.products"]), "count"),
        "power.build.products_per_s": (
            ratio(c["power.build.products"], inclusive["power.build"]), "1/s"),
        "semigroups.validate.s": (per(inclusive["semigroups.validate"]), "s"),
        "morphisms.fingerprint.s": (per(inclusive["morphisms.fingerprint"]),
                                    "s"),
        "morphisms.fingerprint.calls": (per(c["morphisms.fingerprint.calls"]),
                                        "count"),
        "morphisms.fingerprint.buckets": (
            per_probe(c["morphisms.fingerprint.buckets"]), "count"),
        "morphisms.fingerprint.largest_bucket": (
            per_probe(c["morphisms.fingerprint.largest_bucket"]), "count"),
        "morphisms.fingerprint.survivor_pairs": (
            per_probe(c["morphisms.fingerprint.survivor_pairs"]), "count"),
        "morphisms.fingerprint.prune_ratio": (
            ratio(c["catalog.probe.pruned"], c["catalog.probe.pairs"]),
            "ratio"),
        "morphisms.search.s": (per(inclusive["morphisms.search"]), "s"),
        "morphisms.search.calls": (per(c["morphisms.search.calls"]), "count"),
        "morphisms.search.hits": (per(c["morphisms.search.hits"]), "count"),
        "morphisms.search.deadline_misses": (extra.get("misses", 0), "count"),
        "morphisms.search.max_ms": (longest["morphisms.search"] * 1000, "ms"),
        "morphisms.lift.s": (per(inclusive["morphisms.lift"]), "s"),
        "power.family.s": (per(inclusive["power.family"]), "s"),
        "power.family.calls": (per(c["power.family.calls"]), "count"),
        "power.family.members": (per(c["power.family.members"]), "count"),
        "semigroups.congruences.s": (per(inclusive["semigroups.congruences"]),
                                     "s"),
        "semigroups.congruences.partitions": (
            per(c["semigroups.congruences.partitions"]), "count"),
        "semigroups.congruences.found_ratio": (
            ratio(c["semigroups.congruences.found"],
                  c["semigroups.congruences.partitions"]), "ratio"),
        "cancellation.bruteforce.s": (
            per(inclusive["cancellation.bruteforce"]), "s"),
        "cancellation.bruteforce.members": (
            per(c["cancellation.bruteforce.members"]), "count"),
        "cancellation.rule.s": (per(inclusive["cancellation.rule"]), "s"),
        "cancellation.witness.s": (per(inclusive["cancellation.witness"]),
                                   "s"),
        "cancellation.witness.built": (per(c["cancellation.witness.built"]),
                                       "count"),
        "cancellation.agree_ratio": (
            ratio(c["cancellation.agree"], c["cancellation.families"]),
            "ratio"),
        "cancellation.witness.verified_ratio": (
            ratio(c["cancellation.witness.verified"],
                  c["cancellation.witness.built"]), "ratio"),
        "tracing.overhead_frac": (extra["overhead"], "frac"),
    }
    return metrics


def setup_seconds(args, repeats):
    """Wall times of fresh processes that import and set up."""
    from workloads import child_env
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, env=child_env(str(ROOT)), stdout=subprocess.PIPE,
            check=True, timeout=120).stdout
        samples.append(float(out.decode().split()[-1]))
    return samples


def make_workload(name, seed):
    from workloads import WORKLOADS, plain_program
    program = plain_program()
    return WORKLOADS[name](str(ROOT), seed, program), program


def untraced_run(workload, program, seconds):
    outcomes, elapsed = run_ops(workload, workload.op, program, Counter(),
                                seconds=seconds)
    durations = [o.ms for o in outcomes]
    ok = sum(1 for o in outcomes if o.status == "ok")
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = workload.rss_kb
    metrics = {"ops_per_s": ok / elapsed, "peak_rss_mb": rss_kb / 1024}
    lines = [f"  op_p50_ms  {statistics.median(durations):.4f} ms "
             f"({len(durations)} ops)"]
    found = tail(durations)
    if found is not None:
        lines.append(f"  op_tail_ms  {found[1]:.4f} ms (p{found[0]:g} of "
                     f"{len(durations)} ops)")
    if not workload.in_process:
        by_label = {}
        for i, o in enumerate(outcomes):
            by_label.setdefault(workload.label(i), []).append(o.ms)
        for label, values in by_label.items():
            lines.append(f"  cmd_{label}_ms  {statistics.median(values):.4f}"
                         f" ms ({len(values)} runs)")
    return outcomes, metrics, lines


def search_tail(workload, program):
    """One pass of fresh power-level searches over every pair of
    `transfer-order5`, outside its ops: the outcomes past the search
    deadline and the wrong ones (see NOTES.md)."""
    outcomes, _ = run_ops(workload, workload.power_search, program,
                          Counter(), count=len(workload.pairs),
                          deadline_s=workload.search_deadline_s)
    return ([o for o in outcomes if o.status == "missed"],
            [o for o in outcomes if o.status == "wrong"])


def traced_run(workload, program, seconds):
    from spans import Tracer
    from workloads import traced_program

    extra = {}
    outcomes = []
    lines = []
    if not workload.in_process:
        extra["cli.startup_ms"] = statistics.median(
            workload.startup_ms() for _ in range(3))
        cycle, _ = run_ops(workload, workload.op, program, Counter(),
                           count=len(workload.commands))
        outcomes += cycle
        extra["cli.report_bytes"] = statistics.mean(workload.report_bytes)
    plain_outcomes, plain_s = run_ops(workload, workload.traced_op, program,
                                      Counter(), seconds=seconds / 2)
    if not workload.in_process:
        reason = workload.check_labeled(program)
        if reason is not None:
            outcomes.append(Outcome(0.0, "wrong", reason))
    tracer = Tracer()
    traced, patch = traced_program(tracer, program)

    def traced_op(i, program, counts):
        tracer.op = i
        return workload.traced_op(i, program, counts)

    with patch:
        traced_outcomes, traced_s = run_ops(
            workload, traced_op, traced, tracer.counts,
            count=len(plain_outcomes))
    outcomes += plain_outcomes + traced_outcomes
    extra["overhead"] = traced_s / plain_s - 1
    if hasattr(workload, "power_search"):
        misses, wrong = search_tail(workload, program)
        outcomes += wrong
        extra["misses"] = len(misses)
        lines.append(f"  power-level searches past the "
                     f"{workload.search_deadline_s:g} s search deadline: "
                     f"{len(misses)} of {len(workload.pairs)}: " +
                     " ".join(sorted(str(o.detail) for o in misses)))
    metrics = layer_metrics(tracer, len(traced_outcomes), extra)
    return outcomes, metrics, lines


def run_one(args):
    workload, program = make_workload(args.workload, args.seed)
    if args.trace:
        outcomes, metrics, lines = traced_run(workload, program,
                                              args.seconds)
    else:
        # Set-up samples before and after the timed loop, so that a slow
        # or fast spell of the host does not shape all of them.
        before = setup_seconds(args, SETUP_REPEATS // 2)
        outcomes, values, lines = untraced_run(workload, program,
                                               args.seconds)
        samples = before + setup_seconds(args, SETUP_REPEATS - len(before))
        values["setup_s"] = statistics.median(samples)
        metrics = {name: (values[name], unit)
                   for name, unit in E2E_UNITS.items()}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(outcomes)} ops")
    return summarize(workload, outcomes, metrics, lines)


def summarize(workload, outcomes, metrics, lines):
    """Print the metrics and the verdict; return the JSON result."""
    wrong = [o for o in outcomes if o.status == "wrong"]
    missed = [o for o in outcomes if o.status == "missed"]
    failed = len(wrong) + len(missed)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for line in lines:
        print(line)
    print(f"  failed_frac  {failed / len(outcomes):.6f} ({failed} of "
          f"{len(outcomes)}: {len(wrong)} wrong, {len(missed)} past the "
          f"{workload.deadline_s:g} s deadline)")
    if missed:
        print("  deadline misses: " + " ".join(
            sorted({str(o.detail) for o in missed})))
    for o in wrong[:5]:
        print(f"  WRONG: {o.detail}")
    print(f"  verdict: {'PASS' if not wrong else 'FAIL'} "
          f"({len(outcomes) - len(wrong)} of {len(outcomes)} outputs "
          "verified or timed out)")
    return {"correct": not wrong, "attempted": len(outcomes),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    import_program()
    if args.workload == "all":
        result = run_all(args)
    elif args.setup_only:
        make_workload(args.workload, args.seed)
        print(time.perf_counter() - PROCESS_START)
        return 0
    else:
        result = run_one(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
