"""The ledger: the repo's benchmark, one command.

    python3 benchmarks/ledger/run.py                 # all six workloads
    python3 benchmarks/ledger/run.py --trace         # ... plus the traced pass
    python3 benchmarks/ledger/run.py --only query_indexed --trace
    python3 benchmarks/ledger/run.py --repeat 3 --trace --out runs.json

Without ``--workload`` every workload runs in a fresh subprocess, its
outputs are verified and every metric is printed by name with its
unit.  With ``--workload NAME`` (what the benchmark driver calls, see
BENCHMARK.json) one workload is measured in this process and the last
line of standard output is its result as one JSON object.

README.md in this directory explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: no src/repro beside {HERE}: the benchmark"
             " measures the repository it is checked out in")
sys.path.insert(0, str(ROOT / "src"))

import trace as ledger_trace  # noqa: E402  (sibling module, not stdlib trace)
from harness import clock, median_ms, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}

#: set-ups per untraced run, ``setup_s`` being their median: at least
#: the first number, and up to the second while they have taken less
#: than ``SETUP_BUDGET_S`` together (cheap set-ups are the noisiest)
SETUP_REPEATS = (3, 5)
SETUP_BUDGET_S = 4.0

#: span name -> per-layer metric holding its self time per operation
LAYER_TIME = {
    "xmlkit.parse": "xmlkit_parse_ms_per_op",
    "xmlkit.serialize": "xmlkit_serialize_ms_per_op",
    "dtd.validate": "dtd_validate_ms_per_op",
    "core.loader": "loader_shred_ms_per_op",
    "core.metadata": "metadata_ms_per_op",
    "core.facade": "facade_ms_per_op",
    "core.retriever": "retrieve_ms_per_op",
    "ordb.sql": "sql_parse_ms_per_op",
    "ordb.engine": "engine_execute_ms_per_op",
    "ordb.wal": "wal_ms_per_op",
    "fsync": "fsync_ms_per_op",
    "ordb.sharding": "router_ms_per_op",
    "client": "client_wire_ms_per_op",
    "server.wait": "server_wait_ms_per_op",
    ledger_trace.ROOT: "unattributed_ms_per_op",
}


def metric(value: float, unit: str, better: str,
           bound: float | None, kind: str) -> dict:
    return {"value": value, "unit": unit, "better": better,
            "bound": bound, "kind": kind}


def declared(name: str, value: float, table: dict, kind: str) -> dict:
    spec = table[name]
    return metric(value, spec["unit"], spec["better"],
                  spec.get("bound"), kind)


# -- one workload, in this process ------------------------------------------------------


def measure(name: str, seed: int, seconds: float, traced: bool,
            scale: float, rounds: int | None) -> dict:
    """Set up, warm up, measure and verify one workload."""
    recorder = ledger_trace.install() if traced else None
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, scale, scratch, recorder)
    setups = []
    try:
        while True:
            start = clock()
            workload.setup()
            setups.append(clock() - start)
            # the traced pass reports no set-up time: once is enough
            if traced or len(setups) >= SETUP_REPEATS[1] or (
                    len(setups) >= SETUP_REPEATS[0]
                    and sum(setups) >= SETUP_BUDGET_S):
                break
            workload.teardown()
        gc.collect()
        gc.freeze()
        workload.warm_up()
        if recorder is not None:
            recorder.reset()
        workload.start_counting()
        ops = workload.run(seconds, rounds)
        counts = workload.counts()
        # before finish(): verification and recovery also cross the
        # wrapped entry points, and are not part of the operations
        layers = (None if recorder is None else
                  (recorder.self_times(), recorder.calls(),
                   recorder.amounts()))
        extras = workload.finish(ops)
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)

    primary = [sample for kind in workload.primary
               for sample in ops.samples[kind]]
    if traced:
        metrics = layer_metrics(layers, ops, counts, extras)
        recorder.dump(OUT / f"trace_{name}.json")
    else:
        metrics = {}
        metrics["ops_per_s"] = declared(
            "ops_per_s", ops.throughput(), END_TO_END, "end_to_end")
        metrics["p50_ms"] = declared(
            "p50_ms", median_ms(primary), END_TO_END, "end_to_end")
        metrics["setup_s"] = declared(
            "setup_s", statistics.median(setups), END_TO_END,
            "end_to_end")
        metrics["failed_share"] = metric(
            ops.failed / ops.attempted, "ratio", "lower", 0.0, "extra")
        metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB", "lower",
                                        0.10, "extra")
        for key, (value, unit, better, bound) in extras.items():
            if key not in PER_LAYER:  # those belong to the traced pass
                metrics[key] = metric(value, unit, better, bound,
                                      "extra")
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "scale": scale, "traced": traced,
        "rounds": workload.rounds_run,
        "attempted": ops.attempted, "failed": ops.failed,
        "correct": not ops.problems, "problems": ops.problems,
        "failures": ops.failures,
        "primary": "+".join(workload.primary),
        "op_unit": workload.op_unit,
        "setups_s": setups, "wall_s": ops.wall,
        "metrics": metrics,
        "samples": {kind: sample_summary(values)
                    for kind, values in sorted(ops.samples.items())},
        "counts": counts,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sample_summary(values: list[float]) -> dict:
    summary = {"n": len(values), "p50_ms": median_ms(values)}
    high = tail(values)
    if high is not None:
        summary["tail_percentile"], summary["tail_ms"] = high
    return summary


def layer_metrics(layers: tuple, ops, counts: dict,
                  extras: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced run:
    self time per operation from the spans, work counts from the
    engine's own counters."""
    per_op = 1.0 / ops.attempted
    self_times, calls, amounts = layers
    values = {name: 0.0 for name in PER_LAYER}
    for span_name, metric_name in LAYER_TIME.items():
        values[metric_name] = self_times.get(span_name, 0.0) * 1e3 * per_op
    values["traced_ms_per_op"] = ops.busy * 1e3 * per_op
    values["span_coverage"] = 100 * sum(self_times.values()) / ops.busy
    values["traced_ops_per_s"] = ops.throughput()
    values["sql_parse_calls_per_op"] = calls.get("ordb.sql", 0) * per_op
    values["sql_chars_parsed_per_op"] = (
        amounts.get("ordb.sql", 0) * per_op)
    values["fsyncs_per_op"] = calls.get("fsync", 0) * per_op
    if counts:
        lookups = counts["stmt_cache_hits"] + counts["stmt_cache_misses"]
        values["stmt_cache_hit_rate"] = (
            100 * counts["stmt_cache_hits"] / max(1, lookups))
        values["rows_scanned_per_row_returned"] = (
            counts["rows_scanned"] / max(1, ops.rows_returned))
        values["index_probes_per_op"] = per_op * (
            counts["index_lookups"] + counts["range_index_lookups"]
            + counts["fulltext_lookups"])
        values["full_scans_per_op"] = counts["full_scans"] * per_op
        values["wal_appends_per_op"] = counts["wal_appends"] * per_op
        values["wal_bytes_per_op"] = counts["wal_bytes"] * per_op
    for name in ("scatter_legs_per_query", "shard_doc_skew",
                 "server_shed", "wire_overhead_ms"):
        if name in extras:
            values[name] = extras[name][0]
    return {name: declared(name, value, PER_LAYER, "per_layer")
            for name, value in values.items()}


def describe(detail: dict) -> str:
    """Every metric of one run by name, with its unit."""
    mode = "traced" if detail["traced"] else "untraced"
    lines = [f"workload {detail['workload']} ({mode})"
             f" seed={detail['seed']} rounds={detail['rounds']}"
             f" measured={detail['wall_s']:.2f}s"
             f" attempted={detail['attempted']}"
             f" failed={detail['failed']}"
             f" ({detail['op_unit']}; p50_ms is of"
             f" {detail['primary']})"]
    for name, entry in detail["metrics"].items():
        gate = ("" if entry["bound"] is None
                else f"  (bound {entry['bound']:g})")
        lines.append(f"  {name:<32}{entry['value']:>14.4f}"
                     f" {entry['unit']}{gate}")
    for kind, summary in detail["samples"].items():
        text = (f"  diag {kind}: n={summary['n']}"
                f" p50={summary['p50_ms']:.3f} ms")
        if "tail_ms" in summary:
            text += (f" p{summary['tail_percentile']:g}="
                     f"{summary['tail_ms']:.3f} ms")
        lines.append(text)
    if not detail["traced"]:
        lines.append("  diag set-ups: " + " ".join(
            f"{seconds:.3f}s" for seconds in detail["setups_s"]))
    for problem in detail["problems"]:
        lines.append(f"  WRONG: {problem}")
    for failure in detail["failures"]:
        lines.append(f"  failed: {failure}")
    return "\n".join(lines)


def run_workload(args) -> int:
    detail = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.scale, args.rounds)
    print(describe(detail))
    print("#detail " + json.dumps(detail))
    wanted = PER_LAYER if detail["traced"] else END_TO_END
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": detail["metrics"][name]["value"],
                           "unit": wanted[name]["unit"]}
                    for name in wanted},
    }))
    return 0 if detail["correct"] else 1


# -- every workload, each in a fresh subprocess ------------------------------------------


def spawn(name: str, args, traced: bool) -> dict | None:
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--scale", str(args.scale),
               "--trace", "1" if traced else "0"]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    detail = None
    for line in done.stdout.splitlines()[:-1]:
        if line.startswith("#detail "):
            detail = json.loads(line[len("#detail "):])
        else:
            print(line)
    sys.stdout.flush()
    if detail is None or done.returncode != 0 or not detail["correct"]:
        print(f"FAILED: {name} (exit {done.returncode})")
        return None
    return detail


def fingerprint() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of every metric over the repeats."""
    summary: dict = {}
    for name in runs[0]:
        summary[name] = {}
        for mode in ("untraced", "traced"):
            details = [run[name][mode] for run in runs
                       if run[name].get(mode)]
            for key in (details[0]["metrics"] if details else ()):
                entries = [detail["metrics"][key] for detail in details]
                values = [entry["value"] for entry in entries]
                middle = statistics.median(values)
                row = {field: entries[0][field]
                       for field in ("unit", "better", "bound", "kind")}
                row.update(median=middle, values=values)
                if len(values) > 1:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    row.update(q1=q1, q3=q3,
                               spread=(q3 - q1) / middle if middle
                               else 0.0)
                summary[name][key] = row
        if all(run[name].get("traced") for run in runs):
            shares = [1 - run[name]["traced"]["metrics"]
                      ["traced_ops_per_s"]["value"]
                      / run[name]["untraced"]["metrics"]
                      ["ops_per_s"]["value"] for run in runs]
            summary[name]["trace_overhead_share"] = {
                "unit": "ratio", "better": "lower", "bound": None,
                "kind": "per_layer", "values": shares,
                "median": statistics.median(shares)}
    return summary


def run_all(args) -> int:
    names = [args.only] if args.only else list(WORKLOADS)
    runs = []
    for repeat in range(args.repeat):
        if args.repeat > 1:
            print(f"== repeat {repeat + 1} of {args.repeat}")
        run: dict = {}
        for name in names:
            run[name] = {"untraced": spawn(name, args, traced=False)}
            if args.trace:
                run[name]["traced"] = spawn(name, args, traced=True)
            if None in run[name].values():
                return 1
        runs.append(run)
    summary = summarize(runs)
    for name in names:
        share = summary[name].get("trace_overhead_share")
        if share is not None:
            print(f"{name}: trace_overhead_share"
                  f" {share['median']:.4f} ratio")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "fingerprint": fingerprint(),
            "settings": {"seed": args.seed, "seconds": args.seconds,
                         "scale": args.scale, "rounds": args.rounds,
                         "repeat": args.repeat},
            "summary": summary,
            "counts": {name: runs[0][name]["untraced"]["counts"]
                       for name in names},
        }, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="measure this one workload in this process"
                             " and print its result as the last line")
    parser.add_argument("--only", choices=list(WORKLOADS),
                        help="restrict the full report to one workload")
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="install the timing wrappers and report"
                             " the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the preloaded data sizes"
                             " (smoke runs)")
    parser.add_argument("--rounds", type=int,
                        help="measure exactly this many rounds instead"
                             " of --seconds: counts then repeat exactly")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full passes to make (report only)")
    parser.add_argument("--out", help="write the report as JSON here")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
