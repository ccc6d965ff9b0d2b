"""Compare two ledger reports: ``compare.py A.json B.json``.

A and B are files written by ``run.py --out`` (A is the base: the
parent commit, or the committed ``baseline.json``).  One row per
workload and gated metric: both medians, B/A with its base, the
regression bound, the wider of the two recorded run-to-run spreads,
and a verdict:

* ``regressed``  — B is worse than A by more than the bound;
* ``unresolved`` — the recorded spread is wider than the bound, so
  this pair of reports cannot tell (make more repeats);
* ``ok``         — neither.

Metrics with bound 0 (``failed_share``, exact ratios of counts) are
``regressed`` as soon as B is worse at all.  Exit code 1 when any row
is ``regressed``, else 0.
"""

from __future__ import annotations

import json
import math
import sys


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative when B
    is better)."""
    change = b - a if better == "lower" else a - b
    if a:
        return change / abs(a)
    return math.copysign(math.inf, change) if change else 0.0


def verdict(row_a: dict, row_b: dict) -> tuple[str, float]:
    """(verdict, the wider of the two recorded spreads)."""
    bound = row_a["bound"]
    worse = worse_by(row_a["median"], row_b["median"], row_a["better"])
    spread = max(row_a.get("spread", 0.0), row_b.get("spread", 0.0))
    if bound and spread > bound:
        return "unresolved", spread
    return ("regressed" if worse > bound else "ok"), spread


def compare(report_a: dict, report_b: dict) -> tuple[list[str], int]:
    lines = [f"{'workload':<21}{'metric':<24}{'A (base)':>12}"
             f"{'B':>12}  {'B/A':>6}  {'bound':>5} {'spread':>6}"
             f"  verdict"]
    regressed = 0
    for name, metrics in report_a["summary"].items():
        other = report_b["summary"].get(name)
        if other is None:
            lines.append(f"{name:<21}missing from B")
            regressed += 1
            continue
        for key, row_a in metrics.items():
            if row_a["bound"] is None or row_a["kind"] == "per_layer":
                continue
            row_b = other.get(key)
            if row_b is None:
                lines.append(f"{name:<21}{key:<24}missing from B")
                regressed += 1
                continue
            outcome, spread = verdict(row_a, row_b)
            regressed += outcome == "regressed"
            a, b = row_a["median"], row_b["median"]
            ratio = f"{b / a:6.3f}" if a else "   n/a"
            lines.append(
                f"{name:<21}{key:<24}{a:>12.4f}{b:>12.4f}  {ratio}"
                f"  {row_a['bound']:>5.2f} {spread:>6.3f}  {outcome}"
                f"  [{row_a['unit']}, base A]")
    differing = [
        f"{name}.{key}: {counts[key]} -> {other_counts.get(key)}"
        for name, counts in report_a.get("counts", {}).items()
        for other_counts in [report_b.get("counts", {}).get(name, {})]
        for key in counts if counts[key] != other_counts.get(key)]
    fixed = (report_a["settings"].get("rounds") is not None
             and report_a["settings"] == report_b["settings"])
    if fixed:
        lines.append("engine counts (same --rounds, so they should"
                     " repeat exactly): "
                     + ("identical" if not differing
                        else "; ".join(differing)))
    else:
        lines.append("engine counts not compared: they repeat exactly"
                     " only between runs with the same --rounds")
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    lines, regressed = compare(*reports)
    print("\n".join(lines))
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
