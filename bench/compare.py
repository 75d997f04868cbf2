#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric) with both medians, their
quartiles and the regression bound of ``BENCHMARK.json``.  ``A`` is the
parent, ``B`` the change.  Verdicts:

``regressed``   B's median is worse than A's by more than the bound —
                or, when the spread is too wide to tell by medians,
                every sample of B is worse than every sample of A.
``unresolved``  the spread (quartile distance over median, of either
                side) is wider than the bound and not every sample on one
                side is better than every sample on the other.
``ok``          otherwise.

``failed_frac`` has bound 0: any increase is a regression.  The exit code
is 1 if any row is ``regressed``, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["value"] if stats["value"] else 0.0


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool = True) -> str:
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    a_s = [sign * x for x in a["samples"]]
    b_s = [sign * x for x in b["samples"]]
    if max(b_s) < min(a_s):
        return "ok"  # every run of B better than every run of A
    if min(b_s) > max(a_s):
        return "regressed" if worse_by > bound else "ok"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def rows(a_doc: dict, b_doc: dict):
    for name in a_doc["workloads"]:
        wa, wb = a_doc["workloads"][name], b_doc["workloads"].get(name)
        if wb is None or "end_to_end" not in wa or "end_to_end" not in wb:
            yield name, "-", None, None, None, "unresolved"
            continue
        for m in SPEC["end_to_end"]:
            a, b = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            yield (name, m["name"], a, b, m["bound"],
                   verdict(a, b, m["bound"], m["better"] == "lower"))
        fa, fb = wa["failed_frac"], wb["failed_frac"]
        yield (name, "failed_frac", {"value": fa}, {"value": fb}, 0.0,
               "regressed" if fb > fa else "ok")


def fmt(stats) -> str:
    if stats is None:
        return "missing"
    if "q1" not in stats:
        return f"{stats['value']:.4g}"
    return f"{stats['value']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}] n={stats['n']}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    counts = {"ok": 0, "unresolved": 0, "regressed": 0}
    print(f"{'workload':<11} {'metric':<14} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'bound':>6}  verdict")
    for name, metric, a, b, bound, v in rows(a_doc, b_doc):
        counts[v] += 1
        bound_text = "-" if bound is None else f"{bound:.0%}"
        print(f"{name:<11} {metric:<14} {fmt(a):<36} {fmt(b):<36} "
              f"{bound_text:>6}  {v}")
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
