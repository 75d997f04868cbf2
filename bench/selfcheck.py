#!/usr/bin/env python3
"""Check the benchmark itself: ``python3 bench/selfcheck.py``.

Runs ``bench/run.py --quick`` (same code paths, cut sizes) and asserts

* metric and workload names are plain (``[A-Za-z0-9_.-]+``) and every
  metric ``run.py`` printed is declared in ``BENCHMARK.json``;
* every pass passed its correctness check and the exact counts repeated
  exactly between the traced passes of each workload;
* on the real-plane workloads the layer self times sum to the traced pass
  within 2 % (a span name missing from ``workloads.SELF_TIME_OF`` would
  leave the table short);
* every correctness check can fail: each is fed a perturbed output.

Exits non-zero with the failed assertion.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
REAL_PLANE = ("fd_bulk", "fd_latency", "scf_domain", "scf_bands")


def check_names() -> None:
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in names:
        assert NAME.match(name), f"bad name {name!r}"
    assert len(set(names)) == len(names), "a name is used twice"


def check_quick_run() -> None:
    out = BENCH_DIR / "out" / "selfcheck.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--out", str(out)],
        stdout=subprocess.PIPE, text=True,
    )
    assert proc.returncode == 0, f"quick run failed:\n{proc.stdout[-2000:]}"
    doc = json.loads(out.read_text())
    out.unlink()
    declared = {m["name"] for m in SPEC["per_layer"]}
    for w in SPEC["workloads"]:
        entry = doc["workloads"][w["name"]]
        assert entry["failed_frac"] == 0, f"{w['name']}: failed passes"
        traced = entry["traced"]
        assert traced["failed"] == 0, f"{w['name']}: failed traced passes"
        assert set(entry["per_layer"]) <= declared, (
            f"{w['name']}: undeclared {set(entry['per_layer']) - declared}")
        for count, values in traced["exact_counts"].items():
            assert len(values) >= 2 and len(set(values)) == 1, (
                f"{w['name']}: {count} did not repeat: {values}")
        assert entry["per_layer"]["run.trace_overhead_frac"] is not None
        if w["name"] in REAL_PLANE:
            assert traced["layer_sum_err_frac"] <= 0.02, (
                f"{w['name']}: layer table is off the traced pass by "
                f"{traced['layer_sum_err_frac']:.1%}")


def check_checks_can_fail() -> None:
    sys.path[:0] = [str(BENCH_DIR)]
    sys.path.append(str(ROOT / "src"))
    import workloads as W

    np = W.np
    good = {0: np.arange(8.0).reshape(2, 2, 2)}
    assert W.check_fd(good, good)
    off = {0: np.nextafter(good[0], np.inf)}  # one ulp
    assert not W.check_fd(off, good)
    assert not W.check_fd({}, good)

    assert W.check_energy(50.2454155955, 50.2454155955 + 1e-12)
    assert not W.check_energy(50.2454155955 + 1e-8, 50.2454155955)
    assert W.check_checkpoint(2, 2)
    assert not W.check_checkpoint(1, 2)
    assert not W.check_checkpoint(None, 2)

    for name in ("des_replay", "des_traced"):
        for mode, pinned in W.PINNED[name].items():
            assert pinned, f"{name}/{mode}: nothing pinned"
            assert W.check_des(dict(pinned), pinned)
            for key, value in pinned.items():
                bumped = dict(pinned)
                bumped[key] = value + 1 if isinstance(value, int) else value * (1 + 1e-15)
                assert bumped[key] != value
                assert not W.check_des(bumped, pinned), f"{name}: {key} unchecked"
    assert W.check_buckets(0.0)
    assert not W.check_buckets(1e-9)

    pinned = W.PINNED["plan_rank"]["full"]
    assert W.check_plan(json.loads(json.dumps(pinned)), pinned)
    assert not W.check_plan({**pinned, "choices": pinned["choices"] - 1}, pinned)
    assert not W.check_plan({**pinned, "best": ["flat-optimized", 16, 8]}, pinned)


def main() -> int:
    check_names()
    check_checks_can_fail()
    check_quick_run()
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
