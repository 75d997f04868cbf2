"""Watch the latency hiding happen: activity traces of the FD schedules.

Runs the same small FD job through the DES machine under Flat original and
Flat optimized, then renders each run's per-core and per-link activity as
an ASCII Gantt chart.  The original's cores sit idle while its blocking
exchanges serialize; the optimized schedule's link activity hides under
the compute bars — the mechanism behind the paper's entire speedup.

Run:  python examples/latency_hiding_gantt.py
"""

from repro.core import FDJob, FLAT_OPTIMIZED, FLAT_ORIGINAL, simulate_fd
from repro.grid import GridDescriptor
from repro.obs.export import ascii_gantt


def show(approach, batch_size):
    job = FDJob(GridDescriptor((24, 24, 24)), 8)
    result = simulate_fd(job, approach, 8, batch_size=batch_size, trace=True)
    trace = result.trace
    rows = [r for r in trace.resources() if r.startswith("node0")]
    rows += [r for r in trace.resources() if r.startswith("link0")]
    print(f"\n=== {approach.name} (batch {batch_size}) — "
          f"total {result.total * 1e3:.3f} ms, "
          f"utilization {result.utilization:.0%} ===")
    print(ascii_gantt(trace, width=70, resources=rows))


def main() -> None:
    print("8 grids of 24^3 on 8 cores (2 virtual-node BG/P nodes);")
    print("node0's cores and outgoing links, time flowing right.")
    show(FLAT_ORIGINAL, 1)
    show(FLAT_OPTIMIZED, 2)
    print(
        "\nReading: in the original schedule the cores' bars are broken by"
        "\nidle gaps while each blocking exchange completes; in the"
        "\noptimized schedule the link bars run *underneath* solid compute"
        "\nbars — communication happens, but nobody waits for it."
    )


if __name__ == "__main__":
    main()
