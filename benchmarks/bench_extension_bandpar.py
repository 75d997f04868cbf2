"""Extension benchmark — band parallelization beyond the paper.

The paper's section IV constraint (every rank holds the same subset of
every grid) is what forces the flat decomposition so fine at 16 k cores.
GPAW's later band parallelization relaxes it; this benchmark quantifies
the head-room on the paper's own Fig 7 workload using our calibrated
machine, as the planner's best hybrid-multiple batch per band-group
count.
"""

from conftest import SHORT_NAMES  # noqa: F401  (kept for consistency)

from repro.analysis import format_table
from repro.core import Planner, ProblemSpec

PROBLEM = ProblemSpec(shape=(192, 192, 192), n_grids=2816)


def best_per_band_groups(result):
    """The fastest choice of every band-group count, in nb order."""
    best = {}
    for ch in result.choices:  # fastest first
        best.setdefault(ch.spec.layout.n_band_groups, ch)
    return [best[nb] for nb in sorted(best)]


def test_band_parallel_headroom(benchmark, show):
    result = benchmark(
        Planner().rank, PROBLEM, 16384, 8, ["hybrid-multiple"]
    )
    rows = best_per_band_groups(result)
    show(
        format_table(
            ["band groups", "FD ms", "ring ms", "subspace ms", "step ms"],
            [
                [
                    ch.spec.layout.n_band_groups,
                    round(ch.fd_time * 1e3, 2),
                    round(ch.subspace_ring * 1e3, 2),
                    round(ch.subspace_time * 1e3, 1),
                    round(ch.predicted_time * 1e3, 1),
                ]
                for ch in rows
            ],
            title="band parallelization @16k cores, Fig 7 workload",
        )
    )
    base, best = rows[0], rows[-1]
    # FD communication head-room exists and grows with groups
    assert best.fd_time < base.fd_time
    # the ring never becomes the bottleneck for this workload
    assert all(ch.subspace_time == ch.subspace_compute for ch in rows)
    # and the whole step improves
    assert best.predicted_time < base.predicted_time
