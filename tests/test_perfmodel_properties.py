"""Property-based tests of the performance model's invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ALL_APPROACHES,
    FDJob,
    FLAT_OPTIMIZED,
    FLAT_ORIGINAL,
    HYBRID_MULTIPLE,
    PerformanceModel,
)
from repro.grid import GridDescriptor

PM = PerformanceModel()
CORES = st.sampled_from([4, 16, 64, 256, 1024, 4096, 16384])
GRIDS = st.sampled_from([1, 8, 32, 128, 512, 2816])
BATCH = st.sampled_from([1, 2, 4, 8, 32])
APPROACH = st.sampled_from(list(ALL_APPROACHES))


def job(n_grids):
    return FDJob(GridDescriptor((96, 96, 96)), n_grids)


@settings(max_examples=40, deadline=None)
@given(APPROACH, CORES, GRIDS, BATCH)
def test_property_timing_fields_consistent(approach, cores, grids, batch):
    b = batch if approach.supports_batching else 1
    t = PM.evaluate(job(grids), approach, cores, batch_size=b)
    assert t.total > 0
    assert t.compute > 0
    assert t.compute_ideal > 0
    assert t.comm_exposed >= 0
    assert t.sync >= 0
    assert 0 < t.utilization <= 1
    assert t.comm_bytes_per_node >= 0


@settings(max_examples=25, deadline=None)
@given(APPROACH, CORES, GRIDS)
def test_property_total_monotone_in_grids(approach, cores, grids):
    """More grids never finish sooner."""
    t1 = PM.evaluate(job(grids), approach, cores)
    t2 = PM.evaluate(job(grids * 2), approach, cores)
    assert t2.total >= t1.total


@settings(max_examples=25, deadline=None)
@given(APPROACH, GRIDS, BATCH)
def test_property_deterministic(approach, grids, batch):
    b = batch if approach.supports_batching else 1
    a = PM.evaluate(job(grids), approach, 1024, batch_size=b)
    c = PM.evaluate(job(grids), approach, 1024, batch_size=b)
    assert a.total == c.total


@settings(max_examples=25, deadline=None)
@given(CORES, GRIDS, BATCH)
def test_property_comm_volume_independent_of_batch(cores, grids, batch):
    """Batching repackages traffic; it never changes the bytes."""
    t1 = PM.evaluate(job(grids), FLAT_OPTIMIZED, cores, batch_size=1)
    tb = PM.evaluate(job(grids), FLAT_OPTIMIZED, cores, batch_size=batch)
    assert tb.comm_bytes_per_node == pytest.approx(t1.comm_bytes_per_node)


@settings(max_examples=25, deadline=None)
@given(CORES, GRIDS)
def test_property_ideal_compute_is_work_over_cores(cores, grids):
    j = job(grids)
    for approach in (FLAT_ORIGINAL, HYBRID_MULTIPLE):
        t = PM.evaluate(j, approach, cores)
        expected = j.total_points / cores * PM.spec.stencil_point_time
        assert t.compute_ideal == pytest.approx(expected)


@settings(max_examples=20, deadline=None)
@given(GRIDS, BATCH)
def test_property_hybrid_comm_never_exceeds_flat(grids, batch):
    """Node-level decomposition always moves fewer bytes per node."""
    j = job(grids)
    flat = PM.evaluate(j, FLAT_OPTIMIZED, 1024, batch_size=batch)
    hyb = PM.evaluate(j, HYBRID_MULTIPLE, 1024, batch_size=batch)
    assert hyb.comm_bytes_per_node <= flat.comm_bytes_per_node


@settings(max_examples=20, deadline=None)
@given(CORES, GRIDS)
def test_property_best_batch_at_least_as_good_as_any_probe(cores, grids):
    j = job(grids)
    best = PM.best_batch_size(j, HYBRID_MULTIPLE, cores)
    for b in (1, 2, 8):
        if b <= max(1, grids // 4):
            probe = PM.evaluate(j, HYBRID_MULTIPLE, cores, batch_size=b)
            assert best.total <= probe.total + 1e-12
