"""The bench's pass-cache stage reports the composed-link counters."""

from repro.core.bench import _cache_on_off, _plane_task


def test_stationary_plane_reports_composed_layer():
    sim, task = _plane_task()
    doc = _cache_on_off(sim, task, trials=2, seed=7)
    assert doc["bit_identical"]
    totals = doc["cache_stats"]
    assert doc["composed_hits"] == totals["composed_hits"]
    assert doc["composed_misses"] == totals["composed_misses"]
    # Every evaluation is answered by exactly one of the two.
    assert (
        doc["composed_hits"] + doc["composed_misses"]
        == totals["geometry_hits"] + totals["geometry_misses"]
    )
    # A stationary plane repeats its link states round after round.
    assert doc["composed_hits"] > doc["composed_misses"] > 0
    assert 0.5 < doc["composed_hit_ratio"] < 1.0
