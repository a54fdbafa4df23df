import pytest

from portalbench.stats import (
    TAIL_MIN_BEYOND,
    digest,
    nearest_rank,
    tail_percentile,
)


def _beyond(values, threshold):
    return sum(1 for v in values if v > threshold)


def test_no_tail_below_one_hundred_samples():
    assert tail_percentile(list(range(99))) is None


@pytest.mark.parametrize(
    "n, percentile",
    [(100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, percentile):
    values = [float(i) for i in range(n)]
    p, value = tail_percentile(values)
    assert p == percentile
    assert _beyond(values, value) >= TAIL_MIN_BEYOND
    # The next percentile up would leave fewer than ten beyond it.
    for q in (99.9, 99.0, 95.0, 90.0):
        if q > p:
            assert _beyond(values, nearest_rank(values, q)) < TAIL_MIN_BEYOND


def test_tail_ignores_input_order():
    values = [float(i) for i in range(100)]
    assert tail_percentile(values[::-1]) == tail_percentile(values)


def test_nearest_rank():
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0


def test_digest_is_order_sensitive_and_stable():
    assert digest([["a", 1]]) == digest([["a", 1]])
    assert digest([["a", 1], ["b", 2]]) != digest([["b", 2], ["a", 1]])
