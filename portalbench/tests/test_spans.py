import pytest

from portalbench.spans import OBSERVE_SPAN, PASS_SPAN, SpanRecorder, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_times_sum_to_root_duration():
    starts = [0.0, 1.0, 2.0, 2.5, 5.0, 6.0]
    ends = [10.0, 4.0, 2.5, 3.5, 9.0, 8.0]
    parents = [-1, 0, 1, 1, 0, 4]
    assert sum(self_times(starts, ends, parents)) == pytest.approx(10.0)


def test_recorder_links_parents_and_pass_ids():
    spans = SpanRecorder()
    leaf = spans.wrap("leaf", lambda x: x + 1)
    middle = spans.wrap("middle", lambda x: leaf(x) * 2)
    run = spans.wrap(PASS_SPAN, lambda x: middle(x))

    assert run(1) == 4
    assert run(2) == 6
    leaf(0)  # outside any pass

    names = [spans.names[i] for i in spans.name_id]
    assert names == [PASS_SPAN, "middle", "leaf", PASS_SPAN, "middle", "leaf", "leaf"]
    assert list(spans.parent) == [-1, 0, 1, -1, 3, 4, -1]
    assert list(spans.pass_id) == [0, 0, 0, 1, 1, 1, -1]
    assert spans.passes == 2
    assert spans.totals()["leaf"][0] == 3


def test_span_closes_when_the_call_raises():
    spans = SpanRecorder()

    def boom():
        raise ValueError("boom")

    traced = spans.wrap("boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert spans.end[0] >= spans.start[0] > 0.0
    spans.wrap("after", lambda: None)()
    assert spans.parent[1] == -1


def test_observer_runs_in_its_own_span_under_the_caller():
    spans = SpanRecorder()
    seen = []
    inner = spans.wrap("inner", lambda: 7, observe=lambda a, k, r: seen.append(r))
    outer = spans.wrap("outer", lambda: inner())
    assert outer() == 7
    assert seen == [7]
    names = [spans.names[i] for i in spans.name_id]
    assert names == ["outer", "inner", OBSERVE_SPAN]
    assert list(spans.parent) == [-1, 0, 0]


def test_write_emits_one_line_per_span(tmp_path):
    spans = SpanRecorder()
    spans.wrap(PASS_SPAN, spans.wrap("leaf", lambda: None))()
    path = tmp_path / "spans.tsv"
    spans.write(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "name\tstart_s\tend_s\tparent\tpass"
    assert [line.split("\t")[0] for line in lines[1:]] == [PASS_SPAN, "leaf"]
