"""Self time = span minus the interval its children cover."""

import spans


def _span(ident, parent, start, end, name="x"):
    return {"id": ident, "parent": parent, "stmt": 0, "name": name,
            "start_ns": start, "end_ns": end}


def test_nested_children():
    recorded = [
        _span(0, None, 0, 100, "stmt"),
        _span(1, 0, 10, 60, "exec"),
        _span(2, 1, 20, 30, "probe"),
        _span(3, 0, 70, 90, "fire"),
    ]
    own = spans.self_times_ns(recorded)
    assert own == {0: 30, 1: 40, 2: 10, 3: 20}
    assert sum(own.values()) == 100  # self times partition the root


def test_overlapping_children_are_not_subtracted_twice():
    recorded = [
        _span(0, None, 0, 100),
        _span(1, 0, 10, 50),
        _span(2, 0, 30, 70),   # overlaps span 1 on [30, 50]
    ]
    assert spans.self_times_ns(recorded)[0] == 100 - 60


def test_child_spilling_past_its_parent_is_clipped():
    recorded = [_span(0, None, 0, 100), _span(1, 0, 80, 150)]
    own = spans.self_times_ns(recorded)
    assert own[0] == 80
    assert own[1] == 70


def test_covered_ns_unions_unsorted_intervals():
    assert spans.covered_ns([(60, 80), (0, 20), (10, 30)], 0, 100) == 50
    assert spans.covered_ns([], 0, 100) == 0


def test_tracer_links_parents_and_statements():
    tracer = spans.Tracer()
    with tracer.span("stmt", 7) as outer:
        with tracer.span("exec.run", 7, tag="q3") as inner:
            pass
    with tracer.span("stmt", 8) as later:
        pass
    assert inner["parent"] == outer["id"] and later["parent"] is None
    assert inner["tag"] == "q3" and "tag" not in outer
    assert outer["start_ns"] <= inner["start_ns"] <= inner["end_ns"] \
        <= outer["end_ns"]
    assert spans.durations_s(tracer.spans, "exec.run", "q3") == [
        (inner["end_ns"] - inner["start_ns"]) / 1e9
    ]
    by_name = spans.self_time_by_name(tracer.spans)
    assert set(by_name) == {"stmt", "exec.run"}


def test_jsonl_round_trip(tmp_path):
    import json

    tracer = spans.Tracer()
    with tracer.span("stmt", 0):
        tracer.count(0, rows_out=3)
        tracer.count(0, rows_out=2)
    path = tmp_path / "out" / "trace.jsonl"
    spans.write_jsonl(path, tracer.spans, tracer.counters)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["name"] == "stmt"
    assert lines[1] == {"stmt": 0, "counters": {"rows_out": 5}}
