"""Same seed, same statements; another seed, other statements, same work."""

from collections import Counter

import constants as C
import streams


def _tpch(seed):
    return [("armed", name, None)
            for index in range(5) for name in streams.tpch_round(seed, index)]


def _cluster(seed):
    names = ("a", "b", "c", "d")
    return [(name, name, None)
            for index in range(5)
            for name in streams.cluster_block(seed, index, names)]


def _point(seed):
    return [op for index in range(3) for op in streams.point_block(seed, index)]


def _wire(seed):
    stream = streams.WireClientStream(seed, client=1)
    return [op for index in (-1, 0, 1, 2) for op in stream.block(index)]


GENERATORS = (_tpch, _cluster, _point, _wire)


def test_same_seed_same_stream_hash():
    for generate in GENERATORS:
        assert streams.stream_hash(generate(7)) == \
            streams.stream_hash(generate(7))


def test_other_seed_other_stream_hash():
    for generate in GENERATORS:
        assert streams.stream_hash(generate(7)) != \
            streams.stream_hash(generate(8))


def test_every_seed_does_the_same_amount_of_work():
    for generate in GENERATORS:
        assert Counter(op[0] for op in generate(7)) == \
            Counter(op[0] for op in generate(8))


def test_block_n_does_not_depend_on_earlier_blocks():
    late = streams.point_block(3, 5)
    for index in range(5):
        streams.point_block(3, index)
    assert streams.point_block(3, 5) == late


def test_point_mix_and_key_space():
    block = streams.point_block(1, 0)
    kinds = Counter(op[0] for op in block)
    assert kinds == {"join": 300, "pk": 700}
    assert len({op[1] for op in block}) > 128 * 5  # far above the plan cache


def test_wire_mix_is_exact_and_deletes_follow_inserts():
    stream = streams.WireClientStream(1, client=0)
    live: set[int] = set()
    for index in range(6):
        block = stream.block(index)
        assert Counter(op[0] for op in block) == {
            "select": 400, "update": 50, "insert": 25, "delete": 25,
        }
        for kind, _, parameters, _ in block:
            if kind == "insert":
                live.add(parameters["pid"])
            elif kind == "delete":
                live.remove(parameters["pid"])  # KeyError: never inserted
            elif kind == "update":
                assert parameters["pid"] % C.WIRE_CLIENTS == 0
                assert 1 <= parameters["pid"] <= C.WIRE_PATIENTS
    assert live == set(stream.live)


def test_wire_clients_write_disjoint_rows():
    first = streams.WireClientStream(1, client=0)
    second = streams.WireClientStream(1, client=1)
    for index in range(3):
        first.block(index)
        second.block(index)
    assert not set(first.ages) & set(second.ages)
    assert not set(first.live) & set(second.live)
    base = streams.patient_rows(C.WIRE_PATIENTS)
    table = streams.wire_final_table([first, second], base)
    assert len(table) == len(base) + len(first.live) + len(second.live)
    updated = {row[0]: row[3] for row in table if row[0] in first.ages}
    assert updated == first.ages


def test_metric_tables_agree_with_benchmark_json():
    import json
    from pathlib import Path

    here = Path(__file__).resolve().parents[1]
    ours = json.loads((here / "metrics.json").read_text())
    theirs = json.loads((here.parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in theirs["workloads"]] == list(C.WORKLOADS)
    gated = [e for e in ours["end_to_end"] if e["gate"] == "driver"]
    assert theirs["end_to_end"] == [
        {key: e[key] for key in ("name", "unit", "better", "bound")}
        for e in gated
    ]
    demoted = [e for e in ours["end_to_end"] if e["gate"] != "driver"]
    assert theirs["per_layer"] == [
        {key: e[key] for key in ("name", "unit", "better")}
        for e in demoted + ours["per_layer"]
    ]
