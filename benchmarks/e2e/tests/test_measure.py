"""The percentile rule: highest percentile with >= 10 samples beyond."""

import measure


def test_p99_needs_a_thousand_samples():
    assert measure.supported_tail(999) == 95.0
    assert measure.supported_tail(1000) == 99.0
    assert measure.samples_beyond(1000, 99.0) == 10
    assert measure.samples_beyond(999, 99.0) == 9


def test_ladder_climbs_with_the_sample_count():
    assert measure.supported_tail(10) is None
    assert measure.supported_tail(40) == 75.0
    assert measure.supported_tail(100) == 90.0
    assert measure.supported_tail(200) == 95.0
    assert measure.supported_tail(10_000) == 99.9


def test_p99_reads_zero_rather_than_an_unsupported_value():
    samples = [i / 1000.0 for i in range(1, 501)]
    assert measure.p99_ms(samples) == 0.0
    assert measure.tail_ms(samples) == (95.0, 475.0)
    assert measure.p99_ms(samples * 2) == 495.0


def test_nearest_rank_percentile():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(samples, 50) == 3.0
    assert measure.percentile(samples, 100) == 5.0
    assert measure.percentile(samples, 1) == 1.0


def test_window_rate_is_the_median_over_blocks():
    window = measure.Window(blocks=[
        [("a", 0.5), ("a", 0.5)],      # 2 ops/s
        [("a", 0.25), ("b", 0.25)],    # 4 ops/s
        [("a", 0.05), ("a", 0.05)],    # 20 ops/s
    ])
    assert window.rate() == 4.0
    assert window.block_seconds("a") == [1.0, 0.25, 0.1]
    assert window.latencies("b") == [0.25]


def test_run_blocks_counts_failures_and_keeps_going():
    def call(op):
        if op[1] == 2:
            raise ValueError("boom")
        return op[1]

    window = measure.run_blocks(
        lambda index: [("op", 1), ("op", 2), ("op", 3)],
        call,
        lambda op, result: "wrong" if result == 3 else None,
        seconds=0.0,
    )
    assert len(window.blocks) == measure.constants.MIN_BLOCKS
    assert window.attempted == 3 * len(window.blocks)
    assert window.failed == len(window.blocks)
    assert all(len(block) == 2 for block in window.blocks)
    assert any("boom" in text for text in window.mismatches)
    assert "wrong" in window.mismatches
