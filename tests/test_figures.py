"""Integration tests for the figure drivers (tiny scale, fast).

The benchmark suite runs these at full scale; here we pin the *shape*
invariants at SF 0.001 so `pytest tests/` alone exercises every
experiment driver end to end.
"""

import pytest

from repro.bench import figures
from repro.bench.harness import BenchmarkFixture


@pytest.fixture(scope="module")
def fixture():
    return BenchmarkFixture(scale_factor=0.001)


class TestCardinalityFigures:
    def test_fig6_shapes(self, fixture):
        headers, rows = figures.fig6_micro_false_positives(fixture)
        assert headers == figures.FIG6_HEADERS
        assert len(rows) == len(figures.SELECTIVITY_SWEEP)
        leaf_values = {row[3] for row in rows}
        assert len(leaf_values) == 1  # leaf constant
        for __, offline, hcn, leaf in rows:
            assert offline == hcn  # Theorem 3.7 on the SJ micro query
            assert hcn <= leaf

    def test_fig9_shapes(self, fixture):
        headers, rows = figures.fig9_tpch_false_positives(fixture)
        assert {row[0] for row in rows} == {
            "Q3", "Q5", "Q7", "Q8", "Q10", "Q18", "Q22"
        }
        for name, offline, hcn, leaf in rows:
            assert offline <= hcn <= leaf or (offline <= hcn and hcn <= leaf)

    def test_sj_exactness(self, fixture):
        __, rows = figures.sj_exactness(fixture)
        assert all(row[3] == 0 for row in rows)

    def test_static_analysis_table(self, fixture):
        headers, rows = figures.static_analysis_comparison(fixture)
        variant = next(row for row in rows if row[0].startswith("Q3("))
        assert variant[1] == "no"


class TestOverheadFigures:
    def test_fig7_runs(self, fixture):
        headers, rows = figures.fig7_micro_overheads(fixture, repeats=2)
        assert len(rows) == len(figures.SELECTIVITY_SWEEP)
        for row in rows:
            assert row[1] > 0  # baseline time
            assert row[4] >= row[5] * 0 and row[4] > 0  # probes recorded

    def test_fig8_runs(self, fixture):
        headers, rows = figures.fig8_audit_cardinality(fixture, repeats=2)
        cardinalities = [row[0] for row in rows]
        assert cardinalities == sorted(cardinalities)
        assert cardinalities[-1] == fixture.row_counts["customer"]

    def test_fig10_runs(self, fixture):
        headers, rows = figures.fig10_tpch_overheads(fixture, repeats=2)
        assert len(rows) == 7
        assert all(row[1] > 0 for row in rows)


class TestAblations:
    def test_idview_probe(self, fixture):
        __, rows = figures.idview_probe_ablation(fixture, repeats=2)
        timings = {row[0]: row[2] for row in rows}
        assert timings["compiled_id_view"] < timings["full_predicate"]

    def test_offline_cache(self, fixture):
        __, rows = figures.offline_cache_ablation(fixture, repeats=1)
        assert {row[0] for row in rows} == {"micro", "Q10"}

    def test_bloom_probe(self, fixture):
        __, rows = figures.bloom_probe_ablation(fixture)
        by_probe = {row[0]: row for row in rows}
        assert by_probe["bloom"][2] >= by_probe["set"][2]
        assert by_probe["set"][3] == 0

    def test_offline_filtering(self, fixture):
        __, rows = figures.offline_filtering_benefit(
            fixture, workload_size=6
        )
        by_strategy = {row[0]: row for row in rows}
        assert by_strategy["trigger-filtered"][1] < \
            by_strategy["offline-everything"][1]
