"""Direct unit tests for physical operators (no SQL front end involved)."""

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.datatypes import INTEGER
from repro.errors import PlanError
from repro.exec.batch import ColumnBatch
from repro.exec.context import ExecutionContext
from repro.exec.operators import (
    CacheOperator,
    DistinctOperator,
    FilterOperator,
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexSeek,
    LimitOperator,
    NestedLoopJoin,
    OneRowSource,
    ProjectOperator,
    RowSource as Rows,
    SortOperator,
    TableScan,
)
from repro.exec.operators.base import (
    PhysicalOperator,
    collect_rows,
    format_physical,
)
from repro.expr.nodes import Binary, ColumnRef, Literal
from repro.plan.logical import (
    AggregateSpec,
    JOIN_ANTI,
    JOIN_INNER,
    JOIN_LEFT,
    JOIN_SEMI,
    SortKey,
)
from repro.storage.table import Table


def run(operator, context=None):
    return collect_rows(operator, context or ExecutionContext())


def slot(index):
    return ColumnRef(f"c{index}", index=index)


def eq(left_slot, right_slot):
    return Binary("=", slot(left_slot), slot(right_slot))


class TestSourcesAndFilters:
    def test_one_row_source(self):
        assert run(OneRowSource()) == [()]

    def test_filter_keeps_only_true(self):
        source = Rows([(1,), (None,), (3,)])
        predicate = Binary(">", slot(0), Literal(1))
        # NULL > 1 is UNKNOWN: dropped
        assert run(FilterOperator(source, predicate)) == [(3,)]

    def test_project_simple_slots_fast_path(self):
        source = Rows([(1, "a"), (2, "b")])
        project = ProjectOperator(source, (slot(1), slot(0)))
        assert run(project) == [("a", 1), ("b", 2)]

    def test_project_computed(self):
        source = Rows([(2,), (3,)])
        project = ProjectOperator(
            source, (Binary("*", slot(0), Literal(10)),)
        )
        assert run(project) == [(20,), (30,)]

    def test_table_scan_respects_tombstones(self):
        schema = TableSchema(
            "t", (Column("id", INTEGER),), primary_key=("id",)
        )
        table = Table(schema)
        table.bulk_load([(1,), (2,), (3,)])
        context = ExecutionContext()
        context.tombstones = {"t": {(2,)}}
        assert sorted(run(TableScan(table), context)) == [(1,), (3,)]


class TestJoins:
    left_rows = [(1, "l1"), (2, "l2"), (3, "l3")]
    right_rows = [(1, "r1"), (1, "r1b"), (3, "r3")]

    def join_pairs(self, operator_class, kind, **kwargs):
        if operator_class is HashJoin:
            return HashJoin(
                Rows(self.left_rows),
                Rows(self.right_rows),
                kind,
                (0,),
                (0,),
                None,
                right_arity=2,
                **kwargs,
            )
        return NestedLoopJoin(
            Rows(self.left_rows),
            Rows(self.right_rows),
            kind,
            eq(0, 2),
            right_arity=2,
        )

    @pytest.mark.parametrize("operator_class", [HashJoin, NestedLoopJoin])
    def test_inner(self, operator_class):
        rows = run(self.join_pairs(operator_class, JOIN_INNER))
        assert sorted(rows) == [
            (1, "l1", 1, "r1"),
            (1, "l1", 1, "r1b"),
            (3, "l3", 3, "r3"),
        ]

    @pytest.mark.parametrize("operator_class", [HashJoin, NestedLoopJoin])
    def test_left_outer(self, operator_class):
        rows = run(self.join_pairs(operator_class, JOIN_LEFT))
        assert (2, "l2", None, None) in rows
        assert len(rows) == 4

    @pytest.mark.parametrize("operator_class", [HashJoin, NestedLoopJoin])
    def test_semi(self, operator_class):
        rows = run(self.join_pairs(operator_class, JOIN_SEMI))
        assert sorted(rows) == [(1, "l1"), (3, "l3")]

    @pytest.mark.parametrize("operator_class", [HashJoin, NestedLoopJoin])
    def test_anti(self, operator_class):
        rows = run(self.join_pairs(operator_class, JOIN_ANTI))
        assert rows == [(2, "l2")]

    def test_hash_join_null_keys_never_match(self):
        join = HashJoin(
            Rows([(None, "l")]),
            Rows([(None, "r")]),
            JOIN_INNER,
            (0,),
            (0,),
            None,
            right_arity=2,
        )
        assert run(join) == []

    def test_hash_join_null_key_left_outer_extends(self):
        join = HashJoin(
            Rows([(None, "l")]),
            Rows([(None, "r")]),
            JOIN_LEFT,
            (0,),
            (0,),
            None,
            right_arity=2,
        )
        assert run(join) == [(None, "l", None, None)]

    def test_hash_join_build_left_matches_build_right(self):
        right_heavy = HashJoin(
            Rows(self.left_rows), Rows(self.right_rows), JOIN_INNER,
            (0,), (0,), None, 2, build_left=False,
        )
        left_heavy = HashJoin(
            Rows(self.left_rows), Rows(self.right_rows), JOIN_INNER,
            (0,), (0,), None, 2, build_left=True,
        )
        assert sorted(run(right_heavy)) == sorted(run(left_heavy))

    def test_hash_join_residual(self):
        join = HashJoin(
            Rows(self.left_rows),
            Rows(self.right_rows),
            JOIN_INNER,
            (0,),
            (0,),
            Binary("=", slot(3), Literal("r1")),
            right_arity=2,
        )
        assert run(join) == [(1, "l1", 1, "r1")]

    def test_nested_loop_cross_product(self):
        join = NestedLoopJoin(
            Rows([(1,), (2,)]), Rows([("a",), ("b",)]),
            JOIN_INNER, None, right_arity=1,
        )
        assert len(run(join)) == 4


class TestIndexNestedLoopJoin:
    @staticmethod
    def inner_seek():
        schema = TableSchema(
            "t",
            (Column("id", INTEGER), Column("k", INTEGER, nullable=True)),
            primary_key=("id",),
        )
        table = Table(schema)
        table.bulk_load([(1, 10), (2, 10), (3, 30), (4, None)])
        table.create_secondary_index("idx_k", ("k",))
        outer_key = ColumnRef("__outer", index=0, outer_level=1)
        return IndexSeek(table, "idx_k", (outer_key,))

    def test_one_multi_key_seek_per_outer_batch(self, monkeypatch):
        seeks = []
        seek_many = IndexSeek.seek_many

        def counting(self, keys, context):
            seeks.append([key for (key,) in keys])
            return seek_many(self, zip(seeks[-1]), context)

        monkeypatch.setattr(IndexSeek, "seek_many", counting)
        join = IndexNestedLoopJoin(
            Rows([(10,), (None,), (20,), (30,), (10,)]), self.inner_seek(),
            JOIN_INNER, None, inner_arity=2, key_slot=0,
        )
        context = ExecutionContext()
        context.batch_size = 2  # Rows yields three outer batches
        rows = run(join, context)
        assert [row[0] for row in rows] == [10, 10, 30, 10, 10]
        assert sorted(rows[:2]) == [(10, 1, 10), (10, 2, 10)]
        assert seeks == [[10, None], [20, 30], [10]]

    def test_left_outer_null_extension(self):
        join = IndexNestedLoopJoin(
            Rows([(20,), (30,), (None,)]), self.inner_seek(), JOIN_LEFT,
            Binary("<", ColumnRef("id", index=1), Literal(3)),
            inner_arity=2, key_slot=0,
        )
        # 20 has no partner, 30's only partner fails the residual
        assert run(join) == [
            (20, None, None), (30, None, None), (None, None, None)
        ]

    def test_tombstoned_inner_rows_are_invisible(self):
        join = IndexNestedLoopJoin(
            Rows([(10,), (30,)]), self.inner_seek(), JOIN_LEFT, None,
            inner_arity=2, key_slot=0,
        )
        context = ExecutionContext()
        context.tombstones = {"t": {(1,), (3,)}}
        assert run(join, context) == [(10, 2, 10), (30, None, None)]

    def test_rejects_other_kinds_and_inners(self):
        for kind in (JOIN_SEMI, JOIN_ANTI):
            with pytest.raises(PlanError):
                IndexNestedLoopJoin(
                    Rows([]), self.inner_seek(), kind, None, 2, 0
                )
        with pytest.raises(PlanError):
            IndexNestedLoopJoin(Rows([]), Rows([]), JOIN_INNER, None, 2, 0)


class TestAggregation:
    def test_grouped(self):
        source = Rows([("a", 1), ("b", 2), ("a", 3)])
        aggregate = HashAggregate(
            source,
            (slot(0),),
            (
                AggregateSpec("sum", slot(1)),
                AggregateSpec("count", None),
            ),
        )
        assert sorted(run(aggregate)) == [("a", 4, 2), ("b", 2, 1)]

    def test_global_empty_input(self):
        aggregate = HashAggregate(
            Rows([]),
            (),
            (AggregateSpec("count", None), AggregateSpec("max", slot(0))),
        )
        assert run(aggregate) == [(0, None)]

    def test_null_group_keys_group_together(self):
        source = Rows([(None, 1), (None, 2)])
        aggregate = HashAggregate(
            source, (slot(0),), (AggregateSpec("count", None),)
        )
        assert run(aggregate) == [(None, 2)]


class TestAggregateWork:
    """A grouped fold allocates no Python object per group: the net
    GC-tracked objects alive when the first output batch appears grow
    with the batch size, not with the number of groups."""

    def test_twenty_thousand_groups_leave_the_collector_nothing(self):
        import gc

        rows = [(key, key % 7) for key in range(20_000)]
        aggregate = HashAggregate(
            Rows(rows), (slot(0),), (AggregateSpec("sum", slot(1)),)
        )
        context = ExecutionContext()
        stream = aggregate.rows_columnar(context)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            first = next(stream)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert first.row_count == context.batch_size == 1024
        assert first.to_rows()[:2] == [(0, 0), (1, 1)]
        assert grown < 2 * context.batch_size, grown
        assert sum(batch.row_count for batch in stream) == 20_000 - 1024


class TestSortLimitDistinct:
    def test_sort_multi_key_stable(self):
        source = Rows([(2, "b"), (1, "z"), (2, "a"), (1, "a")])
        ordered = SortOperator(
            source,
            (SortKey(slot(0), True), SortKey(slot(1), False)),
        )
        assert run(ordered) == [(1, "z"), (1, "a"), (2, "b"), (2, "a")]

    def test_limit_stops_pulling(self):
        pulled = []

        class Tracking(PhysicalOperator):
            def rows_columnar(self, context):
                for value in range(100):
                    pulled.append(value)
                    yield ColumnBatch.from_rows([(value,)])

        assert run(LimitOperator(Tracking(), 3)) == [(0,), (1,), (2,)]
        assert len(pulled) == 3

    def test_limit_zero(self):
        assert run(LimitOperator(Rows([(1,)]), 0)) == []

    def test_topk_ties_keep_first_seen(self):
        source = Rows([(1, "first"), (1, "second"), (0, "zero")])
        top = LimitOperator(
            SortOperator(source, (SortKey(slot(0), True),)), 2
        )
        assert run(top) == [(0, "zero"), (1, "first")]

    def test_topk_descending_with_nulls(self):
        source = Rows([(None,), (5,), (3,)])
        top = LimitOperator(
            SortOperator(source, (SortKey(slot(0), False),)), 2
        )
        # descending: NULLs (smallest rank) come last; top-2 is 5, 3
        assert run(top) == [(5,), (3,)]

    @pytest.mark.parametrize("limit", [0, 1, 2, 5, 13, 40])
    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_bounded_sort_is_the_sorted_prefix(self, limit, batch_size):
        """A sort told the limit above it keeps exactly the unbounded
        sort's first rows: ties in first-seen order, NULLs first when
        ascending and last when descending, whatever the batch size."""
        import random

        from repro.datatypes import value_sort_key

        rng = random.Random(limit * 100 + batch_size)
        rows = [
            (rng.choice([None, 1, 2, 3]), rng.choice([None, "a", "b"]),
             position)
            for position in range(37)
        ]
        keys = (SortKey(slot(0), False), SortKey(slot(1), True))
        expected = sorted(
            sorted(rows, key=lambda row: value_sort_key(row[1])),
            key=lambda row: value_sort_key(row[0]), reverse=True,
        )[:limit]
        context = ExecutionContext()
        context.batch_size = batch_size
        bounded = SortOperator(Rows(rows), keys, limit)
        assert run(bounded, context) == expected
        assert run(LimitOperator(SortOperator(Rows(rows), keys), limit),
                   context) == expected

    def test_distinct(self):
        source = Rows([(1,), (1,), (2,), (1,)])
        assert run(DistinctOperator(source)) == [(1,), (2,)]


class TestCacheOperator:
    def test_child_runs_once(self):
        executions = []

        class Tracking(PhysicalOperator):
            def rows_columnar(self, context):
                executions.append(1)
                yield ColumnBatch.from_rows([(1,)])

        store = {}
        cache = CacheOperator(Tracking(), store, key=42)
        assert run(cache) == [(1,)]
        assert run(cache) == [(1,)]
        assert len(executions) == 1
        assert 42 in store


class TestPlanFormatting:
    def test_format_physical_tree(self):
        plan = LimitOperator(
            FilterOperator(Rows([]), Binary("=", slot(0), Literal(1))), 5
        )
        text = format_physical(plan)
        assert "Limit(5)" in text and "Filter" in text


class TestColumnBatch:
    def test_round_trip_and_selection(self):
        rows = [(1, "a"), (2, "b"), (3, "c")]
        batch = ColumnBatch.from_rows(rows)
        assert batch.row_count == 3
        assert batch.to_rows() == rows
        narrowed = ColumnBatch(batch.columns, batch.length, [0, 2])
        assert narrowed.row_count == 2
        assert narrowed.to_rows() == [(1, "a"), (3, "c")]
        assert narrowed.column(1) == ["a", "c"]
        assert narrowed.take(1).to_rows() == [(1, "a")]

    def test_zero_arity_rows(self):
        batch = ColumnBatch.from_rows([(), ()])
        assert batch.row_count == 2
        assert batch.to_rows() == [(), ()]

    def test_slots_block_instance_dicts(self):
        batch = ColumnBatch.from_rows([(1,)])
        with pytest.raises(AttributeError):
            batch.extra = 1


class TestOneExecutor:
    """There is one online data path and no knob that selects another."""

    def test_every_operator_defines_rows_columnar_itself(self):
        import repro.exec.operators as package

        concrete = [
            cls for cls in vars(package).values()
            if isinstance(cls, type)
            and issubclass(cls, PhysicalOperator)
            and cls is not PhysicalOperator
        ]
        assert len(concrete) >= 16
        for cls in concrete:
            assert "rows_columnar" in vars(cls), cls.__name__
            for gone in ("rows", "rows_batched"):
                assert not hasattr(cls, gone), (cls.__name__, gone)

    def test_no_mode_can_be_selected(self):
        from repro import Database

        db = Database()
        assert db.exec_mode == "columnar"
        with pytest.raises(AttributeError):
            db.exec_mode = "row"
        with pytest.raises(ValueError):
            collect_rows(Rows([]), ExecutionContext(), mode="batch")
        assert collect_rows(Rows([(1,)]), ExecutionContext(),
                            mode="columnar") == [(1,)]
