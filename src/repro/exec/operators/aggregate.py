"""Hash aggregation operator."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.batch import row_batches
from repro.expr.aggregates import accumulator_factory
from repro.expr.compiler import compile_expression
from repro.exec.operators.base import PhysicalOperator
from repro.plan.logical import AggregateSpec
from repro.expr.nodes import ColumnRef, Expression


def _simple_slot(expression: Expression | None) -> int | None:
    if (
        isinstance(expression, ColumnRef)
        and expression.outer_level == 0
        and expression.index is not None
    ):
        return expression.index
    return None

if TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.exec.context import ExecutionContext


class HashAggregate(PhysicalOperator):
    """Groups rows by the group expressions and folds aggregates.

    Output row = group values followed by aggregate results. With no group
    expressions the operator is a global aggregate and emits exactly one
    row even for empty input (SQL semantics: ``COUNT(*)`` of nothing is 0).
    Group keys treat NULLs as equal, as GROUP BY requires.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        group_expressions: tuple[Expression, ...],
        specs: tuple[AggregateSpec, ...],
    ) -> None:
        self._child = child
        self._group_expressions = group_expressions
        self._specs = specs
        self._compiled_groups = tuple(
            compile_expression(expression)
            for expression in group_expressions
        )
        self._compiled_arguments = tuple(
            compile_expression(spec.argument)
            if spec.argument is not None
            else None
            for spec in specs
        )
        self._factories = tuple(
            accumulator_factory(spec.name, spec.distinct) for spec in specs
        )
        # columnar fast path: group keys and aggregate arguments that are
        # all plain column refs (or COUNT(*)) fold directly over gathered
        # columns without pivoting rows
        group_slots = tuple(
            _simple_slot(expression) for expression in group_expressions
        )
        argument_slots = tuple(_simple_slot(spec.argument) for spec in specs)
        self._columnar_slots: tuple[tuple, tuple] | None = None
        if all(slot is not None for slot in group_slots) and all(
            slot is not None or spec.argument is None
            for slot, spec in zip(argument_slots, specs)
        ):
            self._columnar_slots = (group_slots, argument_slots)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self._child,)

    def _fold_rows(
        self, groups: dict, rows: list, context: "ExecutionContext"
    ) -> None:
        compiled_groups = self._compiled_groups
        compiled_arguments = self._compiled_arguments
        factories = self._factories
        get = groups.get
        for row in rows:
            key = tuple(
                expression(row, context)
                for expression in compiled_groups
            )
            accumulators = get(key)
            if accumulators is None:
                accumulators = groups[key] = [
                    factory() for factory in factories
                ]
            for argument, accumulator in zip(
                compiled_arguments, accumulators
            ):
                if argument is None:
                    accumulator.add(1)  # COUNT(*)
                else:
                    accumulator.add(argument(row, context))

    def _finish(self, groups: dict) -> list[tuple]:
        if not groups and not self._group_expressions:
            groups[()] = [factory() for factory in self._factories]
        return [
            key
            + tuple(accumulator.result() for accumulator in accumulators)
            for key, accumulators in groups.items()
        ]

    def rows_columnar(self, context: "ExecutionContext"):
        """Fold over gathered columns when every group key and aggregate
        argument is a plain column ref: a global aggregate sweeps each
        argument column in one tight loop, a grouped one zips the key
        columns into group keys beside the argument columns; computed
        keys or arguments pivot the batch and fold row by row."""
        groups: dict[tuple, list] = {}
        slots = self._columnar_slots
        factories = self._factories
        get = groups.get
        for batch in self._child.rows_columnar(context):
            if slots is None:
                self._fold_rows(groups, batch.to_rows(), context)
                continue
            group_slots, argument_slots = slots
            argument_columns = [  # COUNT(*) is fed a column of 1s
                [1] * batch.row_count if slot is None else batch.column(slot)
                for slot in argument_slots
            ]
            if not group_slots:
                accumulators = get(())
                if accumulators is None:
                    accumulators = groups[()] = [
                        factory() for factory in factories
                    ]
                for column, accumulator in zip(
                    argument_columns, accumulators
                ):
                    add = accumulator.add
                    for value in column:
                        add(value)
                continue
            keys = zip(*[batch.column(slot) for slot in group_slots])
            for key, *values in zip(keys, *argument_columns):
                accumulators = get(key)
                if accumulators is None:
                    accumulators = groups[key] = [
                        factory() for factory in factories
                    ]
                for accumulator, value in zip(accumulators, values):
                    accumulator.add(value)
        yield from row_batches(self._finish(groups), context.batch_size)

    def describe(self) -> str:
        return (
            f"HashAggregate(groups={len(self._group_expressions)}, "
            f"aggs={len(self._specs)})"
        )
