"""Physical plan operators with vectorized and single-point cost.

Every node answers ``evaluate(x)`` where ``x`` is an ``(n, r)``
array of selectivity points; it returns ``(rows, cost)`` as ``(n,)``
arrays.  Evaluating a whole batch of plan-space points at once is what
makes the :class:`~repro.optimizer.plan_space.PlanSpace` oracle fast
enough to label the tens of thousands of points the experiments need.

Beside it, ``point(x, *inputs)`` is the same formula at one point on
Python floats: ``x`` is a sequence of ``r`` selectivities and
``inputs`` are the ``(rows, cost)`` pairs of the node's
:attr:`~PlanNode.children`; ``evaluate_point(x)`` recurses through the
subtree.  One point through numpy's array machinery costs over ten
microseconds per node; on floats it costs about one, which is why the
DP enumerator and the single-point oracle queries run on this form.  The point
form repeats the array form's operations in the same order and calls
numpy's ufuncs for ``exp``/``log2`` (``math.exp`` rounds differently on
a few percent of inputs), so both forms agree bit for bit.  Where the
formula is plain arithmetic, the array form *is* the point form run on
columns; only the scans, ``Sort`` and ``HashJoin`` write it twice.

Nodes are constructed with all catalog quantities (row counts, page
counts, join selectivities) already resolved to plain numbers, so the
operator layer has no dependency on the catalog — mirroring how a real
executor receives a fully bound plan.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.optimizer.cost_model import CostModel

RowsCost = tuple[np.ndarray, np.ndarray]
#: ``(rows, cost)`` at one point.
Point = tuple[float, float]


def _selectivity_product(x: np.ndarray, param_indexes: tuple[int, ...]) -> np.ndarray:
    """Combined selectivity of the predicates at ``param_indexes``."""
    if not param_indexes:
        return np.ones(x.shape[0])
    product = np.ones(x.shape[0])
    for index in param_indexes:
        product = product * x[:, index]
    return product


def _point_product(x: Sequence[float], param_indexes: tuple[int, ...]) -> float:
    """:func:`_selectivity_product` at one point, in the same order."""
    product = 1.0
    for index in param_indexes:
        product = product * x[index]
    return product


class PlanNode(ABC):
    """Base class of all physical operators."""

    #: Tables contributing rows to this subtree.
    tables: frozenset[str]
    #: Column the output is sorted on (as ``"table.column"``), or None.
    sort_order: "str | None" = None
    #: Subtrees whose ``(rows, cost)`` feed :meth:`point`, in order.
    children: "tuple[PlanNode, ...]" = ()

    def evaluate(self, x: np.ndarray) -> RowsCost:
        """Output cardinality and cumulative cost at each point of ``x``.

        By default :meth:`point` run on the columns of ``x``: plain
        arithmetic performs the same operations on arrays as on floats.
        Operators whose formula branches, clamps or calls ``exp`` and
        ``log2`` override this with the array form.
        """
        x = _as_points(x)
        return self.point(list(x.T), *[child.evaluate(x) for child in self.children])

    @abstractmethod
    def point(self, x: Sequence[float], *inputs: Point) -> Point:
        """This operator's ``(rows, cost)`` at one point, given its
        children's results; bit-identical to one row of :meth:`evaluate`."""

    def evaluate_point(self, x: Sequence[float]) -> Point:
        """:meth:`point` over the whole subtree."""
        return self.point(x, *[child.evaluate_point(x) for child in self.children])

    @abstractmethod
    def fingerprint(self) -> str:
        """Structural identity of the plan; equal plans compare equal."""

    def describe(self, indent: int = 0) -> str:
        """Readable multi-line plan rendering."""
        return " " * indent + self.fingerprint()


def _as_points(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    return x


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------
class SeqScan(PlanNode):
    """Full sequential scan with all local predicates applied as filters."""

    def __init__(
        self,
        table: str,
        base_rows: float,
        pages: float,
        param_indexes: tuple[int, ...],
        model: CostModel,
    ) -> None:
        self.table = table
        self.base_rows = float(base_rows)
        self.pages = float(pages)
        self.param_indexes = tuple(param_indexes)
        self.model = model
        self.tables = frozenset((table,))
        self.sort_order = None

    def evaluate(self, x: np.ndarray) -> RowsCost:
        x = _as_points(x)
        rows = self.base_rows * _selectivity_product(x, self.param_indexes)
        cost = np.full(
            x.shape[0],
            self.pages * self.model.seq_page_cost
            + self.base_rows * self.model.cpu_tuple_cost,
        )
        return rows, cost

    def point(self, x: Sequence[float], *inputs: Point) -> Point:
        rows = self.base_rows * _point_product(x, self.param_indexes)
        cost = (
            self.pages * self.model.seq_page_cost
            + self.base_rows * self.model.cpu_tuple_cost
        )
        return rows, cost

    def fingerprint(self) -> str:
        return f"SeqScan({self.table})"


class IndexScan(PlanNode):
    """Index range scan driven by one sargable parameterized predicate.

    The sargable predicate's selectivity decides how many index entries
    (and, for an unclustered index, how many random page fetches) the
    scan performs; the remaining local predicates are residual filters.
    """

    def __init__(
        self,
        table: str,
        index_name: str,
        sarg_param: int,
        base_rows: float,
        pages: float,
        residual_params: tuple[int, ...],
        clustered: bool,
        model: CostModel,
    ) -> None:
        if sarg_param in residual_params:
            raise ConfigurationError("sargable predicate repeated as residual")
        self.table = table
        self.index_name = index_name
        self.sarg_param = sarg_param
        self.base_rows = float(base_rows)
        self.pages = float(pages)
        self.residual_params = tuple(residual_params)
        self.clustered = clustered
        self.model = model
        self.tables = frozenset((table,))
        self.sort_order = None  # set by the builder to the indexed column

    def evaluate(self, x: np.ndarray) -> RowsCost:
        x = _as_points(x)
        sarg_sel = x[:, self.sarg_param]
        fetched = self.base_rows * sarg_sel
        if self.clustered:
            io_cost = self.pages * sarg_sel * self.model.seq_page_cost
        else:
            # Mackert-Lohman estimate of distinct pages touched by
            # `fetched` random row accesses; saturates at the table's
            # page count instead of growing without bound.
            pages_touched = self.pages * (1.0 - np.exp(-fetched / self.pages))
            io_cost = pages_touched * self.model.random_page_cost
        cost = self.model.index_probe_cost + io_cost + fetched * self.model.cpu_tuple_cost
        rows = fetched * _selectivity_product(x, self.residual_params)
        return rows, cost

    def point(self, x: Sequence[float], *inputs: Point) -> Point:
        sarg_sel = x[self.sarg_param]
        fetched = self.base_rows * sarg_sel
        if self.clustered:
            io_cost = self.pages * sarg_sel * self.model.seq_page_cost
        else:
            pages_touched = self.pages * (1.0 - float(np.exp(-fetched / self.pages)))
            io_cost = pages_touched * self.model.random_page_cost
        cost = self.model.index_probe_cost + io_cost + fetched * self.model.cpu_tuple_cost
        rows = fetched * _point_product(x, self.residual_params)
        return rows, cost

    def fingerprint(self) -> str:
        return f"IndexScan({self.table}.{self.index_name})"


# ----------------------------------------------------------------------
# Sort
# ----------------------------------------------------------------------
class Sort(PlanNode):
    """Explicit sort enforcing an order for a merge join."""

    def __init__(self, child: PlanNode, order: str, model: CostModel) -> None:
        self.child = child
        self.order = order
        self.model = model
        self.tables = child.tables
        self.sort_order = order
        self.children = (child,)

    def evaluate(self, x: np.ndarray) -> RowsCost:
        rows, cost = self.child.evaluate(_as_points(x))
        safe_rows = np.maximum(rows, 2.0)
        sort_cost = self.model.sort_cost_factor * rows * np.log2(safe_rows)
        return rows, cost + sort_cost

    def point(self, x: Sequence[float], *inputs: Point) -> Point:
        rows, cost = inputs[0]
        safe_rows = max(rows, 2.0)
        sort_cost = self.model.sort_cost_factor * rows * float(np.log2(safe_rows))
        return rows, cost + sort_cost

    def fingerprint(self) -> str:
        return f"Sort[{self.order}]({self.child.fingerprint()})"

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return f"{pad}Sort on {self.order}\n{self.child.describe(indent + 2)}"


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
class _Join(PlanNode):
    """Shared bookkeeping for binary joins."""

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        join_selectivity: float,
        model: CostModel,
    ) -> None:
        if outer.tables & inner.tables:
            raise ConfigurationError("join sides overlap")
        if not 0.0 < join_selectivity <= 1.0:
            raise ConfigurationError("join selectivity must be in (0, 1]")
        self.outer = outer
        self.inner = inner
        self.join_selectivity = float(join_selectivity)
        self.model = model
        self.tables = outer.tables | inner.tables
        self.sort_order = None
        self.children = (outer, inner)

    def _output_rows(self, outer_rows, inner_rows):
        """Join cardinality; works on arrays and on floats alike."""
        return outer_rows * inner_rows * self.join_selectivity

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return (
            f"{pad}{type(self).__name__} (sel={self.join_selectivity:.2e})\n"
            f"{self.outer.describe(indent + 2)}\n"
            f"{self.inner.describe(indent + 2)}"
        )


class NestedLoopJoin(_Join):
    """In-memory nested loops over a materialized inner.

    Cost is quadratic in input cardinalities; wins only when both sides
    are tiny, producing the small optimality pockets near the plan-space
    origin.  Like any nested-loops join, it emits outer tuples in
    order, so the outer's sort order survives.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sort_order = self.outer.sort_order

    def point(self, x: Sequence[float], *inputs: Point) -> Point:
        (outer_rows, outer_cost), (inner_rows, inner_cost) = inputs
        compare_cost = outer_rows * inner_rows * self.model.cpu_compare_cost
        rows = self._output_rows(outer_rows, inner_rows)
        cost = outer_cost + inner_cost + compare_cost + rows * self.model.cpu_tuple_cost
        return rows, cost

    def fingerprint(self) -> str:
        return f"NLJ({self.outer.fingerprint()},{self.inner.fingerprint()})"


class IndexNLJoin(_Join):
    """Nested loops probing an index on the inner base table.

    The inner side must be a base-table access: each outer row performs
    one index probe fetching ``inner_base_rows * join_selectivity``
    matches, after which the inner table's local predicates filter the
    output.  Wins when the outer is small, independent of inner size.
    """

    def __init__(
        self,
        outer: PlanNode,
        inner_table: str,
        inner_index: str,
        inner_base_rows: float,
        inner_param_indexes: tuple[int, ...],
        join_selectivity: float,
        model: CostModel,
    ) -> None:
        inner = SeqScan(inner_table, inner_base_rows, 1.0, inner_param_indexes, model)
        super().__init__(outer, inner, join_selectivity, model)
        self.inner_table = inner_table
        self.inner_index = inner_index
        self.inner_base_rows = float(inner_base_rows)
        self.inner_param_indexes = tuple(inner_param_indexes)
        # Nested loops emit outer tuples in order.
        self.sort_order = outer.sort_order
        # The inner is probed through its index, never evaluated.
        self.children = (outer,)

    def point(self, x: Sequence[float], *inputs: Point) -> Point:
        outer_rows, outer_cost = inputs[0]
        matches_per_probe = self.inner_base_rows * self.join_selectivity
        probe_cost = (
            self.model.index_probe_cost
            + matches_per_probe * self.model.random_page_cost
        )
        residual = _point_product(x, self.inner_param_indexes)
        rows = outer_rows * matches_per_probe * residual
        cost = (
            outer_cost
            + outer_rows * probe_cost
            + rows * self.model.cpu_tuple_cost
        )
        return rows, cost

    def fingerprint(self) -> str:
        return (
            f"IdxNLJ({self.outer.fingerprint()},"
            f"{self.inner_table}.{self.inner_index})"
        )

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return (
            f"{pad}IndexNLJoin probe {self.inner_table}.{self.inner_index}\n"
            f"{self.outer.describe(indent + 2)}"
        )


class HashJoin(_Join):
    """Hash join building on the inner side, spilling past memory."""

    def evaluate(self, x: np.ndarray) -> RowsCost:
        x = _as_points(x)
        outer_rows, outer_cost = self.outer.evaluate(x)
        inner_rows, inner_cost = self.inner.evaluate(x)
        build = inner_rows * self.model.hash_build_cost
        probe = outer_rows * self.model.hash_probe_cost
        spill_penalty = np.where(
            inner_rows > self.model.hash_memory_rows,
            (outer_rows + inner_rows)
            * self.model.hash_spill_factor
            * self.model.cpu_tuple_cost,
            0.0,
        )
        rows = self._output_rows(outer_rows, inner_rows)
        cost = (
            outer_cost
            + inner_cost
            + build
            + probe
            + spill_penalty
            + rows * self.model.cpu_tuple_cost
        )
        return rows, cost

    def point(self, x: Sequence[float], *inputs: Point) -> Point:
        (outer_rows, outer_cost), (inner_rows, inner_cost) = inputs
        build = inner_rows * self.model.hash_build_cost
        probe = outer_rows * self.model.hash_probe_cost
        spill_penalty = (
            (outer_rows + inner_rows)
            * self.model.hash_spill_factor
            * self.model.cpu_tuple_cost
            if inner_rows > self.model.hash_memory_rows
            else 0.0
        )
        rows = self._output_rows(outer_rows, inner_rows)
        cost = (
            outer_cost
            + inner_cost
            + build
            + probe
            + spill_penalty
            + rows * self.model.cpu_tuple_cost
        )
        return rows, cost

    def fingerprint(self) -> str:
        return f"HJ({self.outer.fingerprint()},{self.inner.fingerprint()})"


class MergeJoin(_Join):
    """Merge join; both inputs must already carry the join order."""

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        join_selectivity: float,
        model: CostModel,
        order: str,
    ) -> None:
        super().__init__(outer, inner, join_selectivity, model)
        self.sort_order = order

    def point(self, x: Sequence[float], *inputs: Point) -> Point:
        (outer_rows, outer_cost), (inner_rows, inner_cost) = inputs
        merge = (outer_rows + inner_rows) * self.model.merge_cost_factor
        rows = self._output_rows(outer_rows, inner_rows)
        cost = outer_cost + inner_cost + merge + rows * self.model.cpu_tuple_cost
        return rows, cost

    def fingerprint(self) -> str:
        return f"MJ({self.outer.fingerprint()},{self.inner.fingerprint()})"
