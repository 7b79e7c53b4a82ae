"""Mini-RasQL: the query-language subset the paper's system exposes.

Supported statements::

    SELECT c[32:59, *:*, 28:35] FROM cubes AS c
    SELECT c[182, *:*, *:*]     FROM cubes AS c      -- section (dim drop)
    SELECT add_cells(c[*:*, 28:42, *:*]) FROM cubes AS c
    SELECT (c[0:9,0:9] + 100) * 2 FROM imgs AS c     -- induced operations
    SELECT c[0:9,0:9] > 128 FROM imgs AS c           -- induced comparison
    SELECT add_cells(c) / count_cells(c) FROM cubes AS c
    SELECT c FROM cubes AS c                          -- whole objects
    SELECT avg_cells(c) FROM cubes AS c WHERE max_cells(c) > 0
    SELECT c FROM imgs AS c WHERE c > 128             -- cell-level mask
    SELECT count_cells(c) FROM cubes AS c WHERE c >= 900
    SELECT add_cells(c) FROM cubes AS c GROUP BY dim0(1:31, 32:59)
    SELECT add_cells(c) FROM cubes AS c WHERE c > 900
        GROUP BY dim0(1:365, 366:730), dim2(1:50, 51:100)

Grammar (case-insensitive keywords)::

    query      := SELECT expr FROM ident (AS ident)?
                  (WHERE expr)? (GROUP BY grouping (',' grouping)*)?
    grouping   := DIMNAME '(' span (',' span)* ')'    DIMNAME: dim<k>
    span       := ('-')? INT ':' ('-')? INT           -- closed interval
    expr       := additive (RELOP additive)?          RELOP: < <= > >= = !=
    additive   := term (('+'|'-') term)*
    term       := factor (('*'|'/') factor)*
    factor     := NUMBER | agg | trimmed | '(' expr ')' | '-' factor
    agg        := AGGNAME '(' expr ')'
    trimmed    := ident ('[' axis (',' axis)* ']')?
    axis       := bound ':' bound | INT               -- INT alone slices
    bound      := ('-')? INT | '*'

Induced operations apply cell-wise with numpy broadcasting; aggregates
(*condensers*) reduce arrays to scalars and may appear inside arithmetic.
A query runs once per object in the FROM collection, yielding one
:class:`~repro.query.result.QueryResult` each — mirroring RasQL's
set-oriented semantics.

A WHERE clause comparing the bare alias against a constant (``WHERE c >
128``, ``WHERE 5 <= c``) is a **cell-level predicate**, not an object
filter: cells failing it read as the base type's default value, and the
zone-map pruner skips tiles that provably hold no matching cell.  Any
other WHERE expression keeps the collection-filtering semantics — it
must reduce to a scalar per object (``WHERE max_cells(c) > 0``).
Condensers over a plain trim (``add_cells(c[...])``) route through the
engine's planned aggregation-pushdown path and may decode zero tiles.

``GROUP BY dim<k>(lo:hi, ...)`` turns a single condenser over the alias
(or a trim of it) into an OLAP roll-up: one aggregate per cell of the
interval cross product, each computed through the same pushdown path;
axes not named form one group spanning the query region.  The result is
a float64 array shaped by the interval counts, with the spans recorded
on ``QueryResult.groups``.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.core.errors import QueryError, RasQLSyntaxError
from repro.core.geometry import MInterval
from repro.index.zonemap import CellPredicate
from repro.query.engine import AGGREGATES, QueryEngine
from repro.query.result import QueryResult
from repro.query.timing import QueryTiming

if TYPE_CHECKING:  # annotation-only import (avoids a cycle with storage)
    from repro.storage.tilestore import StoredMDD

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d+|\d+)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<sym><=|>=|!=|[\[\]():,*+\-/<>=]))"
)

_KEYWORDS = {"select", "from", "as", "where", "group", "by"}

_DIM_RE = re.compile(r"^dim(\d+)$", re.IGNORECASE)

_RELOPS = {"<", "<=", ">", ">=", "=", "!="}


@dataclass(frozen=True)
class Token:
    kind: str  # 'int' | 'float' | 'name' | 'sym' | 'kw' | 'end'
    text: str
    position: int


def tokenize(text: str) -> list[Token]:
    """Split a statement into tokens (trailing ``end`` sentinel included)."""
    tokens: list[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            if text[position:].strip() == "":
                break
            raise RasQLSyntaxError(
                f"unexpected character {text[position]!r} at {position}"
            )
        position = match.end()
        if match.lastgroup == "number":
            literal = match.group("number")
            kind = "float" if "." in literal else "int"
            tokens.append(Token(kind, literal, match.start()))
        elif match.lastgroup == "name":
            word = match.group("name")
            kind = "kw" if word.lower() in _KEYWORDS else "name"
            tokens.append(Token(kind, word, match.start()))
        else:
            tokens.append(Token("sym", match.group("sym"), match.start()))
    tokens.append(Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

AxisSpec = Union[tuple[Optional[int], Optional[int]], int]


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Trim:
    var: Var
    axes: tuple[AxisSpec, ...]


@dataclass(frozen=True)
class Num:
    value: Union[int, float]


@dataclass(frozen=True)
class Agg:
    op: str
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


Expr = Union[Var, Trim, Num, Agg, "BinOp", "Neg"]


@dataclass(frozen=True)
class Select:
    expr: Expr
    collection: str
    alias: Optional[str]
    where: Optional[Expr] = None
    #: ``GROUP BY`` clause: axis index -> closed coordinate spans.
    group_by: Optional[tuple[tuple[int, tuple[tuple[int, int], ...]], ...]] = (
        None
    )


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at_sym(self, *texts: str) -> bool:
        token = self.peek()
        return token.kind == "sym" and token.text in texts

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.advance()
        if token.kind != kind or (text is not None and token.text.lower() != text):
            wanted = text or kind
            raise RasQLSyntaxError(
                f"expected {wanted!r} at position {token.position}, "
                f"got {token.text!r}"
            )
        return token

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Select:
        self.expect("kw", "select")
        expr = self.parse_expr()
        self.expect("kw", "from")
        collection = self.expect("name").text
        alias: Optional[str] = None
        if self.peek().kind == "kw" and self.peek().text.lower() == "as":
            self.advance()
            alias = self.expect("name").text
        where: Optional[Expr] = None
        if self.peek().kind == "kw" and self.peek().text.lower() == "where":
            self.advance()
            where = self.parse_expr()
        group_by = None
        if self.peek().kind == "kw" and self.peek().text.lower() == "group":
            self.advance()
            self.expect("kw", "by")
            group_by = self.parse_group_by()
        self.expect("end")
        return Select(expr, collection, alias, where, group_by)

    def parse_group_by(
        self,
    ) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        groupings: list[tuple[int, tuple[tuple[int, int], ...]]] = []
        seen: set[int] = set()
        while True:
            token = self.expect("name")
            match = _DIM_RE.match(token.text)
            if match is None:
                raise RasQLSyntaxError(
                    f"GROUP BY expects an axis named dim<k>, got "
                    f"{token.text!r} at position {token.position}"
                )
            axis = int(match.group(1))
            if axis in seen:
                raise RasQLSyntaxError(
                    f"axis dim{axis} grouped twice "
                    f"(position {token.position})"
                )
            seen.add(axis)
            self.expect("sym", "(")
            spans = [self.parse_span()]
            while self.at_sym(","):
                self.advance()
                spans.append(self.parse_span())
            self.expect("sym", ")")
            groupings.append((axis, tuple(spans)))
            if not self.at_sym(","):
                break
            self.advance()
        return tuple(groupings)

    def parse_span(self) -> tuple[int, int]:
        token = self.peek()
        low = self.parse_bound()
        if low is None:
            raise RasQLSyntaxError(
                f"GROUP BY spans need explicit bounds, got '*' at "
                f"position {token.position}"
            )
        self.expect("sym", ":")
        token = self.peek()
        high = self.parse_bound()
        if high is None:
            raise RasQLSyntaxError(
                f"GROUP BY spans need explicit bounds, got '*' at "
                f"position {token.position}"
            )
        return (low, high)

    def parse_expr(self) -> Expr:
        left = self.parse_additive()
        if self.at_sym(*_RELOPS):
            op = self.advance().text
            right = self.parse_additive()
            return BinOp(op, left, right)
        return left

    def parse_additive(self) -> Expr:
        node = self.parse_term()
        while self.at_sym("+", "-"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.at_sym("*", "/"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        token = self.peek()
        if token.kind in ("int", "float"):
            self.advance()
            value = float(token.text) if token.kind == "float" else int(token.text)
            return Num(value)
        if self.at_sym("-"):
            self.advance()
            return Neg(self.parse_factor())
        if self.at_sym("("):
            self.advance()
            inner = self.parse_expr()
            self.expect("sym", ")")
            return inner
        if token.kind == "name" and token.text.lower() in AGGREGATES:
            op = self.advance().text.lower()
            self.expect("sym", "(")
            operand = self.parse_expr()
            self.expect("sym", ")")
            return Agg(op, operand)
        return self.parse_trimmed()

    def parse_trimmed(self) -> Union[Var, Trim]:
        var = Var(self.expect("name").text)
        if not self.at_sym("["):
            return var
        self.advance()
        axes: list[AxisSpec] = [self.parse_axis()]
        while self.at_sym(","):
            self.advance()
            axes.append(self.parse_axis())
        self.expect("sym", "]")
        return Trim(var, tuple(axes))

    def parse_axis(self) -> AxisSpec:
        low = self.parse_bound()
        if self.at_sym(":"):
            self.advance()
            high = self.parse_bound()
            return (low, high)
        if low is None:
            raise RasQLSyntaxError(
                f"a bare '*' is not a slice coordinate "
                f"(position {self.peek().position})"
            )
        return low  # slice: single coordinate, drops the axis

    def parse_bound(self) -> Optional[int]:
        token = self.peek()
        if self.at_sym("*"):
            self.advance()
            return None
        negative = False
        if self.at_sym("-"):
            self.advance()
            negative = True
            token = self.peek()
        if token.kind == "int":
            self.advance()
            value = int(token.text)
            return -value if negative else value
        raise RasQLSyntaxError(
            f"expected integer or '*' at position {token.position}, "
            f"got {token.text!r}"
        )


def parse(statement: str) -> Select:
    """Parse one RasQL statement into its AST."""
    return _Parser(tokenize(statement)).parse()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_NUMPY_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "=": np.equal,
    "!=": np.not_equal,
}


def _trim_region_and_slices(
    trim: Trim, obj: "StoredMDD"
) -> tuple[MInterval, tuple[int, ...]]:
    """Translate trim axes into a query region plus axes to squeeze."""
    if len(trim.axes) != obj.dim:
        raise RasQLSyntaxError(
            f"{len(trim.axes)} axis specs for {obj.dim}-d object {obj.name!r}"
        )
    lo: list[Optional[int]] = []
    hi: list[Optional[int]] = []
    sliced: list[int] = []
    for axis, spec in enumerate(trim.axes):
        if isinstance(spec, int):
            lo.append(spec)
            hi.append(spec)
            sliced.append(axis)
        else:
            lo.append(spec[0])
            hi.append(spec[1])
    return MInterval(lo, hi), tuple(sliced)


#: Mirror image of each relop, for normalising ``128 < c`` to ``c > 128``.
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def _cell_predicate(
    where: Optional[Expr], select: Select
) -> Optional[CellPredicate]:
    """Recognise a WHERE clause that is a cell-level predicate.

    The shape is ``alias RELOP constant`` (either operand order); the
    variable must be the bare query alias — anything else (condensers,
    arithmetic, trims) keeps the scalar object-filter semantics.
    """
    if not isinstance(where, BinOp) or where.op not in _RELOPS:
        return None

    def constant(node: Expr) -> Optional[Union[int, float]]:
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Neg) and isinstance(node.operand, Num):
            return -node.operand.value
        return None

    left_const = constant(where.left)
    right_const = constant(where.right)
    if isinstance(where.left, Var) and right_const is not None:
        name, op, value = where.left.name, where.op, right_const
    elif isinstance(where.right, Var) and left_const is not None:
        name, op, value = where.right.name, _FLIP[where.op], left_const
    else:
        return None
    expected = select.alias if select.alias is not None else select.collection
    if name != expected:
        return None
    return CellPredicate(op, value)


class _Evaluator:
    """Evaluates one Select AST against one stored MDD object.

    ``predicate`` (a recognised cell-level WHERE) masks every leaf read
    and rides into condenser queries, so pruning and short-circuiting
    happen inside the storage layer.
    """

    def __init__(
        self,
        engine: QueryEngine,
        select: Select,
        obj: "StoredMDD",
        predicate: Optional[CellPredicate] = None,
    ) -> None:
        self.engine = engine
        self.select = select
        self.obj = obj
        self.predicate = predicate
        #: Annotated plan of the top-level condenser, when the statement
        #: is a planned aggregate (set during eval, surfaced by run()).
        self.plan = None

    def _check_alias(self, var: Var) -> None:
        select = self.select
        if select.alias is not None and var.name != select.alias:
            raise RasQLSyntaxError(
                f"unknown variable {var.name!r} (alias is {select.alias!r})"
            )
        if select.alias is None and var.name != select.collection:
            raise RasQLSyntaxError(
                f"unknown variable {var.name!r} (no AS alias declared; "
                f"use the collection name {select.collection!r})"
            )

    def run(self) -> QueryResult:
        if self.select.group_by is not None:
            return self._run_grouped()
        value, timing = self.eval(self.select.expr)
        region = None
        if isinstance(self.select.expr, (Var, Trim)):
            # Pure region reads keep their resolved region on the result.
            if isinstance(self.select.expr, Var):
                region = self.obj.current_domain
            else:
                trim_region, sliced = _trim_region_and_slices(
                    self.select.expr, self.obj
                )
                if not sliced:
                    region = self.obj.resolve_region(trim_region)
        return QueryResult(
            value=value,
            timing=timing,
            region=region,
            object_name=self.obj.name,
            plan=self.plan,
        )

    def _run_grouped(self) -> QueryResult:
        """A GROUP BY statement: a roll-up through the planned engine."""
        select = self.select
        expr = select.expr
        if not isinstance(expr, Agg) or not isinstance(
            expr.operand, (Var, Trim)
        ):
            raise RasQLSyntaxError(
                "GROUP BY requires a single condenser over the array, "
                "e.g. SELECT add_cells(c) FROM cubes AS c GROUP BY "
                "dim0(1:31, 32:59)"
            )
        var = (
            expr.operand
            if isinstance(expr.operand, Var)
            else expr.operand.var
        )
        self._check_alias(var)
        if isinstance(expr.operand, Var):
            if self.obj.current_domain is None:
                raise QueryError(
                    f"object {self.obj.name!r} holds no tiles yet"
                )
            region = self.obj.current_domain
        else:
            region, _sliced = _trim_region_and_slices(expr.operand, self.obj)
        assert select.group_by is not None
        group_spec = {axis: list(spans) for axis, spans in select.group_by}
        return self.engine.group_by_query(
            self.obj,
            region,
            expr.op,
            group_spec,
            predicate=self.predicate,
        )

    def eval(self, node: Expr) -> tuple[object, QueryTiming]:
        if isinstance(node, Num):
            return node.value, QueryTiming()
        if isinstance(node, Var):
            self._check_alias(node)
            if self.predicate is not None:
                if self.obj.current_domain is None:
                    raise QueryError(
                        f"object {self.obj.name!r} holds no tiles yet"
                    )
                result = self.engine.filtered_range_query(
                    self.obj, self.obj.current_domain, self.predicate
                )
            else:
                result = self.engine.whole_object(self.obj)
            return result.value, result.timing
        if isinstance(node, Trim):
            return self._eval_trim(node)
        if isinstance(node, Agg):
            return self._eval_agg(node)
        if isinstance(node, Neg):
            value, timing = self.eval(node.operand)
            started = time.perf_counter()
            if isinstance(value, np.ndarray):
                if value.dtype.kind == "u":  # avoid unsigned wraparound
                    value = value.astype(np.int64)
                negated: object = -value
            else:
                negated = -value
            timing.t_cpu += (time.perf_counter() - started) * 1000.0
            return negated, timing
        if isinstance(node, BinOp):
            return self._eval_binop(node)
        raise RasQLSyntaxError(f"cannot evaluate node {node!r}")

    def _eval_trim(self, trim: Trim) -> tuple[object, QueryTiming]:
        self._check_alias(trim.var)
        region, sliced = _trim_region_and_slices(trim, self.obj)
        if self.predicate is not None:
            result = self.engine.filtered_range_query(
                self.obj, region, self.predicate
            )
        else:
            result = self.engine.range_query(self.obj, region)
        data = result.array
        for axis in sorted(sliced, reverse=True):
            data = np.squeeze(data, axis=axis)
        return data, result.timing

    def _eval_agg(self, agg: Agg) -> tuple[object, QueryTiming]:
        # A condenser over a plain variable or trim goes straight to the
        # engine: zone-map synopses can then answer fully-covered tiles
        # with zero decode (squeezed axes cannot change a reduction over
        # all cells, so the trim's region stands in for the operand).
        if isinstance(agg.operand, (Var, Trim)):
            var = (
                agg.operand
                if isinstance(agg.operand, Var)
                else agg.operand.var
            )
            self._check_alias(var)
            if self.obj.mdd_type.base.dtype.fields is not None:
                raise QueryError(
                    f"condenser {agg.op!r} needs a numeric base type, "
                    f"object {self.obj.name!r} has "
                    f"{self.obj.mdd_type.base.name!r}"
                )
            if isinstance(agg.operand, Var):
                if self.obj.current_domain is None:
                    raise QueryError(
                        f"object {self.obj.name!r} holds no tiles yet"
                    )
                region = self.obj.current_domain
            else:
                region, _sliced = _trim_region_and_slices(
                    agg.operand, self.obj
                )
            result = self.engine.aggregate_query(
                self.obj, region, agg.op, predicate=self.predicate
            )
            if agg is self.select.expr:
                self.plan = result.plan
            return result.value, result.timing
        value, timing = self.eval(agg.operand)
        if not isinstance(value, np.ndarray):
            raise QueryError(
                f"condenser {agg.op!r} needs an array operand, got a scalar"
            )
        if value.dtype.fields is not None:
            raise QueryError(
                f"condenser {agg.op!r} needs a numeric base type, object "
                f"{self.obj.name!r} has {self.obj.mdd_type.base.name!r}"
            )
        started = time.perf_counter()
        scalar = AGGREGATES[agg.op](value)
        timing.t_cpu += (time.perf_counter() - started) * 1000.0
        return scalar, timing

    def _eval_binop(self, binop: BinOp) -> tuple[object, QueryTiming]:
        left, left_timing = self.eval(binop.left)
        right, right_timing = self.eval(binop.right)
        timing = left_timing.add(right_timing)
        left_arr = np.asarray(left)
        right_arr = np.asarray(right)
        if (
            left_arr.ndim > 0
            and right_arr.ndim > 0
            and left_arr.shape != right_arr.shape
        ):
            raise QueryError(
                f"induced {binop.op!r} on mismatched shapes "
                f"{left_arr.shape} and {right_arr.shape}"
            )
        for side in (left_arr, right_arr):
            if side.dtype.fields is not None:
                raise QueryError(
                    f"induced {binop.op!r} is not defined on struct cells"
                )
        started = time.perf_counter()
        with np.errstate(divide="ignore", invalid="ignore"):
            value = _NUMPY_OPS[binop.op](left_arr, right_arr)
        timing.t_cpu += (time.perf_counter() - started) * 1000.0
        if value.ndim == 0:
            return value.item(), timing
        return value, timing


def execute(engine: QueryEngine, statement: str) -> list[QueryResult]:
    """Run a RasQL statement: one result per qualifying object.

    A WHERE clause of the shape ``alias RELOP constant`` is a cell-level
    predicate: every object still yields a result, with non-matching
    cells defaulted and provably-irrelevant tiles pruned.  Any other
    WHERE clause is evaluated per object and must come out as a scalar;
    only objects with a truthy condition produce a result (RasQL's
    collection-filtering semantics).  The condition's cost is charged to
    the surviving results' timings.
    """
    select = parse(statement)
    cell_pred = _cell_predicate(select.where, select)
    results: list[QueryResult] = []
    for obj in engine.database.objects(select.collection):
        evaluator = _Evaluator(engine, select, obj, predicate=cell_pred)
        where_timing: Optional[QueryTiming] = None
        if select.where is not None and cell_pred is None:
            condition, where_timing = evaluator.eval(select.where)
            if isinstance(condition, np.ndarray):
                raise QueryError(
                    "WHERE condition must reduce to a scalar; wrap the "
                    "array in a condenser such as count_cells(...)"
                )
            if not condition:
                continue
        result = evaluator.run()
        if where_timing is not None:
            # A new record: the plan still renders the query's own.
            result.timing = replace(result.timing).add(where_timing)
        results.append(result)
    return results
