"""Memory model and expression evaluation.

One single-cell memory per process.  Evaluation is total and deterministic:
applying an operator to mismatched kinds, or to the error value, yields the
error value instead of failing.
"""

from __future__ import annotations

from .errors import UnknownProcess
from .terms import ERR, BinOp, BoolV, Cell, IntV, Lit, Not, Term, Value, \
    term

_INT64_MASK = (1 << 64) - 1


def _wrap64(n: int) -> int:
    """Deterministic 64-bit two's-complement wraparound."""
    n &= _INT64_MASK
    return n - (1 << 64) if n >= (1 << 63) else n


@term
class GlobalState(Term):
    """Total finite map from process names to memory values."""

    cells: tuple  # tuple[(name, Value), ...], sorted by name

    @staticmethod
    def of(mapping) -> "GlobalState":
        return GlobalState(tuple(sorted(mapping.items())))

    @staticmethod
    def uniform(names, value: Value = IntV(0)) -> "GlobalState":
        return GlobalState.of({name: value for name in names})

    def as_dict(self) -> dict:
        return dict(self.cells)

    def get(self, p: str) -> Value:
        for name, v in self.cells:
            if name == p:
                return v
        raise UnknownProcess(p)

    def update(self, p: str, v: Value) -> "GlobalState":
        cells = self.cells
        for i, (name, _) in enumerate(cells):
            if name == p:
                return GlobalState((*cells[:i], (p, v), *cells[i + 1:]))
        raise UnknownProcess(p)


def eval_expr(e, sigma: GlobalState, p: str) -> Value:
    """Evaluate ``e`` at process ``p``; ``@`` reads ``p``'s own cell."""
    return eval_with_cell(e, sigma.get(p))


def eval_with_cell(e, cell: Value) -> Value:
    kind = type(e)
    if kind is BinOp:
        return _apply(e.op, eval_with_cell(e.left, cell),
                      eval_with_cell(e.right, cell))
    if kind is Cell:
        return cell
    if kind is Lit:
        return e.value
    if kind is Not:
        v = eval_with_cell(e.arg, cell)
        return BoolV(not v.b) if type(v) is BoolV else ERR
    raise TypeError(f"not an expression: {e!r}")


def _apply(op: str, lv: Value, rv: Value) -> Value:
    if op in ("+", "-", "*"):
        if isinstance(lv, IntV) and isinstance(rv, IntV):
            if op == "+":
                return IntV(_wrap64(lv.n + rv.n))
            if op == "-":
                return IntV(_wrap64(lv.n - rv.n))
            return IntV(_wrap64(lv.n * rv.n))
        return ERR
    if op == "<":
        if isinstance(lv, IntV) and isinstance(rv, IntV):
            return BoolV(lv.n < rv.n)
        return ERR
    if op == "=":
        if isinstance(lv, IntV) and isinstance(rv, IntV):
            return BoolV(lv.n == rv.n)
        if isinstance(lv, BoolV) and isinstance(rv, BoolV):
            return BoolV(lv.b == rv.b)
        return ERR
    if op in ("and", "or"):
        if isinstance(lv, BoolV) and isinstance(rv, BoolV):
            return BoolV(lv.b and rv.b) if op == "and" else BoolV(lv.b or rv.b)
        return ERR
    raise ValueError(f"unknown operator {op!r}")
