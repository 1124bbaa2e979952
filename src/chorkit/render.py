"""Pretty-printing back to concrete syntax.

``parse(render(t))`` is structurally equal to ``t`` for every well-formed
AST; subexpressions are parenthesized whenever nesting could rebind.  One
iterative walk renders every kind of term, once or, with a memo kept
across related terms such as the steps of a trace, at a cost that follows
what changed between them.
"""

from __future__ import annotations

from itertools import accumulate

from .terms import (
    BCall,
    BCond,
    BDef,
    BinOp,
    BoolV,
    BRecv,
    BSend,
    BNil,
    Call,
    Cell,
    Com,
    Cond,
    Def,
    ErrV,
    IntV,
    Lit,
    Network,
    Nil,
    Not,
    Process,
    RtRecv,
    RtSend,
    Tag,
)

_PREC = {"or": 1, "and": 2, "=": 3, "<": 3, "+": 4, "-": 4, "*": 5}


def render_value(v) -> str:
    if isinstance(v, IntV):
        return str(v.n)
    if isinstance(v, BoolV):
        return "true" if v.b else "false"
    if isinstance(v, ErrV):
        return "err"
    raise TypeError(f"not a value: {v!r}")


def render_expr(e, parent_prec: int = 0) -> str:
    if isinstance(e, Lit):
        return render_value(e.value)
    if isinstance(e, Cell):
        return "@"
    if isinstance(e, Not):
        return f"not {render_expr(e.arg, 6)}"
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        text = (f"{render_expr(e.left, prec)} {e.op} "
                f"{render_expr(e.right, prec + 1)}")
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"not an expression: {e!r}")


def _render_payload(payload) -> str:
    if isinstance(payload, Tag):
        return f"#{payload.id}"
    return render_value(payload)


def _memo_expr(memo):
    """:func:`render_expr` that renders each expression object once, for
    the lifetime of ``memo``."""
    def expr(e, parent_prec=0):
        text = memo.get(id(e))
        if text is None:
            text = memo[id(e)] = render_expr(e)
        if type(e) is BinOp and _PREC[e.op] < parent_prec:
            return f"({text})"
        return text
    return expr


def render(term, memo=None, prefix: str = "") -> str:
    """Render any choreography, behaviour, process or network term.

    The walk keeps its pending text and subterms on a stack and loops along
    each node's continuation, so terms of any length render without
    recursion.  ``memo``, a dict the caller keeps across calls, makes the
    cost follow what changed between related terms.  It maps the id of
    every node rendered so far to its text's place in the first rendered
    text that contained it, so a node seen again costs one slice.  Ids stay
    valid only while the caller keeps every term it passed alive.  Each
    entry is a position, not a string, so the memo grows with the number of
    nodes, not with the summed length of their texts.  Expressions are
    kept as their text, which has no continuation; values are rendered
    afresh, as their text costs no more than a lookup.  ``prefix`` is put
    before the term's text, so that a caller's line can be the text the
    memo points into.
    """
    out, stack = [prefix], [term]
    fresh = None if memo is None else []  # [node id, first, end piece]
    expr = render_expr if memo is None else _memo_expr(memo)
    while stack:
        t = stack.pop()
        while True:
            kind = type(t)
            if kind is str:
                out.append(t)
                break
            if memo is not None:
                if kind is int:  # the end of the fresh node numbered t
                    fresh[t][2] = len(out)
                    break
                seen = memo.get(id(t))
                if seen is not None:
                    text, start, end = seen
                    out.append(text[start:end])
                    break
                stack.append(len(fresh))
                fresh.append([id(t), len(out), None])
            if kind is Com:
                out.append(f"{t.src}.{expr(t.expr, 6)} -> {t.dst}; ")
            elif kind is BSend:
                out.append(f"{t.dst}!{expr(t.expr, 6)}; ")
            elif kind is BRecv:
                out.append(f"{t.src}?; ")
            elif kind is Nil or kind is BNil:
                out.append("0")
                break
            elif kind is Call or kind is BCall:
                out.append(t.var)
                break
            elif kind is Process:
                head = f"[{render_value(t.state)}]"
                if t.queue.lanes:
                    # One join per lane, so a backlog costs a str per value.
                    head += "<" + ", ".join([
                        f"({sender}, " + f"), ({sender}, ".join(
                            map(render_value, lane)) + ")"
                        for sender, lane in t.queue.lanes]) + ">"
                out.append(head + "{ ")
                stack.append(" }")
                t = t.behaviour
                continue
            elif kind is Cond or kind is BCond:
                guard = (expr(t.expr) if kind is BCond
                         else f"{t.decider}.{expr(t.expr)}")
                out.append(f"if {guard} then {{ ")
                if kind is BCond and type(t.cont) is not BNil:
                    stack.append(t.cont)
                    stack.append("; ")
                stack.append(" }")
                stack.append(t.orelse)
                stack.append(" } else { ")
                t = t.then
                continue
            elif kind is Def or kind is BDef:
                out.append(f"def {t.var} = {{ ")
                stack.append(t.cont)
                stack.append(" } in ")
                t = t.body
                continue
            elif kind is RtRecv:
                payload = _render_payload(t.payload)
                out.append(f"{t.dst} <~ ({t.src}, {payload}); ")
            elif kind is RtSend:
                out.append(f"{t.src}.{expr(t.expr, 6)} ~> [#{t.tag.id}]; ")
            elif kind is Network:
                for i in range(len(t.procs) - 1, -1, -1):
                    name, proc = t.procs[i]
                    stack.append(proc)
                    stack.append(f" | {name}" if i else name)
                break
            else:
                raise TypeError(f"not a renderable term: {t!r}")
            t = t.cont
    text = "".join(out)
    if fresh:
        ends = [0, *accumulate(map(len, out))]
        for key, first, end in fresh:
            memo[key] = (text, ends[first], ends[end])
    return text


# The renderer serves every family; the names say what a caller expects.
render_choreography = render_behaviour = render_network = render
