"""Asynchronous choreography semantics and runtime-term machinery.

A communication fires in two steps: the send detaches immediately (the
evaluated value replaces the tag in the matching receive), and the receive
later commits the state update.  Enabledness reuses the interference
analysis of the synchronous engine with detached sends involving only the
sender and detached receives only the receiver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from .errors import NotACom
from .terms import (
    NIL,
    Call,
    Com,
    Cond,
    Def,
    Nil,
    RtRecv,
    RtSend,
    Tag,
    TagSupply,
    head_pn,
    replace_cont,
)
from .sync import Configuration, enabled, gc
from .values import eval_expr

# ---------------------------------------------------------------------------
# Step relation


def enabled_async(cfg: Configuration):
    return enabled(cfg, "async")


def unfold_com(c, at: tuple, supply: TagSupply):
    """Expand the communication at path ``at`` into an explicit detached
    send/receive pair with a fresh tag."""
    if not at:
        if not isinstance(c, Com):
            raise NotACom(f"no communication at this position: {c!r}")
        x = supply.fresh()
        return RtSend(c.src, c.expr, x, RtRecv(c.src, x, c.dst, c.cont))
    step, rest = at[0], at[1:]
    if step == "cont" and isinstance(c, (Com, RtSend, RtRecv)):
        return replace(c, cont=unfold_com(c.cont, rest, supply))
    if step == "then" and isinstance(c, Cond):
        return replace(c, then=unfold_com(c.then, rest, supply))
    if step == "else" and isinstance(c, Cond):
        return replace(c, orelse=unfold_com(c.orelse, rest, supply))
    if step == "in" and isinstance(c, Def):
        return replace(c, cont=unfold_com(c.cont, rest, supply))
    raise NotACom(f"path step {step!r} does not fit {type(c).__name__}")


# ---------------------------------------------------------------------------
# Contexts and the next-action function


@dataclass(frozen=True)
class Hole:
    cont: object


class NextVerdict(enum.Enum):
    COMM = "comm"
    COND = "cond"
    HOLE = "hole"
    UNDEFINED = "undefined"


def next_action(ctx, r: str) -> NextVerdict:
    """Type of the next action for process ``r`` in context ``ctx``.

    Holes are not interactions and never swap; a conditional yields a
    verdict for a non-decider only when both branches agree; recursive
    definitions are unfolded once.
    """
    if isinstance(ctx, Hole):
        return NextVerdict.HOLE
    if isinstance(ctx, (Nil, Call)):
        return NextVerdict.UNDEFINED
    if isinstance(ctx, (Com, RtSend, RtRecv)):
        if r in head_pn(ctx):
            return NextVerdict.COMM
        return next_action(ctx.cont, r)
    if isinstance(ctx, Cond):
        if r == ctx.decider:
            return NextVerdict.COND
        left = next_action(ctx.then, r)
        right = next_action(ctx.orelse, r)
        return left if left == right else NextVerdict.UNDEFINED
    if isinstance(ctx, Def):
        return next_action(_subst_call(ctx.cont, ctx.var, ctx.body), r)
    raise TypeError(f"not a context: {ctx!r}")


def _subst_call(term, var: str, body):
    """Replace ``Call(var)`` occurrences by ``body`` (one unfolding: calls
    inside the substituted body are left alone)."""
    if isinstance(term, Call):
        return body if term.var == var else term
    if isinstance(term, (Com, RtSend, RtRecv, Hole)):
        return replace(term, cont=_subst_call(term.cont, var, body))
    if isinstance(term, Cond):
        return Cond(term.decider, term.expr,
                    _subst_call(term.then, var, body),
                    _subst_call(term.orelse, var, body))
    if isinstance(term, Def):
        if term.var == var:  # shadowed
            return term
        return Def(term.var, _subst_call(term.body, var, body),
                   _subst_call(term.cont, var, body))
    return term


def plug(ctx, stmt):
    """Replace every hole by ``stmt`` (a prefix node whose cont is ignored),
    or splice the holes away when ``stmt`` is None."""
    if isinstance(ctx, Hole):
        if stmt is None:
            return ctx.cont
        return replace(stmt, cont=ctx.cont)
    if isinstance(ctx, (Com, RtSend, RtRecv)):
        return replace(ctx, cont=plug(ctx.cont, stmt))
    if isinstance(ctx, Cond):
        return Cond(ctx.decider, ctx.expr, plug(ctx.then, stmt),
                    plug(ctx.orelse, stmt))
    if isinstance(ctx, Def):
        return Def(ctx.var, ctx.body, plug(ctx.cont, stmt))
    return ctx


# ---------------------------------------------------------------------------
# Well-formedness

_MAX_REWRITE_ROUNDS = 10_000


def well_formed(c):
    """Decide whether ``c`` can arise from executing a runtime-free program.

    After folding every matched send/receive pair back into a
    communication, the term must contain no detached send and no receive
    still waiting on its tag, and every in-transit message must be ahead of
    any future communication on the same sender-to-receiver lane: a message
    sitting behind one would be delivered out of FIFO order by any queue
    implementation.  Returns ``(True, canonical_form)`` or ``(False, None)``.
    """
    term = gc(c)
    for _ in range(_MAX_REWRITE_ROUNDS):
        new = _rewrite_once(term)
        if new is None:
            break
        term = new
    if _unmatched_runtime(term) or not _lanes_ok(term, frozenset()):
        return False, None
    return True, term


def _unmatched_runtime(c) -> bool:
    """A detached send, a tag-carrying receive, or any runtime term inside
    a recursion body (execution never puts one there)."""
    if isinstance(c, RtSend):
        return True
    if isinstance(c, RtRecv):
        return isinstance(c.payload, Tag) or _unmatched_runtime(c.cont)
    if isinstance(c, Com):
        return _unmatched_runtime(c.cont)
    if isinstance(c, Cond):
        return _unmatched_runtime(c.then) or _unmatched_runtime(c.orelse)
    if isinstance(c, Def):
        return not _runtime_free(c.body) or _unmatched_runtime(c.cont)
    return False


def _lanes_ok(c, closed: frozenset) -> bool:
    """No in-transit message on a lane that an earlier communication on the
    same lane has already closed, along any branch."""
    if isinstance(c, Com):
        return _lanes_ok(c.cont, closed | {(c.src, c.dst)})
    if isinstance(c, RtRecv):
        if (c.src, c.dst) in closed:
            return False
        return _lanes_ok(c.cont, closed)
    if isinstance(c, Cond):
        return _lanes_ok(c.then, closed) and _lanes_ok(c.orelse, closed)
    if isinstance(c, Def):
        # Recursion bodies are runtime-free here and only run after a call,
        # which nothing follows, so only the continuation needs the scan.
        return _lanes_ok(c.cont, closed)
    return True


def _runtime_free(c) -> bool:
    if isinstance(c, (RtSend, RtRecv)):
        return False
    if isinstance(c, Com):
        return _runtime_free(c.cont)
    if isinstance(c, Cond):
        return _runtime_free(c.then) and _runtime_free(c.orelse)
    if isinstance(c, Def):
        return _runtime_free(c.body) and _runtime_free(c.cont)
    return True


def _rewrite_once(c):
    """One folding rewrite, or None at fixpoint.

    Only matched send/receive pairs are folded back into communications;
    instantiated receives stay exactly where execution put them, so the
    canonical form projects to the same structure the network evolves to.
    """
    # Fold a matched pair, in either adjacent order.
    if isinstance(c, RtSend) and isinstance(c.cont, RtRecv):
        r = c.cont
        if r.payload == c.tag:
            return Com(c.src, c.expr, r.dst, r.cont)
    if isinstance(c, RtRecv) and isinstance(c.payload, Tag) \
            and isinstance(c.cont, RtSend):
        s = c.cont
        if s.tag == c.payload:
            return Com(s.src, s.expr, c.dst, s.cont)
    # Move a detached send rightward, one hop toward its receive.
    if isinstance(c, RtSend) and isinstance(c.cont, (Com, RtSend, RtRecv)):
        nxt = c.cont
        carries_tag = isinstance(nxt, RtRecv) and nxt.payload == c.tag
        if not carries_tag and not (head_pn(c) & head_pn(nxt)):
            if _tag_ahead(c.tag, nxt.cont):
                return replace_cont(nxt, replace_cont(c, nxt.cont))
    # Move a tag-carrying receive rightward toward its send (the pair may
    # have been swapped past each other: their names are disjoint).
    if isinstance(c, RtRecv) and isinstance(c.payload, Tag) \
            and isinstance(c.cont, (Com, RtSend, RtRecv)):
        nxt = c.cont
        is_match = isinstance(nxt, RtSend) and nxt.tag == c.payload
        if not is_match and not (head_pn(c) & head_pn(nxt)):
            if _tag_ahead(c.payload, nxt.cont):
                return replace_cont(nxt, replace_cont(c, nxt.cont))
    # Otherwise recurse into the first child that rewrites.
    if isinstance(c, (Com, RtSend, RtRecv, Def)):
        new = _rewrite_once(c.cont)
        if new is not None:
            return replace_cont(c, new)
        if isinstance(c, Def):
            new_body = _rewrite_once(c.body)
            if new_body is not None:
                return Def(c.var, new_body, c.cont)
        return None
    if isinstance(c, Cond):
        new = _rewrite_once(c.then)
        if new is not None:
            return Cond(c.decider, c.expr, new, c.orelse)
        new = _rewrite_once(c.orelse)
        if new is not None:
            return Cond(c.decider, c.expr, c.then, new)
        return None
    return None


def _tag_ahead(tag: Tag, c) -> bool:
    """True if the other half of ``tag``'s pair occurs ahead in this chain."""
    while isinstance(c, (Com, RtSend, RtRecv)):
        if isinstance(c, RtRecv) and c.payload == tag:
            return True
        if isinstance(c, RtSend) and c.tag == tag:
            return True
        c = c.cont
    return False


# ---------------------------------------------------------------------------
# Abstract-asynchrony conformance


@dataclass(frozen=True)
class Violation:
    context: str
    process: str
    clause: str
    detail: str


def harvest_contexts(c):
    """All contexts obtained by carving one communication out of ``c``;
    under a conditional the same communication must be carved from the
    matching position of both branches."""
    out = []
    if isinstance(c, Com):
        out.append((Hole(c.cont), replace(c, cont=NIL)))
    if isinstance(c, (Com, RtSend, RtRecv)):
        for ctx, com in harvest_contexts(c.cont):
            out.append((replace(c, cont=ctx), com))
    elif isinstance(c, Cond):
        left = harvest_contexts(c.then)
        right = harvest_contexts(c.orelse)
        for (ctx_a, com_a), (ctx_b, com_b) in zip(left, right):
            if com_a == com_b:
                out.append((Cond(c.decider, c.expr, ctx_a, ctx_b), com_a))
    elif isinstance(c, Def):
        for ctx, com in harvest_contexts(c.cont):
            out.append((Def(c.var, c.body, ctx), com))
    return out


def check_abstract_async(corpus, sigma_for) -> list:
    """Verify both defining clauses of the abstract asynchronous semantics
    on every context harvested from ``corpus``.  Returns violations."""
    from .render import render_choreography

    violations = []
    for program in corpus:
        sigma = sigma_for(program)
        for ctx, com in harvest_contexts(program):
            p, q = com.src, com.dst
            v = eval_expr(com.expr, sigma, p)
            ctx_text = render_choreography(plug(ctx, com))
            if next_action(ctx, p) == NextVerdict.HOLE:
                start = Configuration(gc(plug(ctx, com)), sigma)
                want = Configuration(
                    gc(plug(ctx, RtRecv(p, v, q, NIL))), sigma)
                if not _has_successor(start, want):
                    violations.append(Violation(
                        ctx_text, p, "send",
                        "detached send not among enabled steps"))
            recv_ctx = plug(ctx, RtRecv(p, v, q, NIL))
            if next_action(ctx, q) == NextVerdict.HOLE:
                start = Configuration(gc(recv_ctx), sigma)
                want = Configuration(gc(plug(ctx, None)),
                                     sigma.update(q, v))
                if not _has_successor(start, want):
                    violations.append(Violation(
                        ctx_text, q, "receive",
                        "receive commit not among enabled steps"))
    return violations


def _has_successor(start: Configuration, want: Configuration) -> bool:
    return any(succ == want for _, succ in enabled_async(start))
