"""Asynchronous choreography semantics and runtime-term machinery.

A communication fires in two steps: the send detaches immediately (the
evaluated value replaces the tag in the matching receive), and the receive
later commits the state update.  Enabledness reuses the interference
analysis of the synchronous engine with detached sends involving only the
sender and detached receives only the receiver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import NotACom
from .terms import (
    NIL,
    Call,
    Com,
    Cond,
    Def,
    Hole,
    Nil,
    RtRecv,
    RtSend,
    Tag,
    TagSupply,
    head_pn,
    kids,
    replace_cont,
    replace_kid,
    rewrite_all,
    runtime_free,
    subst_call,
    transform,
)
from .sync import Configuration, enabled, gc
from .values import eval_expr

# ---------------------------------------------------------------------------
# Step relation


def enabled_async(cfg: Configuration):
    return enabled(cfg, "async")


# The subterm a path step enters, by step and constructor.
_PATH_STEPS = {("cont", Com): 0, ("cont", RtSend): 0, ("cont", RtRecv): 0,
               ("then", Cond): 0, ("else", Cond): 1, ("in", Def): 1}


def unfold_com(c, at: tuple, supply: TagSupply):
    """Expand the communication at path ``at`` into an explicit detached
    send/receive pair with a fresh tag."""
    if not at:
        if not isinstance(c, Com):
            raise NotACom(f"no communication at this position: {c!r}")
        x = supply.fresh()
        return RtSend(c.src, c.expr, x, RtRecv(c.src, x, c.dst, c.cont))
    i = _PATH_STEPS.get((at[0], type(c)))
    if i is None:
        raise NotACom(f"path step {at[0]!r} does not fit {type(c).__name__}")
    return replace_kid(c, i, unfold_com(kids(c)[i], at[1:], supply))


# ---------------------------------------------------------------------------
# Contexts and the next-action function


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
        return next_action(subst_call(ctx.cont, ctx.var, ctx.body), r)
    raise TypeError(f"not a context: {ctx!r}")


def plug(ctx, stmt):
    """Replace every hole by ``stmt`` (a prefix node whose cont is ignored),
    or splice the holes away when ``stmt`` is None."""
    def fill(t):
        if type(t) is not Hole:
            return t
        return t.cont if stmt is None else replace_cont(stmt, t.cont)
    return transform(ctx, fill)


# ---------------------------------------------------------------------------
# Well-formedness


def well_formed(c):
    """Decide whether ``c`` can arise from executing a runtime-free program.

    After folding every matched send/receive pair back into a
    communication, the term must contain no detached send and no receive
    still waiting on its tag, and every in-transit message must be ahead of
    any future communication on the same sender-to-receiver lane: a message
    sitting behind one would be delivered out of FIFO order by any queue
    implementation.  Returns ``(True, canonical_form)`` or ``(False, None)``.
    """
    term = rewrite_all(gc(c), _fold_here)
    if not _settled(term, frozenset()):
        return False, None
    return True, term


def _settled(c, closed: frozenset) -> bool:
    """No detached send, no tag-carrying receive, no runtime term inside a
    recursion body (execution never puts one there), and no in-transit
    message on a lane that an earlier communication on the same lane has
    already closed, along any branch."""
    while True:
        kind = type(c)
        if kind is Com:
            closed = closed | {(c.src, c.dst)}
        elif kind is RtRecv:
            if type(c.payload) is Tag or (c.src, c.dst) in closed:
                return False
        elif kind is Cond:
            return _settled(c.then, closed) and _settled(c.orelse, closed)
        elif kind is Def:
            # A runtime-free body runs only after a call, which nothing
            # follows, so only the continuation needs the lane scan.
            if not runtime_free(c.body):
                return False
        else:
            return kind is not RtSend
        c = c.cont


def _fold_here(c):
    """One folding rewrite at the top of ``c``, or None.

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
        out.append((Hole(c.cont), replace_cont(c, NIL)))
    if isinstance(c, Cond):
        left = harvest_contexts(c.then)
        right = harvest_contexts(c.orelse)
        for (ctx_a, com_a), (ctx_b, com_b) in zip(left, right):
            if com_a == com_b:
                out.append((Cond(c.decider, c.expr, ctx_a, ctx_b), com_a))
    elif isinstance(c, (Com, RtSend, RtRecv, Def)):
        for ctx, com in harvest_contexts(c.cont):
            out.append((replace_cont(c, ctx), com))
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
            sent = plug(ctx, RtRecv(p, v, q, NIL))
            # (process, clause, term before, term and state after, what)
            clauses = (
                (p, "send", plug(ctx, com), sent, sigma,
                 "detached send not among enabled steps"),
                (q, "receive", sent, plug(ctx, None), sigma.update(q, v),
                 "receive commit not among enabled steps"))
            for r, clause, before, after, sigma_after, what in clauses:
                if next_action(ctx, r) != NextVerdict.HOLE:
                    continue
                want = Configuration(gc(after), sigma_after)
                start = Configuration(gc(before), sigma)
                if not any(s == want for _, s in enabled_async(start)):
                    violations.append(Violation(
                        render_choreography(plug(ctx, com)), r, clause,
                        what))
    return violations
