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
    ACTIONS,
    NIL,
    Com,
    Cond,
    Def,
    Hole,
    RtRecv,
    RtSend,
    Tag,
    TagSupply,
    fold,
    head,
    head_pn,
    kids,
    rebuild,
    replace_cont,
    replace_kid,
    transform,
)
from .render import render_choreography
from .sync import Configuration, enabled, gc
from .values import eval_expr

# The subterm a path step enters, by step and constructor.
_PATH_STEPS = {("cont", Com): 0, ("cont", RtSend): 0, ("cont", RtRecv): 0,
               ("then", Cond): 0, ("else", Cond): 1, ("in", Def): 1}


def unfold_com(c, at: tuple, supply: TagSupply):
    """Expand the communication at path ``at`` into an explicit detached
    send/receive pair with a fresh tag.  The walk loops down the path and
    puts the pair back in place along the nodes it passed."""
    above = []
    for step in at:
        i = _PATH_STEPS.get((step, type(c)))
        if i is None:
            raise NotACom(f"path step {step!r} does not fit "
                          f"{type(c).__name__}")
        above.append((c, i))
        c = kids(c)[i]
    if not isinstance(c, Com):
        raise NotACom(f"no communication at this position: {c!r}")
    x = supply.fresh()
    c = RtSend(c.src, c.expr, x, RtRecv(c.src, x, c.dst, c.cont))
    for node, i in reversed(above):
        c = replace_kid(node, i, c)
    return c


# ---------------------------------------------------------------------------
# Contexts and the next-action function


class NextVerdict(enum.Enum):
    COMM = "comm"
    COND = "cond"
    HOLE = "hole"
    UNDEFINED = "undefined"


_VERDICTS = {Hole: NextVerdict.HOLE, Cond: NextVerdict.COND,
             Com: NextVerdict.COMM, RtSend: NextVerdict.COMM,
             RtRecv: NextVerdict.COMM}


def next_action(ctx, r: str) -> NextVerdict:
    """Type of the next action for process ``r`` in context ``ctx``.

    Holes are not interactions and never swap; past a conditional that
    ``r`` does not decide, a verdict is defined only when every branch
    gives it; calls resolve lexically through :func:`terms.head`, and a
    head that one path reaches twice (a second unfolding) is undefined.
    """
    verdicts = set()
    todo = [(ctx, (), frozenset())]
    while todo:
        ctx, env, seen = todo.pop()
        while True:
            node, env = head(ctx, env)
            if node is not ctx:  # reached through definitions or calls
                if (node, env) in seen:  # a second unfolding
                    node = NIL
                seen = seen | {(node, env)}
            kind = type(node)
            if kind is Cond and r != node.decider:
                todo += ((node.then, env, seen), (node.orelse, env, seen))
            elif kind in ACTIONS and r not in head_pn(node):
                ctx = node.cont
                continue
            else:
                verdicts.add(_VERDICTS.get(kind, NextVerdict.UNDEFINED))
            break
    return verdicts.pop() if len(verdicts) == 1 else NextVerdict.UNDEFINED


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
    term, lanes = fold(gc(c), _well_formed_end, _well_formed_chain)
    return (False, None) if lanes is None else (True, term)


def _well_formed_end(c, done):
    """:func:`well_formed`'s value of ``c``, not a prefix, from those of
    its subterms, ``done``.  Its lanes are those (sender, receiver) that
    still hold a message in transit in ``c``, or None when ``c`` is not
    settled.  A settled term holds no detached send, no tag-carrying
    receive, no runtime term inside a recursion body (execution never
    puts one there), and, along any branch, no message in transit behind
    a communication on its lane, which has closed it."""
    lanes = frozenset()
    if type(c) is Cond:
        (_, then), (_, orelse) = done
        lanes = None if then is None or orelse is None else then | orelse
    elif type(c) is Def:
        # A runtime-free body (no lanes, and settled) runs only after a
        # call, which nothing follows, so only the continuation counts.
        (_, body), (_, cont) = done
        lanes = cont if body == frozenset() else None
    return rebuild(c, [t for t, _ in done]), lanes


def _well_formed_chain(run, done):
    """:func:`well_formed`'s value of the prefixes ``run`` above ``done``'s
    term.  :func:`_fold_at` rewrites the run at the first position that
    applies, from the top, until none does, which its docstring shows ends.
    A rewrite at i can make only i - 1 apply again, as no rule looks past
    its chain and tags are linear, so the scan resumes there."""
    term, lanes = done
    run, i = list(run), 0
    while i < len(run) - 1:
        i = max(i - 1, 0) if _fold_at(run, i) else i + 1
    for c in reversed(run):
        term = replace_cont(c, term)
        if (lanes is None or _pending_tag(c) is not None
                or type(c) is Com and (c.src, c.dst) in lanes):
            lanes = None
        elif type(c) is RtRecv:  # a message in transit
            lanes |= {(c.src, c.dst)}
    return term, lanes


def _fold_at(run, i: int) -> bool:
    """One folding rewrite of the chain ``run`` at position ``i``, in
    place; whether one applied.

    Only matched send/receive pairs are folded back into communications;
    instantiated receives stay exactly where execution put them, so the
    canonical form projects to the same structure the network evolves to.
    A half whose other half lies ahead in the chain (a mover) folds with it
    when adjacent, and otherwise hops one node toward it over an
    independent node that is not itself a mover; two movers passing each
    other would swap back and forth forever.

    Folding ends: a fold removes two pending halves, and a hop keeps their
    number and shortens the distance from the hopping mover to its other
    half by one without lengthening any other mover's (the node it passes
    is no mover, and a node's partner stays on the same side of it).
    """
    c, nxt = run[i], run[i + 1]
    tag = _pending_tag(c)
    if tag is None or type(nxt) not in ACTIONS:
        return False
    other = _pending_tag(nxt)
    if other == tag and type(nxt) is not type(c):  # the matched pair
        send, recv = (c, nxt) if type(c) is RtSend else (nxt, c)
        # The run's continuations are set when it is put back in place.
        run[i:i + 2] = [Com(send.src, send.expr, recv.dst, nxt.cont)]
        return True
    if (not (head_pn(c) & head_pn(nxt)) and _tag_ahead(tag, run, i + 2)
            and (other is None or not _tag_ahead(other, run, i + 2))):
        run[i], run[i + 1] = nxt, c
        return True
    return False


def _pending_tag(c):
    """The tag of a detached send or of a receive still waiting on its
    send; None for any other node."""
    if type(c) is RtSend:
        return c.tag
    if type(c) is RtRecv and type(c.payload) is Tag:
        return c.payload
    return None


def _tag_ahead(tag: Tag, run, i: int) -> bool:
    """True if the other half of ``tag``'s pair occurs in the chain
    ``run`` from position ``i`` on."""
    while i < len(run) and type(run[i]) in ACTIONS:
        if _pending_tag(run[i]) == tag:
            return True
        i += 1
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
    """All contexts obtained by carving one communication out of ``c``,
    as (context, communication) pairs, by :func:`terms.fold`; under a
    conditional the same communication must be carved from the matching
    position of both branches, and a definition's body holds none."""
    def chain(run, found):
        for node in reversed(run):
            found = [(replace_cont(node, ctx), com) for ctx, com in found]
            if type(node) is Com:
                found.insert(0, (Hole(node.cont), replace_cont(node, NIL)))
        return found

    def end(t, done):
        if type(t) is Cond:
            return [(Cond(t.decider, t.expr, ctx_a, ctx_b), com_a)
                    for (ctx_a, com_a), (ctx_b, com_b) in zip(*done)
                    if com_a == com_b]
        if type(t) is Def:
            return [(replace_cont(t, ctx), com) for ctx, com in done[1]]
        return []

    return fold(c, end, chain)


def check_abstract_async(corpus, sigma_for) -> tuple:
    """Verify both defining clauses of the abstract asynchronous semantics
    on every context harvested from ``corpus``.  Returns the number of
    contexts and the violations.  A harvested communication plugged back
    into its context gives the program, so the send clause steps each
    program once."""
    count, violations = 0, []
    for program in corpus:
        sigma = sigma_for(program)
        contexts = harvest_contexts(program)
        count += len(contexts)
        sends = {s for _, s in enabled(Configuration(gc(program), sigma),
                                       "async")}
        for ctx, com in contexts:
            p, q = com.src, com.dst
            v = eval_expr(com.expr, sigma, p)
            sent = Configuration(gc(plug(ctx, RtRecv(p, v, q, NIL))), sigma)
            if next_action(ctx, p) == NextVerdict.HOLE and sent not in sends:
                violations.append(Violation(
                    render_choreography(program), p, "send",
                    "detached send not among enabled steps"))
            if next_action(ctx, q) == NextVerdict.HOLE:
                want = Configuration(gc(plug(ctx, None)), sigma.update(q, v))
                if not any(s == want for _, s in enabled(sent, "async")):
                    violations.append(Violation(
                        render_choreography(program), q, "receive",
                        "receive commit not among enabled steps"))
    return count, violations
