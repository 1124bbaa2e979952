"""Decision procedures for structural precongruence.

Choreographies are compared by canonicalization: garbage-collect, hoist
common heads out of conditionals, order commuting nested conditionals, and
sort maximal blocks of pairwise-independent actions by a fixed total order.
Recursion unfolding is retried up to a budget; exhausting the budget with
definitions still present yields "unknown" (None), distinct from False.
"""

from __future__ import annotations

from dataclasses import replace

from .network import gc_behaviour, normalize_network
from .render import render_expr, render_value
from .sync import gc
from .terms import (
    BCall,
    BCond,
    BDef,
    BNil,
    BRecv,
    BSend,
    Call,
    Com,
    Cond,
    Def,
    Network,
    NIL,
    RtRecv,
    RtSend,
    Tag,
    head_pn,
)

_MAX_CANON_ROUNDS = 10_000


def _head_key(node):
    """Fixed total order on interaction heads."""
    if isinstance(node, Com):
        return (0, node.src, node.dst, render_expr(node.expr), -1)
    if isinstance(node, RtSend):
        return (1, node.src, "", render_expr(node.expr), node.tag.id)
    # RtRecv
    payload = (f"#{node.payload.id}" if isinstance(node.payload, Tag)
               else render_value(node.payload))
    return (2, node.src, node.dst, payload, -1)


def canonical(c):
    """Normal form under garbage collection and the swap rules."""
    c = gc(c)
    for _ in range(_MAX_CANON_ROUNDS):
        new = _canon_once(c)
        if new is None:
            return c
        c = new
    return c


def _canon_once(c):
    if isinstance(c, (Com, RtSend, RtRecv)):
        nxt = c.cont
        # Sort adjacent independent actions.
        if isinstance(nxt, (Com, RtSend, RtRecv)) \
                and not (head_pn(c) & head_pn(nxt)) \
                and _head_key(nxt) < _head_key(c):
            return replace(nxt, cont=replace(c, cont=nxt.cont))
        new = _canon_once(c.cont)
        return replace(c, cont=new) if new is not None else None
    if isinstance(c, Cond):
        # Hoist a head common to both branches and independent of the guard.
        if isinstance(c.then, (Com, RtSend, RtRecv)) \
                and type(c.then) is type(c.orelse) \
                and replace(c.then, cont=NIL) == replace(c.orelse, cont=NIL) \
                and c.decider not in head_pn(c.then):
            return replace(c.then, cont=Cond(c.decider, c.expr,
                                             c.then.cont, c.orelse.cont))
        # Order independent nested conditionals by decider name.
        if isinstance(c.then, Cond) and isinstance(c.orelse, Cond):
            a, b = c.then, c.orelse
            if (a.decider == b.decider and a.expr == b.expr
                    and a.decider != c.decider and a.decider < c.decider):
                return Cond(a.decider, a.expr,
                            Cond(c.decider, c.expr, a.then, b.then),
                            Cond(c.decider, c.expr, a.orelse, b.orelse))
        new = _canon_once(c.then)
        if new is not None:
            return Cond(c.decider, c.expr, new, c.orelse)
        new = _canon_once(c.orelse)
        if new is not None:
            return Cond(c.decider, c.expr, c.then, new)
        return None
    if isinstance(c, Def):
        new = _canon_once(c.body)
        if new is not None:
            return Def(c.var, new, c.cont)
        new = _canon_once(c.cont)
        if new is not None:
            return Def(c.var, c.body, new)
        return None
    return None


def _subst_chor_call(term, var, body):
    if isinstance(term, Call):
        return body if term.var == var else term
    if isinstance(term, (Com, RtSend, RtRecv)):
        return replace(term, cont=_subst_chor_call(term.cont, var, body))
    if isinstance(term, Cond):
        return Cond(term.decider, term.expr,
                    _subst_chor_call(term.then, var, body),
                    _subst_chor_call(term.orelse, var, body))
    if isinstance(term, Def):
        if term.var == var:
            return term
        return Def(term.var, _subst_chor_call(term.body, var, body),
                   _subst_chor_call(term.cont, var, body))
    return term


def _unfold_variants(c):
    """All terms reachable by one recursion unfolding somewhere in ``c``."""
    out = []
    if isinstance(c, Def):
        out.append(Def(c.var, c.body,
                       _subst_chor_call(c.cont, c.var, c.body)))
        out.extend(Def(c.var, b, c.cont) for b in _unfold_variants(c.body))
        out.extend(Def(c.var, c.body, k) for k in _unfold_variants(c.cont))
    elif isinstance(c, (Com, RtSend, RtRecv)):
        out.extend(replace(c, cont=k) for k in _unfold_variants(c.cont))
    elif isinstance(c, Cond):
        out.extend(Cond(c.decider, c.expr, t, c.orelse)
                   for t in _unfold_variants(c.then))
        out.extend(Cond(c.decider, c.expr, c.then, e)
                   for e in _unfold_variants(c.orelse))
    return out


def _has_def(c) -> bool:
    if isinstance(c, Def):
        return True
    if isinstance(c, (Com, RtSend, RtRecv)):
        return _has_def(c.cont)
    if isinstance(c, Cond):
        return _has_def(c.then) or _has_def(c.orelse)
    return False


def precongruent(c1, c2, unfold_budget: int = 0):
    """True iff c1 can be rewritten to c2 with swaps, garbage collection
    and at most ``unfold_budget`` unfoldings.  None means the budget ran
    out before the question was settled."""
    target = canonical(c2)
    frontier = [gc(c1)]
    seen = set()
    for _ in range(unfold_budget + 1):
        nxt = []
        for c in frontier:
            key = canonical(c)
            if key == target:
                return True
            marker = repr(key)
            if marker in seen:
                continue
            seen.add(marker)
            nxt.extend(_unfold_variants(c))
        frontier = nxt
        if not frontier:
            return False
    if _has_def(gc(c1)) or _has_def(gc(c2)):
        return None
    return False


def chor_equiv(c1, c2, unfold_budget: int = 0):
    """Symmetric comparison up to precongruence, unknown-propagating."""
    a = precongruent(c1, c2, unfold_budget)
    if a:
        return True
    b = precongruent(c2, c1, unfold_budget)
    if b:
        return True
    if a is None or b is None:
        return None
    return False


# ---------------------------------------------------------------------------
# Network equivalence


def _subst_bcall(term, var, body):
    if isinstance(term, BCall):
        return body if term.var == var else term
    if isinstance(term, (BSend, BRecv)):
        return replace(term, cont=_subst_bcall(term.cont, var, body))
    if isinstance(term, BCond):
        return BCond(term.expr,
                     _subst_bcall(term.then, var, body),
                     _subst_bcall(term.orelse, var, body),
                     _subst_bcall(term.cont, var, body))
    if isinstance(term, BDef):
        if term.var == var:
            return term
        return BDef(term.var, _subst_bcall(term.body, var, body),
                    _subst_bcall(term.cont, var, body))
    return term


def _unfold_bvariants(b):
    out = []
    if isinstance(b, BDef):
        out.append(BDef(b.var, b.body, _subst_bcall(b.cont, b.var, b.body)))
        out.extend(BDef(b.var, nb, b.cont) for nb in _unfold_bvariants(b.body))
        out.extend(BDef(b.var, b.body, k) for k in _unfold_bvariants(b.cont))
    elif isinstance(b, (BSend, BRecv)):
        out.extend(replace(b, cont=k) for k in _unfold_bvariants(b.cont))
    elif isinstance(b, BCond):
        out.extend(BCond(b.expr, t, b.orelse, b.cont)
                   for t in _unfold_bvariants(b.then))
        out.extend(BCond(b.expr, b.then, e, b.cont)
                   for e in _unfold_bvariants(b.orelse))
        out.extend(BCond(b.expr, b.then, b.orelse, k)
                   for k in _unfold_bvariants(b.cont))
    return out


def _has_bdef(b) -> bool:
    if isinstance(b, BDef):
        return True
    if isinstance(b, (BSend, BRecv)):
        return _has_bdef(b.cont)
    if isinstance(b, BCond):
        return _has_bdef(b.then) or _has_bdef(b.orelse) or _has_bdef(b.cont)
    return False


def behaviour_equiv(b1, b2, unfold_budget: int = 0):
    b1, b2 = gc_behaviour(b1), gc_behaviour(b2)
    if b1 == b2:
        return True
    left = {b1}
    right = {b2}
    for _ in range(unfold_budget):
        left |= {gc_behaviour(v) for b in left for v in _unfold_bvariants(b)}
        right |= {gc_behaviour(v) for b in right for v in _unfold_bvariants(b)}
        if left & right:
            return True
    if _has_bdef(b1) or _has_bdef(b2):
        return None
    return False


def _drop_done(n: Network) -> Network:
    """Remove every process with nothing left to do and an empty queue.

    The operational normalization keeps such processes while a peer still
    names them; for comparison they are inert either way.
    """
    keep = {name: p for name, p in n.procs
            if not (isinstance(gc_behaviour(p.behaviour), BNil)
                    and p.queue.is_empty())}
    return Network.of(keep)


def network_equiv(n1: Network, n2: Network, unfold_budget: int = 0):
    """Networks equal up to normalization and bounded recursion unfolding:
    states and queues exactly, behaviours up to the budget."""
    n1 = _drop_done(normalize_network(n1))
    n2 = _drop_done(normalize_network(n2))
    if n1.names() != n2.names():
        return False
    unknown = False
    for (_, p1), (_, p2) in zip(n1.procs, n2.procs):
        if p1.state != p2.state or p1.queue != p2.queue:
            return False
        verdict = behaviour_equiv(p1.behaviour, p2.behaviour, unfold_budget)
        if verdict is False:
            return False
        if verdict is None:
            unknown = True
    return None if unknown else True
