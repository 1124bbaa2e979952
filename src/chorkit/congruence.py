"""Decision procedures for structural precongruence.

Choreographies are compared by canonicalization: garbage-collect, hoist
common heads out of conditionals, order commuting nested conditionals, and
sort maximal blocks of pairwise-independent actions by a fixed total order.
Recursion unfolding is retried up to a budget; exhausting the budget with
definitions still present yields "unknown" (None), distinct from False.
"""

from __future__ import annotations

from .network import normalize_network
from .render import render_expr, render_value
from .terms import (
    BDef,
    BNil,
    Com,
    Cond,
    Def,
    Network,
    NIL,
    RtRecv,
    RtSend,
    Tag,
    gc,
    head_pn,
    kids,
    rebuild,
    replace_cont,
    replace_kid,
    rewrite_all,
    subst_call,
    subterms,
)


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
    return rewrite_all(gc(c), _canon_here)


def _canon_here(c):
    """One swap, hoist or reordering at the top of ``c``, or None."""
    if isinstance(c, (Com, RtSend, RtRecv)):
        nxt = c.cont
        # Sort adjacent independent actions.
        if isinstance(nxt, (Com, RtSend, RtRecv)) \
                and not (head_pn(c) & head_pn(nxt)) \
                and _head_key(nxt) < _head_key(c):
            return replace_cont(nxt, replace_cont(c, nxt.cont))
    elif isinstance(c, Cond):
        # Hoist a head common to both branches and independent of the guard.
        if isinstance(c.then, (Com, RtSend, RtRecv)) \
                and type(c.then) is type(c.orelse) \
                and replace_cont(c.then, NIL) == replace_cont(c.orelse, NIL) \
                and c.decider not in head_pn(c.then):
            return replace_cont(c.then, Cond(c.decider, c.expr,
                                              c.then.cont, c.orelse.cont))
        # Order independent nested conditionals by decider name.
        if isinstance(c.then, Cond) and isinstance(c.orelse, Cond):
            a, b = c.then, c.orelse
            if (a.decider == b.decider and a.expr == b.expr
                    and a.decider != c.decider and a.decider < c.decider):
                return Cond(a.decider, a.expr,
                            Cond(c.decider, c.expr, a.then, b.then),
                            Cond(c.decider, c.expr, a.orelse, b.orelse))
    return None


def unfold_variants(t):
    """All terms reachable by one recursion unfolding somewhere in ``t``, a
    choreography or a behaviour."""
    out = []
    if type(t) in (Def, BDef):
        out.append(rebuild(t, (t.body, subst_call(t.cont, t.var, t.body))))
    for i, k in enumerate(kids(t)):
        out.extend(replace_kid(t, i, v) for v in unfold_variants(k))
    return out


def _has_def(t) -> bool:
    return any(type(s) in (Def, BDef) for s in subterms(t))


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
            nxt.extend(unfold_variants(c))
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


def behaviour_equiv(b1, b2, unfold_budget: int = 0):
    b1, b2 = gc(b1), gc(b2)
    if b1 == b2:
        return True
    left = {b1}
    right = {b2}
    for _ in range(unfold_budget):
        left |= {gc(v) for b in left for v in unfold_variants(b)}
        right |= {gc(v) for b in right for v in unfold_variants(b)}
        if left & right:
            return True
    if _has_def(b1) or _has_def(b2):
        return None
    return False


def _drop_done(n: Network) -> Network:
    """Remove every process with nothing left to do and an empty queue.

    The operational normalization keeps such processes while a peer still
    names them; for comparison they are inert either way.
    """
    keep = {name: p for name, p in n.procs
            if not (isinstance(gc(p.behaviour), BNil)
                    and p.queue.is_empty())}
    return Network.of(keep)


def network_equiv(n1: Network, n2: Network, unfold_budget: int = 0,
                  memo=None):
    """Networks equal up to normalization and bounded recursion unfolding:
    states and queues exactly, behaviours up to the budget.  ``memo``, a
    dict the caller keeps across calls, holds the verdicts of
    :func:`behaviour_equiv`."""
    if n1 is n2:
        return True
    memo = {} if memo is None else memo
    n1 = _drop_done(normalize_network(n1))
    n2 = _drop_done(normalize_network(n2))
    if n1.names() != n2.names():
        return False
    unknown = False
    for (_, p1), (_, p2) in zip(n1.procs, n2.procs):
        if p1.state != p2.state or p1.queue != p2.queue:
            return False
        key = (p1.behaviour, p2.behaviour, unfold_budget)
        if key not in memo:
            memo[key] = behaviour_equiv(*key)
        verdict = memo[key]
        if verdict is False:
            return False
        if verdict is None:
            unknown = True
    return None if unknown else True
