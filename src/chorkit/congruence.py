"""Decision procedures for structural precongruence.

Choreographies are compared by canonicalization: garbage-collect, hoist
common heads out of conditionals, order commuting nested conditionals, and
sort maximal blocks of pairwise-independent actions by a fixed total order.
Their recursion unfolding is searched up to a budget; exhausting it with
definitions still present yields "unknown" (None), distinct from False.
Behaviours, and so networks, are compared exactly, as the regular trees
they unfold to.
"""

from __future__ import annotations

from .network import _done, normalize_network
from .render import render_expr, render_value
from .terms import (
    BCall,
    BDef,
    BNIL,
    Com,
    Cond,
    Def,
    Network,
    NIL,
    RtRecv,
    RtSend,
    Tag,
    fixed,
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
    """One swap, hoist or reordering at the top of ``c``, or None.

    Canonicalization ends, as each rewrite shrinks, in lexicographic
    order, three counts over the whole term: actions; pairs of an action
    above another whose head sorts lower; and pairs of a conditional above
    another whose decider sorts lower.  A hoist merges two actions into
    one.  A swap keeps the actions and turns one such pair of actions
    around, leaving every other pair as it was.  A reordering keeps the
    actions and where they sit, turns the two such pairs of conditionals
    around, and no other pair grows in number.
    """
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
    if any(type(s) is Def for c in (c1, c2) for s in subterms(gc(c))):
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


def _head(t, env):
    """The first action of ``t`` in the environment ``env``, and the
    environment in scope there.  An environment is () or the innermost
    definition in scope paired with the environment it is in; a call
    resumes the body of its definition there.  A call cycle with no action
    in between is 0, as :func:`gc` folds it."""
    cycle = set()
    while True:
        kind = type(t)
        if kind is BDef:
            env = (t, env)
            t = t.cont
        elif kind is BCall:
            while env and env[0].var != t.var:
                env = env[1]
            if not env:
                return t, env  # a free call
            if env in cycle:
                return BNIL, ()
            cycle.add(env)
            t = env[0].body
        else:
            return t, env


def behaviour_equiv(b1, b2) -> bool:
    """Whether ``b1`` and ``b2`` unfold to the same regular tree, decided
    coinductively on pairs of (subterm, environment): the heads of a pair
    must have the same constructor and fields, and then their subterms
    pair up.  The walk ends, as a behaviour has finitely many of both."""
    todo = [((b1, ()), (b2, ()))]
    assumed = set()
    while todo:
        pair = todo.pop()
        (t1, env1), (t2, env2) = pair
        if (t1 is t2 and env1 == env2) or pair in assumed:
            continue
        assumed.add(pair)
        (h1, env1), (h2, env2) = _head(t1, env1), _head(t2, env2)
        if type(h1) is not type(h2) or fixed(h1) != fixed(h2):
            return False
        todo += zip([(k, env1) for k in kids(h1)],
                    [(k, env2) for k in kids(h2)])
    return True


def network_equiv(n1: Network, n2: Network, memo=None) -> bool:
    """Networks equal up to normalization and recursion unfolding: states
    and queues exactly, behaviours by :func:`behaviour_equiv`, and with
    the processes that are done left out, even where a peer still names
    them.  ``memo``, a dict the caller keeps across calls, holds the
    behaviour verdicts."""
    if n1 is n2:
        return True
    memo = {} if memo is None else memo
    live = [[entry for entry in normalize_network(n).procs
             if not _done(entry[1])] for n in (n1, n2)]
    if len(live[0]) != len(live[1]):
        return False
    for (name1, p1), (name2, p2) in zip(*live):
        if name1 != name2 or p1.state != p2.state or p1.queue != p2.queue:
            return False
        key = (p1.behaviour, p2.behaviour)
        if key not in memo:
            memo[key] = behaviour_equiv(*key)
        if not memo[key]:
            return False
    return True
