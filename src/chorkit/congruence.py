"""Decision procedures for structural precongruence.

Choreographies are compared by canonicalization: garbage-collect, hoist
out of conditionals the actions both branches can bring to their top,
order commuting nested conditionals, and put each maximal chain of
actions in lexicographic normal form under a fixed total order.
Behaviours, and so networks, are compared exactly, as the regular trees
they unfold to.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush

from .render import render_expr, render_value
from .terms import (
    ACTIONS,
    Com,
    Cond,
    Network,
    Nil,
    RtSend,
    Tag,
    fixed,
    fold,
    gc,
    head,
    head_pn,
    kids,
    rebuild,
    replace_cont,
    rewrite_first,
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
    """Normal form under garbage collection and the swap rules: each
    maximal chain of actions in its lexicographic normal form, and nothing
    left for :func:`_canon_here` to rewrite.

    Each round sorts the chains, which keeps every conditional, and the
    actions of each chain, where they sit, and then applies one rewrite.
    The rounds end, as each rewrite shrinks, in lexicographic order, two
    counts over the whole term: actions, and pairs of a conditional above
    another whose decider sorts lower.  A hoist merges two actions into
    one.  A reordering keeps the actions and where they sit, turns the two
    such pairs of conditionals around, and no other pair grows in number.
    """
    c = _sort_chains(gc(c))
    while (new := rewrite_first(c, _canon_here)) is not None:
        c = _sort_chains(new)
    return c


def _sort_chains(t):
    """``t`` with each maximal chain of actions in lexicographic normal
    form, by :func:`terms.fold`; ``t`` itself when every chain already
    is."""
    def chain(run, done):
        for node in reversed(_lex_normal(run)):
            done = replace_cont(node, done)
        return done

    return fold(t, rebuild, chain)


def _lex_normal(chain):
    """The actions of ``chain``, listed from the top, in lexicographic
    normal form: each is the least by :func:`_head_key` of the actions
    that no action still above it shares a process with.  Those share no
    process with each other either, so their keys differ, and chains that
    independent swaps relate get the same form."""
    lanes = {}  # process -> indices of its actions still to place, in order
    for i, a in enumerate(chain):
        for p in head_pn(a):
            lanes.setdefault(p, deque()).append(i)

    def ready(i):
        return all(lanes[p][0] == i for p in head_pn(chain[i]))

    heap = [(_head_key(a), i) for i, a in enumerate(chain) if ready(i)]
    heapify(heap)
    out = []
    while heap:
        _, i = heappop(heap)
        out.append(chain[i])
        for p in head_pn(chain[i]):
            lane = lanes[p]
            lane.popleft()
            if lane and ready(lane[0]):
                heappush(heap, (_head_key(chain[lane[0]]), lane[0]))
    return out


def _canon_here(c):
    """One hoist or reordering at the top of ``c``, or None."""
    if isinstance(c, Cond):
        # Hoist an action that both branches can bring to their top and
        # that does not involve the decider.
        for a in _free_actions(c.then):
            if c.decider in head_pn(a):
                continue
            for b in _free_actions(c.orelse):
                if type(b) is type(a) and fixed(b) == fixed(a):
                    return replace_cont(a, Cond(
                        c.decider, c.expr, _take_out(c.then, a),
                        _take_out(c.orelse, b)))
        # Order independent nested conditionals by decider name.
        if isinstance(c.then, Cond) and isinstance(c.orelse, Cond):
            a, b = c.then, c.orelse
            if (a.decider == b.decider and a.expr == b.expr
                    and a.decider != c.decider and a.decider < c.decider):
                return Cond(a.decider, a.expr,
                            Cond(c.decider, c.expr, a.then, b.then),
                            Cond(c.decider, c.expr, a.orelse, b.orelse))
    return None


def _free_actions(t):
    """The actions of the chain at the top of ``t`` that share no process
    with any action above them, so swaps can bring each to the top."""
    free, above = [], set()
    while type(t) in ACTIONS:
        names = head_pn(t)
        if not names & above:
            free.append(t)
        above |= names
        t = t.cont
    return free


def _take_out(t, action):
    """``t`` without ``action``, a node of the chain at its top."""
    spine = []
    while t is not action:
        spine.append(t)
        t = t.cont
    t = action.cont
    for node in reversed(spine):
        t = replace_cont(node, t)
    return t


# ---------------------------------------------------------------------------
# Network equivalence


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
        (h1, env1), (h2, env2) = head(t1, env1), head(t2, env2)
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
    live = [[(name, p) for name, p in n.procs
             if type(head(p.behaviour)[0]) is not Nil
             or not p.queue.is_empty()] for n in (n1, n2)]
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
