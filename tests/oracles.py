"""Independent reference implementations used to validate the engines.

The step engines decide enabledness by interference analysis; the oracle
here instead computes the literal rewrite closure of a choreography under
the swap rules and fires actions only at the very top of a term.  The two
must agree on every recursion-free input.  A second oracle validates the
queue representation: the per-sender lane form must identify exactly the
message sequences related by swapping adjacent messages from distinct
senders.  A third, the bounded search for a common unfolding, is the
reference for exact behaviour equivalence; the same search over
canonical forms, with unfolding by substitution, compares choreographies
up to precongruence and answers None ("unknown") when its budget runs out.
A walk of its own lists the messages in transit to each process, the
reference for the queues that projection seeds.  Well-formedness is
decided by the plain rewrite loop: the folding rewrite applies at the
first place it applies to from the top of the whole term, again after
every rewrite, and settledness is a second pass.  The network steps are
read off the semantics directly, each head found afresh and each
successor the whole network rebuilt, the reference for the network
engine's table of moves.

Nothing in this module may import from the engine code paths it validates
beyond the shared AST and its traversal core, the expression evaluator,
gc, the tag substitution, and the canonicalizer the choreography
comparison reduces to.
"""

from __future__ import annotations

from dataclasses import replace

from chorkit.congruence import canonical
from chorkit.errors import IllFormed, NotProjectable
from chorkit.render import render_choreography, render_expr, render_value
from chorkit.sync import gc, subst_tag
from chorkit.terms import (
    ACTIONS,
    NIL,
    BCond,
    BRecv,
    BSend,
    Call,
    Com,
    Cond,
    Def,
    Message,
    Network,
    Nil,
    Process,
    Queue,
    RtRecv,
    RtSend,
    Tag,
    fold,
    head,
    head_pn,
    kids,
    rebuild,
    replace_cont,
    replace_kid,
    resume,
    rewrite_first,
    seq,
    subterms,
)
from chorkit.values import eval_expr, eval_with_cell

# ---------------------------------------------------------------------------
# Rewrite closure


def _swap_rewrites(c):
    """One-step swap rewrites anywhere in ``c``.

    Rules: adjacent name-disjoint actions commute; an action common to both
    branches of a conditional (and not involving the decider) hoists out;
    an action ahead of a conditional (and not involving the decider) pushes
    into both branches; nested conditionals over the same guard commute.
    """
    if isinstance(c, (Com, RtSend, RtRecv)):
        nxt = c.cont
        if isinstance(nxt, (Com, RtSend, RtRecv)) \
                and not (head_pn(c) & head_pn(nxt)):
            yield replace(nxt, cont=replace(c, cont=nxt.cont))
        if isinstance(nxt, Cond) and nxt.decider not in head_pn(c):
            yield Cond(nxt.decider, nxt.expr,
                       replace(c, cont=nxt.then),
                       replace(c, cont=nxt.orelse))
        for k in _swap_rewrites(c.cont):
            yield replace(c, cont=k)
    elif isinstance(c, Cond):
        t, o = c.then, c.orelse
        if isinstance(t, (Com, RtSend, RtRecv)) and type(t) is type(o) \
                and replace(t, cont=NIL) == replace(o, cont=NIL) \
                and c.decider not in head_pn(t):
            yield replace(t, cont=Cond(c.decider, c.expr, t.cont, o.cont))
        if isinstance(t, Cond) and isinstance(o, Cond) \
                and t.decider == o.decider and t.expr == o.expr \
                and t.decider != c.decider:
            yield Cond(t.decider, t.expr,
                       Cond(c.decider, c.expr, t.then, o.then),
                       Cond(c.decider, c.expr, t.orelse, o.orelse))
        for k in _swap_rewrites(t):
            yield Cond(c.decider, c.expr, k, o)
        for k in _swap_rewrites(o):
            yield Cond(c.decider, c.expr, t, k)


def _unfold_rewrites(c, tags, path_tagged=False):
    """Expand one communication into an explicit send/receive pair.

    The tag is a function of (sender, expression, receiver), so expanding
    the same communication in both branches of a conditional produces
    syntactically equal send heads (hoistable), while communications to
    different receivers never share a tag: a single in-flight message
    cannot change addressee with the branch outcome.  At most one expansion
    per execution path keeps fired successors free of leftover tags.
    """
    if isinstance(c, Com):
        if not path_tagged and not _has_oracle_tag(c.cont):
            ident = (c.src, render_expr(c.expr), c.dst)
            if ident not in tags:
                tags[ident] = Tag(1_000_000 + len(tags))
            x = tags[ident]
            yield RtSend(c.src, c.expr, x, RtRecv(c.src, x, c.dst, c.cont))
        for k in _unfold_rewrites(c.cont, tags, path_tagged):
            yield replace(c, cont=k)
    elif isinstance(c, (RtSend, RtRecv)):
        # Only oracle-made expansions (tag ids >= 1e6) block further
        # expansion on the path; user-written runtime pairs are ordinary
        # term content and appear in engine successors too.
        if isinstance(c, RtSend):
            tagged = path_tagged or c.tag.id >= 1_000_000
        else:
            tagged = path_tagged or (isinstance(c.payload, Tag)
                                     and c.payload.id >= 1_000_000)
        for k in _unfold_rewrites(c.cont, tags, tagged):
            yield replace(c, cont=k)
    elif isinstance(c, Cond):
        for k in _unfold_rewrites(c.then, tags, path_tagged):
            yield Cond(c.decider, c.expr, k, c.orelse)
        for k in _unfold_rewrites(c.orelse, tags, path_tagged):
            yield Cond(c.decider, c.expr, c.then, k)


def rewrite_closure(c, unfold: bool):
    """Every term reachable from ``c`` by swaps (and, when ``unfold`` is
    set, by expanding communications into send/receive pairs)."""
    tags = {}
    seen = {render_choreography(c): c}
    frontier = [c]
    while frontier:
        nxt = []
        for t in frontier:
            variants = list(_swap_rewrites(t))
            if unfold:
                variants.extend(_unfold_rewrites(t, tags))
            for v in variants:
                k = render_choreography(v)
                if k not in seen:
                    seen[k] = v
                    nxt.append(v)
        frontier = nxt
    return list(seen.values())


# ---------------------------------------------------------------------------
# Firing at the top of a term


def closure_min(chor) -> str:
    """True canonical form under the swap rules: the lexicographically
    least rendering across the whole rewrite closure.  Unlike the package's
    fast canonicalizer this cannot miss an identification."""
    return min(render_choreography(t)
               for t in rewrite_closure(gc(chor), unfold=False))


def _succ_key(chor, sigma):
    return (closure_min(chor), sigma.cells)


def _fire_top(c, sigma, mode):
    """Steps available at the very top of ``c`` as
    (signature, successor key) pairs.  Send signatures name only the
    sender: a detached send and the send half of a folded communication are
    the same event."""
    out = set()
    if isinstance(c, Com):
        v = eval_expr(c.expr, sigma, c.src)
        if mode == "sync":
            out.add((("Com", (c.src, c.dst), render_value(v)),
                     _succ_key(c.cont, sigma.update(c.dst, v))))
        else:
            out.add((("ComS", c.src, render_value(v)),
                     _succ_key(RtRecv(c.src, v, c.dst, c.cont), sigma)))
    elif isinstance(c, RtSend) and mode == "async":
        v = eval_expr(c.expr, sigma, c.src)
        out.add((("ComS", c.src, render_value(v)),
                 _succ_key(subst_tag(c.cont, c.tag, v), sigma)))
    elif isinstance(c, RtRecv) and mode == "async" \
            and not isinstance(c.payload, Tag):
        out.add((("ComR", (c.src, c.dst), render_value(c.payload)),
                 _succ_key(c.cont, sigma.update(c.dst, c.payload))))
    elif isinstance(c, Cond):
        v = eval_expr(c.expr, sigma, c.decider)
        branch = c.then if v.b else c.orelse
        rule = "Then" if v.b else "Else"
        out.add(((rule, (c.decider,)), _succ_key(branch, sigma)))
    return out


def _has_oracle_tag(c) -> bool:
    if isinstance(c, RtSend):
        return c.tag.id >= 1_000_000 or _has_oracle_tag(c.cont)
    if isinstance(c, RtRecv):
        return (isinstance(c.payload, Tag) and c.payload.id >= 1_000_000) \
            or _has_oracle_tag(c.cont)
    if isinstance(c, Com):
        return _has_oracle_tag(c.cont)
    if isinstance(c, Cond):
        return _has_oracle_tag(c.then) or _has_oracle_tag(c.orelse)
    return False


def oracle_enabled(chor, sigma, mode):
    """Reference step relation: rewrite ``chor`` every possible way, then
    fire whatever sits at the top.  From terms containing an oracle-made
    expansion, only the expanded send may fire (anything else a swap could
    surface there is surfaced without the expansion too, and firing it
    would leave the expansion's tag dangling in the successor)."""
    steps = set()
    for t in rewrite_closure(gc(chor), unfold=(mode == "async")):
        if _has_oracle_tag(t):
            if isinstance(t, RtSend) and t.tag.id >= 1_000_000:
                steps |= _fire_top(t, sigma, mode)
        else:
            steps |= _fire_top(t, sigma, mode)
    return steps


def engine_enabled_keys(cfg, mode):
    """The engine's steps, projected onto the oracle's signature space."""
    from chorkit.sync import enabled

    out = set()
    for label, succ in enabled(cfg, mode):
        if label.rule == "ComS":
            sig = ("ComS", label.subjects[0], render_value(label.value))
        elif label.rule in ("Then", "Else"):
            sig = (label.rule, label.subjects)
        else:
            sig = (label.rule, label.subjects, render_value(label.value))
        out.add((sig, _succ_key(succ.chor, succ.state)))
    return out


# ---------------------------------------------------------------------------
# Queue congruence oracle


def sequence_closure(seq):
    """All message sequences reachable from ``seq`` by swapping adjacent
    messages with distinct senders."""
    seen = {seq}
    frontier = [seq]
    while frontier:
        nxt = []
        for s in frontier:
            for i in range(len(s) - 1):
                if s[i].sender != s[i + 1].sender:
                    swapped = s[:i] + (s[i + 1], s[i]) + s[i + 2:]
                    if swapped not in seen:
                        seen.add(swapped)
                        nxt.append(swapped)
        frontier = nxt
    return seen


def oracle_dequeue(seq, sender):
    """First message from ``sender`` (always swappable to the front) and
    the remaining sequence, or None."""
    for i, m in enumerate(seq):
        if m.sender == sender:
            return m.payload, seq[:i] + seq[i + 1:]
    return None


# ---------------------------------------------------------------------------
# Bounded behaviour equivalence


def bounded_behaviour_equiv(b1, b2, unfold_budget: int):
    """True when at most ``unfold_budget`` rounds of unfolding on each side
    reach a common collected term; None when they do not and a definition
    is left, False when none is."""
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
    if any(type(s) is Def for b in (b1, b2) for s in subterms(b)):
        return None
    return False


# ---------------------------------------------------------------------------
# Unfolding by substitution, and budgeted choreography comparison


def subst_call(t, var: str, body):
    """Replace the calls of ``var`` that no inner definition of ``var``
    shadows by ``body`` (one unfolding: calls inside the substituted body
    are left alone)."""
    if type(t) is Call and t.var == var:
        return body
    if type(t) is Def and t.var == var:
        return t
    return rebuild(t, [subst_call(k, var, body) for k in kids(t)])


def unfold_variants(t):
    """All terms reachable by one recursion unfolding somewhere in ``t``, a
    choreography or a behaviour."""
    out = []
    if type(t) is Def:
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
# Messages in transit

_PENDING = "cannot project a receive whose message is still pending"


def project_queue(c, r: str) -> list:
    """Messages in transit addressed to ``r``, in arrival order."""
    out = []
    while True:
        kind = type(c)
        if kind is RtRecv:
            if isinstance(c.payload, Tag):
                raise IllFormed(_PENDING)
            if r == c.dst:
                out.append(Message(c.src, c.payload))
        elif kind is RtSend:
            raise IllFormed("cannot project a detached send")
        elif kind is Cond:
            then = project_queue(c.then, r)
            if r != c.decider and then != project_queue(c.orelse, r):
                raise NotProjectable(
                    f"in-transit messages for {r!r} differ between branches")
            return out + then
        elif kind is not Com and kind is not Def:
            return out  # Nil, Call
        c = c.cont


# ---------------------------------------------------------------------------
# Well-formedness


def oracle_well_formed(c):
    """Decide whether ``c`` can arise from executing a runtime-free program,
    rewriting from the top of the term again after every rewrite.

    After folding every matched send/receive pair back into a
    communication, the term must contain no detached send and no receive
    still waiting on its tag, and every in-transit message must be ahead of
    any future communication on the same sender-to-receiver lane: a message
    sitting behind one would be delivered out of FIFO order by any queue
    implementation.  Returns ``(True, canonical_form)`` or ``(False, None)``.
    """
    term = gc(c)
    # Folding ends, by the measure in the docstring of _fold_here.
    while (new := rewrite_first(term, _fold_here)) is not None:
        term = new
    if fold(term, _settled_end, _settled_chain) is None:
        return False, None
    return True, term


def _settled_end(c, done):
    """The lanes (sender, receiver) that still hold a message in transit
    in ``c``, not a prefix, from those of its subterms, ``done``; None
    when ``c`` is not settled.  A settled term holds no detached send, no
    tag-carrying receive, no runtime term inside a recursion body
    (execution never puts one there), and, along any branch, no message
    in transit behind a communication on its lane, which has closed it."""
    if type(c) is Cond:
        then, orelse = done
        return None if then is None or orelse is None else then | orelse
    if type(c) is Def:
        # A runtime-free body (no lanes, and settled) runs only after a
        # call, which nothing follows, so only the continuation counts.
        body, cont = done
        return cont if body == frozenset() else None
    return frozenset()


def _settled_chain(run, lanes):
    """:func:`_settled_end` of the prefixes ``run`` above ``lanes``."""
    for c in reversed(run):
        if lanes is None or type(c) is RtSend:
            return None
        if type(c) is Com and (c.src, c.dst) in lanes:
            return None
        if type(c) is RtRecv:
            if type(c.payload) is Tag:
                return None
            lanes = lanes | {(c.src, c.dst)}
    return lanes


def _fold_here(c):
    """One folding rewrite at the top of ``c``, or None.

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
    tag = _pending_tag(c)
    if tag is None or type(c.cont) not in ACTIONS:
        return None
    nxt = c.cont
    other = _pending_tag(nxt)
    if other == tag and type(nxt) is not type(c):  # the matched pair
        send, recv = (c, nxt) if type(c) is RtSend else (nxt, c)
        return Com(send.src, send.expr, recv.dst, nxt.cont)
    if (not (head_pn(c) & head_pn(nxt)) and _tag_ahead(tag, nxt.cont)
            and (other is None or not _tag_ahead(other, nxt.cont))):
        return replace_cont(nxt, replace_cont(c, nxt.cont))
    return None


def _pending_tag(c):
    """The tag of a detached send or of a receive still waiting on its
    send; None for any other node."""
    if type(c) is RtSend:
        return c.tag
    if type(c) is RtRecv and type(c.payload) is Tag:
        return c.payload
    return None


def _tag_ahead(tag: Tag, c) -> bool:
    """True if the other half of ``tag``'s pair occurs ahead in this chain."""
    while type(c) in ACTIONS:
        if _pending_tag(c) == tag:
            return True
        c = c.cont
    return False


# ---------------------------------------------------------------------------
# Network steps


def network_steps(n, mode):
    """The steps of the network ``n`` in ``mode``, in process order, as
    (rule, subjects, path, value, expr, successor) tuples.  Each head is
    found afresh, and each successor is the whole network with the
    changed processes replaced, not yet normalized."""
    procs = dict(n.procs)
    heads = {name: head(p.behaviour) for name, p in procs.items()}

    def after(name, k):
        return gc(resume(k, heads[name][1]))

    steps = []
    for name, p in procs.items():
        node = heads[name][0]
        kind = type(node)
        if kind is BCond:
            guard = eval_with_cell(node.expr, p.state)
            branch = node.then if guard.b else node.orelse
            behaviour = after(name, seq(branch, node.cont))
            step = ("Then" if guard.b else "Else", (name,), None, node.expr,
                    {name: Process(p.state, p.queue, behaviour)})
        elif kind is BSend and node.dst in procs:
            other = heads[node.dst][0]
            if mode == "sync" and not (type(other) is BRecv
                                       and other.src == name):
                continue
            v = eval_with_cell(node.expr, p.state)
            changed = {name: Process(p.state, p.queue, after(name, node.cont))}
            q = changed.get(node.dst, procs[node.dst])
            if mode == "sync":
                q = Process(v, q.queue, after(node.dst, other.cont))
                rule = "Com"
            else:
                q = Process(q.state, q.queue.enqueue(Message(name, v)),
                            q.behaviour)
                rule = "ComS"
            changed[node.dst] = q
            step = (rule, (name, node.dst), v, node.expr, changed)
        elif kind is BRecv and mode == "async":
            popped = p.queue.dequeue_from(node.src)
            if popped is None:
                continue
            v, rest = popped
            step = ("ComR", (node.src, name), v, None,
                    {name: Process(v, rest, after(name, node.cont))})
        else:
            continue
        rule, subjects, value, expr, changed = step
        succ = Network(tuple(sorted({**procs, **changed}.items())))
        steps.append((rule, subjects, (name,), value, expr, succ))
    return steps
