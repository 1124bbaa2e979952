"""Stateful process networks: synchronous (rendezvous) and asynchronous
(per-sender FIFO queues) semantics.

Networks are name-sorted finite maps, so parallel composition is
associative, commutative and unit-respecting by representation.  Successor
networks are normalized: recursion wrappers over 0 are folded and processes
that are done (behaviour 0, empty queue) are dropped, unless another
process still names them as a communication partner; dropping such a
process would disable a send that the precongruence keeps enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import GuardNotBoolean, NonEmptyQueue
from .render import render_expr, render_network, render_value
from .sync import StepLabel
from .terms import (
    BNIL,
    EMPTY_NETWORK,
    BCall,
    BCond,
    BDef,
    BNil,
    BoolV,
    BRecv,
    BSend,
    Message,
    Network,
    Process,
    Queue,
    Value,
    behaviour_seq,
    replace_cont,
)
from .values import eval_with_cell


# ---------------------------------------------------------------------------
# Queue operations (thin wrappers over the canonical lane form)


def enqueue(queue: Queue, msg: Message) -> Queue:
    return queue.enqueue(msg)


def dequeue_from(queue: Queue, sender: str):
    """Head of ``sender``'s lane and the remaining queue, or None: absence
    of the lane is exactly when the receive rule is disabled."""
    return queue.dequeue_from(sender)


# ---------------------------------------------------------------------------
# Behaviour head exposure


@dataclass(frozen=True)
class _Head:
    node: object  # BSend | BRecv | BCond
    rebuild: object  # Behaviour -> Behaviour, reinstalls recursion frames


def expose_head(behaviour, env=None, unfolded=frozenset()) -> Optional[_Head]:
    """Walk recursion frames to the next action; unfold each definition at
    most once per exposure."""
    env = env or {}
    if isinstance(behaviour, (BSend, BRecv, BCond)):
        return _Head(behaviour, lambda b: b)
    if isinstance(behaviour, BDef):
        inner_env = dict(env)
        inner_env[behaviour.var] = behaviour.body
        head = expose_head(behaviour.cont, inner_env, unfolded)
        if head is None:
            return None
        outer = behaviour
        return _Head(head.node,
                     lambda b, h=head: replace_cont(outer, h.rebuild(b)))
    if isinstance(behaviour, BCall):
        if behaviour.var in unfolded or behaviour.var not in env:
            return None
        return expose_head(env[behaviour.var], env,
                           unfolded | {behaviour.var})
    return None  # BNil


def _advance(head: _Head, cell: Value):
    """Behaviour after firing the exposed head; conditionals pick a branch
    by the guard."""
    node = head.node
    if isinstance(node, (BSend, BRecv)):
        return head.rebuild(node.cont), None
    guard = eval_with_cell(node.expr, cell)
    if not isinstance(guard, BoolV):
        raise GuardNotBoolean(
            f"guard evaluated to {render_value(guard)}")
    branch = node.then if guard.b else node.orelse
    rule = "Then" if guard.b else "Else"
    return head.rebuild(behaviour_seq(branch, node.cont)), rule


# ---------------------------------------------------------------------------
# Normalization


def _inert(b, bound=frozenset()) -> bool:
    """No action anywhere and no free recursion call: such a behaviour can
    never step, since unfolding only copies existing subterms."""
    if isinstance(b, (BSend, BRecv, BCond)):
        return False
    if isinstance(b, BDef):
        inner = bound | {b.var}
        return _inert(b.body, inner) and _inert(b.cont, inner)
    if isinstance(b, BCall):
        return b.var in bound
    return True  # BNil


def gc_behaviour(b):
    """The behaviour counterpart of :func:`chorkit.sync.gc`; a behaviour
    with nothing to collect is returned as it is."""
    if isinstance(b, (BSend, BRecv)):
        return replace_cont(b, gc_behaviour(b.cont))
    if isinstance(b, BCond):
        then, orelse = gc_behaviour(b.then), gc_behaviour(b.orelse)
        cont = gc_behaviour(b.cont)
        if then is b.then and orelse is b.orelse and cont is b.cont:
            return b
        return BCond(b.expr, then, orelse, cont)
    if isinstance(b, BDef):
        if _inert(b):
            return BNIL
        cont = gc_behaviour(b.cont)
        if isinstance(cont, BNil):
            return BNIL
        body = gc_behaviour(b.body)
        if body is b.body and cont is b.cont:
            return b
        return BDef(b.var, body, cont)
    return b  # BNil, or a call that no definition encloses


def _partners(b, acc):
    if isinstance(b, BSend):
        acc.add(b.dst)
        _partners(b.cont, acc)
    elif isinstance(b, BRecv):
        acc.add(b.src)
        _partners(b.cont, acc)
    elif isinstance(b, BCond):
        _partners(b.then, acc)
        _partners(b.orelse, acc)
        _partners(b.cont, acc)
    elif isinstance(b, BDef):
        _partners(b.body, acc)
        _partners(b.cont, acc)


def normalize_network(n: Network) -> Network:
    """Collect every behaviour and drop the processes that are done; a
    network with nothing to normalize is returned as it is."""
    procs = []
    for entry in n.procs:
        name, p = entry
        b = gc_behaviour(p.behaviour)
        procs.append(entry if b is p.behaviour
                     else (name, Process(p.state, p.queue, b)))
    referenced = set()
    for _, p in procs:
        _partners(p.behaviour, referenced)
    keep = tuple(entry for entry in procs
                 if not (isinstance(entry[1].behaviour, BNil)
                         and entry[1].queue.is_empty()
                         and entry[0] not in referenced))
    if len(keep) == len(n.procs) and all(
            a is b for a, b in zip(keep, n.procs)):
        return n
    return Network(keep)


def network_key(n: Network):
    return render_network(n)


def lift_to_async(n: Network) -> Network:
    """An SP network viewed in the asynchronous calculus: every queue empty.

    The representation already carries (empty) queues, so this is the
    identity; it exists to mark intent at call sites.
    """
    if any(not p.queue.is_empty() for _, p in n.procs):
        raise NonEmptyQueue("not an SP network")
    return n


# ---------------------------------------------------------------------------
# Step relations


def enabled_sp(n: Network):
    """Synchronous steps: a rendezvous for every send head matched by a
    receive head, plus a conditional step per exposed guard."""
    if any(not p.queue.is_empty() for _, p in n.procs):
        raise NonEmptyQueue("synchronous semantics requires empty queues")
    procs = n.as_dict()
    heads = {name: expose_head(p.behaviour) for name, p in procs.items()}
    steps = []
    for name, head in heads.items():
        if head is None:
            continue
        node = head.node
        if isinstance(node, BSend):
            other = heads.get(node.dst)
            if other is not None and isinstance(other.node, BRecv) \
                    and other.node.src == name:
                v = eval_with_cell(node.expr, procs[name].state)
                new = dict(procs)
                new[name] = Process(procs[name].state, procs[name].queue,
                                    head.rebuild(node.cont))
                new[node.dst] = Process(v, procs[node.dst].queue,
                                        other.rebuild(other.node.cont))
                label = StepLabel("Com", (name, node.dst), (name,),
                                  value=v, expr_src=render_expr(node.expr))
                steps.append((label, normalize_network(Network.of(new))))
        elif isinstance(node, BCond):
            succ_b, rule = _advance(head, procs[name].state)
            new = dict(procs)
            new[name] = Process(procs[name].state, procs[name].queue, succ_b)
            label = StepLabel(rule, (name,), (name,),
                              expr_src=render_expr(node.expr))
            steps.append((label, normalize_network(Network.of(new))))
    return steps


def enabled_asp(n: Network):
    """Asynchronous steps: sends are non-blocking (enqueue at the target),
    receives fire when the sender's lane is non-empty."""
    procs = n.as_dict()
    steps = []
    for name, p in procs.items():
        head = expose_head(p.behaviour)
        if head is None:
            continue
        node = head.node
        if isinstance(node, BSend):
            if node.dst not in procs:
                continue  # no such process: the send blocks forever
            v = eval_with_cell(node.expr, p.state)
            new = dict(procs)
            new[name] = Process(p.state, p.queue, head.rebuild(node.cont))
            target = procs[node.dst]
            new[node.dst] = Process(target.state,
                                    target.queue.enqueue(Message(name, v)),
                                    target.behaviour)
            label = StepLabel("ComS", (name, node.dst), (name,),
                              value=v, expr_src=render_expr(node.expr))
            steps.append((label, normalize_network(Network.of(new))))
        elif isinstance(node, BRecv):
            popped = p.queue.dequeue_from(node.src)
            if popped is None:
                continue
            v, rest = popped
            new = dict(procs)
            new[name] = Process(v, rest, head.rebuild(node.cont))
            label = StepLabel("ComR", (node.src, name), (name,), value=v)
            steps.append((label, normalize_network(Network.of(new))))
        elif isinstance(node, BCond):
            succ_b, rule = _advance(head, p.state)
            new = dict(procs)
            new[name] = Process(p.state, p.queue, succ_b)
            label = StepLabel(rule, (name,), (name,),
                              expr_src=render_expr(node.expr))
            steps.append((label, normalize_network(Network.of(new))))
    return steps


def classify(n: Network, mode: str) -> str:
    """One of running, terminated, orphaned-messages, deadlocked."""
    norm = normalize_network(n)
    if norm.is_empty():
        return "terminated"
    steps = enabled_sp(norm) if mode == "sync" else enabled_asp(norm)
    if steps:
        return "running"
    done = all(isinstance(gc_behaviour(p.behaviour), BNil)
               for _, p in norm.procs)
    if done and any(not p.queue.is_empty() for _, p in norm.procs):
        return "orphaned-messages"
    return "deadlocked"
