"""Stateful process networks: synchronous (rendezvous) and asynchronous
(per-sender FIFO queues) semantics.

Networks are name-sorted finite maps, so parallel composition is
associative, commutative and unit-respecting by representation.  A network
is normalized when recursion wrappers over 0 are folded and processes that
are done (behaviour 0, empty queue) are dropped, unless another process
still names them as a communication partner; dropping such a process would
disable a send that the precongruence keeps enabled.  The step relations
take a normalized network and then give normalized successors.
"""

from __future__ import annotations

from .errors import GuardNotBoolean, NonEmptyQueue
from .render import render_network, render_value
from .sync import StepLabel
from .terms import (
    BCond,
    BNil,
    BoolV,
    BRecv,
    BSend,
    Message,
    Network,
    Process,
    gc,
    head,
    pn,
    resume,
    seq,
)
from .values import eval_with_cell


# ---------------------------------------------------------------------------
# Normalization


# The behaviour collector is the one :func:`chorkit.terms.gc`; the name
# stays because callers and the benchmark's tracer look it up here.
gc_behaviour = gc


def _done(p) -> bool:
    """Behaviour 0 and an empty queue."""
    return type(p.behaviour) is BNil and p.queue.is_empty()


def _drop_done(procs: dict) -> None:
    """Delete from ``procs`` the processes that are done and that no
    process names as a partner; partners are only scanned when some
    process is done."""
    done = [name for name, p in procs.items() if _done(p)]
    if done:
        referenced = set().union(*(pn(p.behaviour)
                                   for p in procs.values()))
        for name in done:
            if name not in referenced:
                del procs[name]


def normalize_network(n: Network) -> Network:
    """Collect every behaviour and drop the processes that are done; a
    network with nothing to normalize is returned as it is."""
    procs = {}
    collected = True
    for name, p in n.procs:
        b = gc(p.behaviour)
        if b is not p.behaviour:
            p = Process(p.state, p.queue, b)
            collected = False
        procs[name] = p
    _drop_done(procs)
    if collected and len(procs) == len(n.procs):
        return n
    return Network(tuple(procs.items()))


def network_key(n: Network):
    return render_network(n)


# ---------------------------------------------------------------------------
# Step relations


class StepTable(dict):
    """Per collected behaviour, its head and the collected behaviours it
    continues as (one per branch of a conditional, followed by its
    continuation, one after a send or a receive), computed on first use.
    Successors pass through ``own``, which maps a term to the equal one
    its owner keeps (by default the term itself), so a successor is the
    very object that later looks up its own entry."""

    __slots__ = ("own",)

    def __init__(self, own=lambda term: term):
        super().__init__()
        self.own = own

    def __missing__(self, b):
        node, env = head(b)
        kind = type(node)
        if kind is BCond:
            conts = seq(node.then, node.cont), seq(node.orelse, node.cont)
        else:
            conts = (node.cont,) if kind is BSend or kind is BRecv else ()
        own = self.own
        entry = self[b] = (node, tuple(own(gc(resume(k, env)))
                                       for k in conts))
        return entry


def _step(procs, label, changed):
    """``label`` with the successor of ``procs`` in which the ``changed``
    processes, whose behaviours are collected, replace their old selves.
    When ``procs`` are normalized, so is the successor."""
    procs = {**procs, **changed}
    _drop_done(procs)
    return label, Network.of(procs)


def enabled(n: Network, mode: str, table=None):
    """The steps of the normalized network ``n`` in ``mode``, as (label,
    successor) pairs; the successors are normalized too.  In ``sync`` a
    send head fires together with the receive head it meets; in ``async``
    a send is non-blocking (it enqueues at the target) and a receive fires
    when the sender's lane is non-empty.  A conditional head steps alike in
    both: the guard picks a branch, followed by the conditional's
    continuation.  Heads and successor behaviours come from ``table``, a
    :class:`StepTable`, or from a fresh one when none is given."""
    if mode == "sync" and any(not p.queue.is_empty() for _, p in n.procs):
        raise NonEmptyQueue("synchronous semantics requires empty queues")
    if table is None:
        table = StepTable()
    procs = n.as_dict()
    moves = {name: table[p.behaviour] for name, p in procs.items()}
    steps = []
    for name, (node, after) in moves.items():
        p = procs[name]
        kind = type(node)
        if kind is BCond:
            guard = eval_with_cell(node.expr, p.state)
            if not isinstance(guard, BoolV):
                raise GuardNotBoolean(
                    f"guard evaluated to {render_value(guard)}")
            label = StepLabel("Then" if guard.b else "Else", (name,),
                              (name,), expr=node.expr)
            changed = {name: Process(p.state, p.queue,
                                     after[0 if guard.b else 1])}
        elif kind is BSend:
            q = procs.get(node.dst)
            other, other_after = moves.get(node.dst, (None, ()))
            if q is None or mode == "sync" and not (
                    type(other) is BRecv and other.src == name):
                continue  # no such process, or no receive meets the send
            v = eval_with_cell(node.expr, p.state)
            label = StepLabel("Com" if mode == "sync" else "ComS",
                              (name, node.dst), (name,), value=v,
                              expr=node.expr)
            if mode == "sync":  # the receive takes the value at once
                q = Process(v, q.queue, other_after[0])
            else:
                q = Process(q.state, q.queue.enqueue(Message(name, v)),
                            q.behaviour)
            changed = {name: Process(p.state, p.queue, after[0]),
                       node.dst: q}
        elif kind is BRecv and mode == "async":
            popped = p.queue.dequeue_from(node.src)
            if popped is None:
                continue
            v, rest = popped
            label = StepLabel("ComR", (node.src, name), (name,), value=v)
            changed = {name: Process(v, rest, after[0])}
        else:
            continue
        steps.append(_step(procs, label, changed))
    return steps


def enabled_sp(n: Network, table=None):
    """Synchronous steps: :func:`enabled` in ``sync`` mode."""
    return enabled(n, "sync", table)


def enabled_asp(n: Network, table=None):
    """Asynchronous steps: :func:`enabled` in ``async`` mode."""
    return enabled(n, "async", table)


def classify(n: Network, mode: str) -> str:
    """One of running, terminated, orphaned-messages, deadlocked."""
    norm = normalize_network(n)
    if norm.is_empty():
        return "terminated"
    steps = enabled_sp(norm) if mode == "sync" else enabled_asp(norm)
    if steps:
        return "running"
    done = all(type(p.behaviour) is BNil for _, p in norm.procs)
    if done and any(not p.queue.is_empty() for _, p in norm.procs):
        return "orphaned-messages"
    return "deadlocked"
