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
    SUBTERMS,
    gc,
    head,
    resume,
    seq,
)
from .values import eval_with_cell


# ---------------------------------------------------------------------------
# Normalization


# The behaviour collector is the one :func:`chorkit.terms.gc`; the name
# stays because callers and the benchmark's tracer look it up here.
gc_behaviour = gc


def _partners(behaviours) -> set:
    """Every process that one of ``behaviours`` sends to or receives from."""
    acc = set()
    stack = list(behaviours)
    while stack:
        b = stack.pop()
        while type(b) in SUBTERMS:  # every one ends with a continuation
            kind = type(b)
            if kind is BSend:
                acc.add(b.dst)
            elif kind is BRecv:
                acc.add(b.src)
            elif kind is BCond:
                stack += (b.then, b.orelse)
            else:  # BDef
                stack.append(b.body)
            b = b.cont
    return acc


def _done(p) -> bool:
    """Behaviour 0 and an empty queue."""
    return type(p.behaviour) is BNil and p.queue.is_empty()


def normalize_network(n: Network) -> Network:
    """Collect every behaviour and drop the processes that are done; a
    network with nothing to normalize is returned as it is."""
    procs = []
    for entry in n.procs:
        name, p = entry
        b = gc(p.behaviour)
        procs.append(entry if b is p.behaviour
                     else (name, Process(p.state, p.queue, b)))
    referenced = _partners(p.behaviour for _, p in procs)
    keep = tuple(entry for entry in procs
                 if not (_done(entry[1]) and entry[0] not in referenced))
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


def _step(procs, label, changed):
    """``label`` with the successor of ``procs`` in which the ``changed``
    processes replace their old selves.  When ``procs`` are normalized, so
    is the successor: only the changed behaviours need collecting, and
    partners are only scanned when some process is done."""
    procs = {**procs}
    for name, p in changed.items():
        b = gc(p.behaviour)
        procs[name] = p if b is p.behaviour else Process(p.state, p.queue, b)
    done = [name for name, p in procs.items() if _done(p)]
    if done:
        referenced = _partners(p.behaviour for p in procs.values())
        for name in done:
            if name not in referenced:
                del procs[name]
    return label, Network.of(procs)


def enabled(n: Network, mode: str):
    """The steps of the normalized network ``n`` in ``mode``, as (label,
    successor) pairs; the successors are normalized too.  In ``sync`` a
    send head fires together with the receive head it meets; in ``async``
    a send is non-blocking (it enqueues at the target) and a receive fires
    when the sender's lane is non-empty.  A conditional head steps alike in
    both: the guard picks a branch, followed by the conditional's
    continuation."""
    if mode == "sync" and any(not p.queue.is_empty() for _, p in n.procs):
        raise NonEmptyQueue("synchronous semantics requires empty queues")
    procs = n.as_dict()
    heads = {name: head(p.behaviour) for name, p in procs.items()}
    steps = []
    for name, (node, env) in heads.items():
        p = procs[name]
        kind = type(node)
        if kind is BCond:
            guard = eval_with_cell(node.expr, p.state)
            if not isinstance(guard, BoolV):
                raise GuardNotBoolean(
                    f"guard evaluated to {render_value(guard)}")
            branch = node.then if guard.b else node.orelse
            label = StepLabel("Then" if guard.b else "Else", (name,),
                              (name,), expr=node.expr)
            changed = {name: Process(p.state, p.queue,
                                     resume(seq(branch, node.cont), env))}
        elif kind is BSend:
            q = procs.get(node.dst)
            other, other_env = heads.get(node.dst, (None, ()))
            if q is None or mode == "sync" and not (
                    type(other) is BRecv and other.src == name):
                continue  # no such process, or no receive meets the send
            v = eval_with_cell(node.expr, p.state)
            label = StepLabel("Com" if mode == "sync" else "ComS",
                              (name, node.dst), (name,), value=v,
                              expr=node.expr)
            if mode == "sync":  # the receive takes the value at once
                q = Process(v, q.queue, resume(other.cont, other_env))
            else:
                q = Process(q.state, q.queue.enqueue(Message(name, v)),
                            q.behaviour)
            changed = {name: Process(p.state, p.queue,
                                     resume(node.cont, env)),
                       node.dst: q}
        elif kind is BRecv and mode == "async":
            popped = p.queue.dequeue_from(node.src)
            if popped is None:
                continue
            v, rest = popped
            label = StepLabel("ComR", (node.src, name), (name,), value=v)
            changed = {name: Process(v, rest, resume(node.cont, env))}
        else:
            continue
        steps.append(_step(procs, label, changed))
    return steps


def enabled_sp(n: Network):
    """Synchronous steps: :func:`enabled` in ``sync`` mode."""
    return enabled(n, "sync")


def enabled_asp(n: Network):
    """Asynchronous steps: :func:`enabled` in ``async`` mode."""
    return enabled(n, "async")


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
