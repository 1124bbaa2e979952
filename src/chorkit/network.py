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

from dataclasses import dataclass
from typing import Optional

from .errors import GuardNotBoolean, NonEmptyQueue
from .render import render_expr, render_network, render_value
from .sync import StepLabel
from .terms import (
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
    SUBTERMS,
    gc,
    replace_cont,
    seq,
)
from .values import eval_with_cell


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
        inner_env = {**env, behaviour.var: behaviour.body}
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


def _cond_step(procs, name, head):
    """The step of process ``name`` whose exposed head is a conditional:
    the guard picks a branch, followed by the conditional's continuation."""
    p, node = procs[name], head.node
    guard = eval_with_cell(node.expr, p.state)
    if not isinstance(guard, BoolV):
        raise GuardNotBoolean(f"guard evaluated to {render_value(guard)}")
    branch = node.then if guard.b else node.orelse
    label = StepLabel("Then" if guard.b else "Else", (name,), (name,),
                      expr_src=render_expr(node.expr))
    return _step(procs, label, {name: Process(
        p.state, p.queue, head.rebuild(seq(branch, node.cont)))})


def enabled_sp(n: Network):
    """Synchronous steps: a rendezvous for every send head matched by a
    receive head, plus a conditional step per exposed guard.  ``n`` must be
    normalized; the successors then are too."""
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
                p, q = procs[name], procs[node.dst]
                v = eval_with_cell(node.expr, p.state)
                label = StepLabel("Com", (name, node.dst), (name,),
                                  value=v, expr_src=render_expr(node.expr))
                steps.append(_step(procs, label, {
                    name: Process(p.state, p.queue, head.rebuild(node.cont)),
                    node.dst: Process(v, q.queue,
                                      other.rebuild(other.node.cont))}))
        elif isinstance(node, BCond):
            steps.append(_cond_step(procs, name, head))
    return steps


def enabled_asp(n: Network):
    """Asynchronous steps: sends are non-blocking (enqueue at the target),
    receives fire when the sender's lane is non-empty.  ``n`` must be
    normalized; the successors then are too."""
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
            target = procs[node.dst]
            label = StepLabel("ComS", (name, node.dst), (name,),
                              value=v, expr_src=render_expr(node.expr))
            steps.append(_step(procs, label, {
                name: Process(p.state, p.queue, head.rebuild(node.cont)),
                node.dst: Process(target.state,
                                  target.queue.enqueue(Message(name, v)),
                                  target.behaviour)}))
        elif isinstance(node, BRecv):
            popped = p.queue.dequeue_from(node.src)
            if popped is None:
                continue
            v, rest = popped
            label = StepLabel("ComR", (node.src, name), (name,), value=v)
            steps.append(_step(procs, label, {
                name: Process(v, rest, head.rebuild(node.cont))}))
        elif isinstance(node, BCond):
            steps.append(_cond_step(procs, name, head))
    return steps


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
