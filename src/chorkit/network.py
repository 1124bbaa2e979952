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
    BoolV,
    BRecv,
    BSend,
    Message,
    Network,
    Nil,
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


def normalize_network(n: Network) -> Network:
    """Collect every behaviour and drop the processes that are done; a
    network with nothing to normalize is returned as it is."""
    procs = list(n.procs)
    collected = True
    for k, (name, p) in enumerate(procs):
        b = gc(p.behaviour)
        if b is not p.behaviour:
            procs[k] = name, Process(p.state, p.queue, b)
            collected = False
    _drop(procs, _drops([p.behaviour for _, p in procs],
                        [name for name, _ in procs], {}))
    if collected and len(procs) == len(n.procs):
        return n
    return Network(tuple(procs))


def _drops(behaviours, names, changed):
    """The indices, last first, of the processes whose behaviour is 0 once
    the behaviours ``changed`` (by index) replace theirs, and whose name no
    behaviour then holds as a partner; partners are only scanned when
    some behaviour is 0."""
    after = [changed.get(i, b) for i, b in enumerate(behaviours)]
    done = [i for i, b in enumerate(after) if type(b) is Nil]
    if not done:
        return ()
    named = set().union(*map(pn, after))
    return tuple([i for i in reversed(done) if names[i] not in named])


def _drop(procs, drops):
    """Delete from the list ``procs`` each process at the indices
    ``drops``, last first, whose queue is empty: it is done."""
    for k in drops:
        if not procs[k][1].queue.lanes:
            del procs[k]


def network_key(n: Network):
    return render_network(n)


# ---------------------------------------------------------------------------
# Step relations


class StepTable(dict):
    """Per collected behaviour, its head and the collected behaviours it
    continues as (one per branch of a conditional, followed by its
    continuation, one after a send or a receive), computed on first use."""

    def __missing__(self, b):
        node, env = head(b)
        kind = type(node)
        if kind is BCond:
            conts = seq(node.then, node.cont), seq(node.orelse, node.cont)
        else:
            conts = (node.cont,) if kind is BSend or kind is BRecv else ()
        entry = self[b] = (node, tuple(gc(resume(k, env)) for k in conts))
        return entry


class ControlTable(dict):
    """The moves of each control state that :func:`enabled` has been asked
    for, as :func:`_fill` gives them: the network twin of
    :class:`chorkit.sync.MoveTable`.  A control state, as
    :func:`control_state` gives it, decides who steps, with whom, and into
    which behaviours; the states and queues of a network decide only the
    values sent, the branches guards pick and which receives find a
    message.  ``heads`` is the :class:`StepTable` the fill reads.
    ``canon`` maps each (process name, behaviour) of the first network
    and of every move's successors to the behaviour object the table
    keeps for that process, so a process whose loop comes back to an
    equal behaviour comes back to the same object, and the control state
    is found by identity."""

    __slots__ = ("heads", "canon")

    def __init__(self):
        super().__init__()
        self.heads = StepTable()
        self.canon = {}


def control_state(procs, mode):
    """The key of the moves of the processes ``procs`` in ``mode``: the
    mode and each process's name and behaviour, in order."""
    return mode, *[(name, p.behaviour) for name, p in procs]


def _fill(table, procs, mode):
    """The moves of the processes ``procs`` in ``mode``, in process order,
    as (rule, i, j, operand, subjects, after, drops) tuples, which no state
    or queue decides.  Process ``i`` steps, with process ``j`` or alone
    (``j`` None).  ``rule`` is Com, ComS, ComR, or Cond for a conditional,
    whose guard picks Then or Else; ``operand`` is the expression of the
    value or guard, or the sender a receive reads from.  ``after`` holds
    the successor behaviours: of ``i`` and, for Com, of ``j``; for Cond,
    of ``i`` in either branch.  ``drops`` (one per branch for Cond) lists,
    last first, the processes that are 0 after the move and that no
    process names then; each goes if its queue is empty."""
    heads, canon = table.heads, table.canon
    names = [name for name, _ in procs]
    behaviours = [p.behaviour for _, p in procs]
    if not table:  # later networks hold these or the table's successors
        canon.update(((name, b), b) for name, b in zip(names, behaviours))
    idle = Nil in map(type, behaviours)  # some process is 0 already
    moves = []
    for i, b in enumerate(behaviours):
        node, after = heads[b]
        name = names[i]
        kind = type(node)
        if kind is BCond:
            after = tuple([canon.setdefault((name, b), b) for b in after])
            drops = tuple([_drops(behaviours, names, {i: b})
                           if idle or type(b) is Nil else () for b in after])
            moves.append(("Cond", i, None, node.expr, (name,), after, drops))
            continue
        if kind is BRecv and mode == "async":
            j, rule, operand = None, "ComR", node.src
            subjects = (node.src, name)
        elif kind is BSend and node.dst in names:
            j, rule, operand = names.index(node.dst), "ComS", node.expr
            subjects = (name, node.dst)
            if mode == "sync":
                other, other_after = heads[behaviours[j]]
                if type(other) is not BRecv or other.src != name:
                    continue  # no receive meets the send
                rule = "Com"
        else:
            continue  # a receive in sync mode, or no such partner
        b = after[0]
        after = (canon.setdefault((name, b), b),)
        if rule == "Com":  # the receive steps too
            b = other_after[0]
            after += (canon.setdefault((node.dst, b), b),)
        drops = (_drops(behaviours, names, dict(zip((i, j), after)))
                 if idle or Nil in map(type, after) else ())
        moves.append((rule, i, j, operand, subjects, after, drops))
    return tuple(moves)


def enabled(n: Network, mode: str, table=None):
    """The steps of the normalized network ``n`` in ``mode``, as (label,
    successor) pairs; the successors are normalized too.  In ``sync`` a
    send head fires together with the receive head it meets; in ``async``
    a send is non-blocking (it enqueues at the target) and a receive fires
    when the sender's lane is non-empty.  A conditional head steps alike in
    both: the guard picks a branch, followed by the conditional's
    continuation.  The moves of ``n``'s control state come from ``table``,
    a :class:`ControlTable` that a caller keeps across related networks,
    or from a fresh one; this evaluates each value and guard of them once,
    and rebuilds only the processes a step changes."""
    procs = n.procs
    if mode == "sync" and any(p.queue.lanes for _, p in procs):
        raise NonEmptyQueue("synchronous semantics requires empty queues")
    if table is None:
        table = ControlTable()
    key = control_state(procs, mode)
    moves = table.get(key)
    if moves is None:
        moves = table[key] = _fill(table, procs, mode)
    steps = []
    for rule, i, j, operand, subjects, after, drops in moves:
        name, p = procs[i]
        if rule == "ComR":
            popped = p.queue.dequeue_from(operand)
            if popped is None:
                continue
            v, rest = popped
            label = StepLabel(rule, subjects, (name,), value=v)
            p = Process(v, rest, after[0])
        else:
            v = eval_with_cell(operand, p.state)
            if rule == "Cond":
                if not isinstance(v, BoolV):
                    raise GuardNotBoolean(
                        f"guard evaluated to {render_value(v)}")
                label = StepLabel("Then" if v.b else "Else", subjects,
                                  subjects, expr=operand)
                branch = 0 if v.b else 1
                p = Process(p.state, p.queue, after[branch])
                drops = drops[branch]
            else:
                label = StepLabel(rule, subjects, (name,), value=v,
                                  expr=operand)
                p = Process(p.state, p.queue, after[0])
        succ = list(procs)
        succ[i] = name, p
        if j is not None:
            dst, q = succ[j]  # q is p again when a process sends to itself
            if rule == "Com":  # the receive takes the value at once
                q = Process(v, q.queue, after[1])
            else:
                q = Process(q.state, q.queue.enqueue(Message(name, v)),
                            q.behaviour)
            succ[j] = dst, q
        if drops:
            _drop(succ, drops)
        steps.append((label, Network(tuple(succ))))
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
    done = all(type(p.behaviour) is Nil for _, p in norm.procs)
    if done and any(not p.queue.is_empty() for _, p in norm.procs):
        return "orphaned-messages"
    return "deadlocked"
