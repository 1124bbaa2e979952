"""Endpoint projection: compile a choreography into one behaviour per
process, plus queue seeding for messages in transit.

A conditional projects to a local conditional at the decider; every other
process must behave identically, and find the same messages in transit,
in both branches (syntactic equality of the projections), otherwise the
choreography is not projectable.
"""

from __future__ import annotations

from .errors import IllFormed, NotProjectable
from .chor_async import well_formed
from .terms import (
    BNIL,
    BCall,
    BCond,
    BDef,
    BRecv,
    BSend,
    Call,
    Com,
    Cond,
    Def,
    Message,
    Network,
    Process,
    Queue,
    RtRecv,
    RtSend,
    Tag,
    gc,
    pn,
    runtime_free,
)
from .values import GlobalState

_PENDING = "cannot project a receive whose message is still pending"


def _project(c, r: str, memo) -> tuple:
    """The behaviour of ``r`` in ``c`` and the tuple of messages in transit
    to ``r``, in arrival order.  ``memo``, None or a dict the caller keeps
    across calls, maps each process to a dict from the subterms projected
    for it so far to that pair, so a subterm shared between choreographies
    projects once, to the same behaviour object."""
    # Actions of ``r`` along the prefix chain are collected in a loop and
    # wrapped around the projection of the chain's end, so chains of any
    # length project without deep recursion.
    seen = None if memo is None else memo.setdefault(r, {})
    chain = []
    while True:
        found = seen.get(c) if seen else None
        if found is not None:
            break
        kind = type(c)
        if kind is not Com and kind is not RtRecv:
            found = _project_end(c, r, memo)
            break
        if kind is RtRecv and isinstance(c.payload, Tag):
            raise IllFormed(_PENDING)
        chain.append(c)
        c = c.cont
    if seen is not None:
        seen[c] = found
    b, queue = found
    for node in reversed(chain):
        if type(node) is Com and r == node.src:
            b = BSend(node.dst, node.expr, b)
        elif r == node.dst:
            b = BRecv(node.src, b)
            if type(node) is RtRecv:
                queue = (Message(node.src, node.payload),) + queue
        if seen is not None:
            seen[node] = b, queue
    return b, queue


def _project_end(c, r: str, memo) -> tuple:
    """:func:`_project` of ``c``, which is not an action of a chain."""
    if isinstance(c, RtSend):
        raise IllFormed("cannot project a detached send")
    if isinstance(c, Cond):
        then, queue = _project(c.then, r, memo)
        orelse, other = _project(c.orelse, r, memo)
        if r == c.decider:
            return BCond(c.expr, then, orelse, BNIL), queue
        if queue != other:
            raise NotProjectable(
                f"in-transit messages for {r!r} differ between branches")
        if then != orelse:
            raise NotProjectable(
                f"conditional branches disagree at process {r!r}")
        return then, queue
    if isinstance(c, Def):
        body = _project(c.body, r, memo)[0]
        cont, queue = _project(c.cont, r, memo)
        return BDef(c.var, body, cont), queue
    if isinstance(c, Call):
        return BCall(c.var), ()
    return BNIL, ()  # Nil


def project_behaviour(c, r: str):
    """The behaviour of ``r`` in ``c``."""
    return _project(c, r, None)[0]


def epp_sync(c, sigma: GlobalState) -> Network:
    """Projection of the collected form of a runtime-free choreography,
    every queue empty; projectability never depends on the state."""
    if not runtime_free(c):
        raise IllFormed("synchronous projection requires a program "
                        "without runtime terms")
    return project_network(gc(c), sigma)


def epp_async(c, sigma: GlobalState) -> Network:
    """Projection of a well-formed runtime choreography: in-transit
    messages seed the target queues.  The folded canonical form is computed
    internally."""
    return project_network(well_formed(c)[1], sigma)


def project_network(c, sigma: GlobalState, memo=None) -> Network:
    """One process per name in ``c``, its queue seeded with the messages
    in transit to it.  ``c`` is a runtime-free choreography or the
    canonical form that :func:`well_formed` returns; the ``None`` it
    returns for an ill-formed choreography raises :class:`IllFormed`.
    ``memo`` is that of :func:`_project`."""
    if c is None:
        raise IllFormed(
            "choreography holds a message that its receiver is not yet "
            "committed to take next; it cannot arise from executing a "
            "program")
    procs = {}
    for name in sorted(pn(c)):
        b, queue = _project(c, name, memo)
        procs[name] = Process(sigma.get(name), Queue.of(queue), b)
    return Network.of(procs)


def projectable(c) -> bool:
    """Whether the collected form of ``c`` projects."""
    c = gc(c)
    try:
        for name in sorted(pn(c)):
            _project(c, name, None)
    except (NotProjectable, IllFormed):
        return False
    return True
