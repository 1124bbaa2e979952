"""Endpoint projection: compile a choreography into one behaviour per
process, plus queue seeding for messages in transit.

A conditional projects to a local conditional at the decider; every other
process must behave identically in both branches (syntactic equality of the
projected behaviours), otherwise the choreography is not projectable.
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
    pn,
    runtime_free,
)
from .values import GlobalState

_PENDING = "cannot project a receive whose message is still pending"


def project_behaviour(c, r: str, memo=None):
    """The behaviour of ``r`` in ``c``.  ``memo``, a dict the caller keeps
    across calls, maps each process to a dict from the subterms projected
    for it so far to their behaviours, so a subterm shared between
    choreographies projects to the same behaviour object."""
    # Actions of ``r`` along the prefix chain are collected in a loop and
    # wrapped around the projection of the chain's end, so chains of any
    # length project without deep recursion.
    seen = None if memo is None else memo.setdefault(r, {})
    chain = []
    while True:
        if seen is not None:
            b = seen.get(c)
            if b is not None:
                break
        kind = type(c)
        if kind is not Com and kind is not RtRecv:
            b = _project_end(c, r, memo)
            if seen is not None:
                seen[c] = b
            break
        if kind is RtRecv and isinstance(c.payload, Tag):
            raise IllFormed(_PENDING)
        chain.append(c)
        c = c.cont
    for node in reversed(chain):
        if type(node) is Com and r == node.src:
            b = BSend(node.dst, node.expr, b)
        elif r == node.dst:
            b = BRecv(node.src, b)
        if seen is not None:
            seen[node] = b
    return b


def _project_end(c, r: str, memo):
    """The projection of ``c``, which is not an action of a chain."""
    if isinstance(c, RtSend):
        raise IllFormed("cannot project a detached send")
    if isinstance(c, Cond):
        then = project_behaviour(c.then, r, memo)
        orelse = project_behaviour(c.orelse, r, memo)
        if r == c.decider:
            return BCond(c.expr, then, orelse, BNIL)
        if then != orelse:
            raise NotProjectable(
                f"conditional branches disagree at process {r!r}")
        return then
    if isinstance(c, Def):
        return BDef(c.var, project_behaviour(c.body, r, memo),
                    project_behaviour(c.cont, r, memo))
    if isinstance(c, Call):
        return BCall(c.var)
    return BNIL  # Nil


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


def epp_sync(c, sigma: GlobalState, memo=None) -> Network:
    """Projection of a runtime-free choreography: one process per name,
    every queue empty.  Projectability never depends on the state.
    ``memo`` is that of :func:`project_behaviour`."""
    if not runtime_free(c):
        raise IllFormed("synchronous projection requires a program "
                        "without runtime terms")
    return project_network(c, sigma, memo)


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
    ``memo`` is that of :func:`project_behaviour`."""
    if c is None:
        raise IllFormed(
            "choreography holds a message that its receiver is not yet "
            "committed to take next; it cannot arise from executing a "
            "program")
    return Network.of({name: Process(sigma.get(name),
                                     Queue.of(project_queue(c, name)),
                                     project_behaviour(c, name, memo))
                       for name in sorted(pn(c))})


def projectable(c) -> bool:
    try:
        for name in sorted(pn(c)):
            project_behaviour(c, name)
    except (NotProjectable, IllFormed):
        return False
    return True
