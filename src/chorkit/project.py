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


def project_behaviour(c, r: str):
    # Actions of ``r`` along the prefix chain are collected in a loop and
    # wrapped around the projection of the chain's end, so chains of any
    # length project without deep recursion.
    actions = []
    while type(c) in (Com, RtRecv):
        if type(c) is RtRecv and isinstance(c.payload, Tag):
            raise IllFormed(_PENDING)
        if r == c.dst or (type(c) is Com and r == c.src):
            actions.append(c)
        c = c.cont
    if isinstance(c, RtSend):
        raise IllFormed("cannot project a detached send")
    if isinstance(c, Cond):
        then = project_behaviour(c.then, r)
        orelse = project_behaviour(c.orelse, r)
        if r == c.decider:
            b = BCond(c.expr, then, orelse, BNIL)
        elif then != orelse:
            raise NotProjectable(
                f"conditional branches disagree at process {r!r}")
        else:
            b = then
    elif isinstance(c, Def):
        b = BDef(c.var, project_behaviour(c.body, r),
                 project_behaviour(c.cont, r))
    elif isinstance(c, Call):
        b = BCall(c.var)
    else:
        b = BNIL  # Nil
    for node in reversed(actions):
        if type(node) is Com and r == node.src:
            b = BSend(node.dst, node.expr, b)
        else:
            b = BRecv(node.src, b)
    return b


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


def epp_sync(c, sigma: GlobalState) -> Network:
    """Projection of a runtime-free choreography: one process per name,
    every queue empty.  Projectability never depends on the state."""
    if not runtime_free(c):
        raise IllFormed("synchronous projection requires a program "
                        "without runtime terms")
    return project_network(c, sigma)


def epp_async(c, sigma: GlobalState) -> Network:
    """Projection of a well-formed runtime choreography: in-transit
    messages seed the target queues.  The folded canonical form is computed
    internally."""
    return project_network(well_formed(c)[1], sigma)


def project_network(c, sigma: GlobalState) -> Network:
    """One process per name in ``c``, its queue seeded with the messages
    in transit to it.  ``c`` is a runtime-free choreography or the
    canonical form that :func:`well_formed` returns; the ``None`` it
    returns for an ill-formed choreography raises :class:`IllFormed`."""
    if c is None:
        raise IllFormed(
            "choreography holds a message that its receiver is not yet "
            "committed to take next; it cannot arise from executing a "
            "program")
    return Network.of({name: Process(sigma.get(name),
                                     Queue.of(project_queue(c, name)),
                                     project_behaviour(c, name))
                       for name in sorted(pn(c))})


def projectable(c) -> bool:
    try:
        for name in sorted(pn(c)):
            project_behaviour(c, name)
    except (NotProjectable, IllFormed):
        return False
    return True
