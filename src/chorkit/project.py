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


def project_behaviour(c, r: str, _path=()):
    if isinstance(c, Com):
        cont = project_behaviour(c.cont, r, _path + ("cont",))
        if r == c.src:
            return BSend(c.dst, c.expr, cont)
        if r == c.dst:
            return BRecv(c.src, cont)
        return cont
    if isinstance(c, RtRecv):
        if isinstance(c.payload, Tag):
            raise IllFormed(
                "cannot project a receive whose message is still pending")
        cont = project_behaviour(c.cont, r, _path + ("cont",))
        if r == c.dst:
            return BRecv(c.src, cont)
        return cont
    if isinstance(c, RtSend):
        raise IllFormed("cannot project a detached send")
    if isinstance(c, Cond):
        then = project_behaviour(c.then, r, _path + ("then",))
        orelse = project_behaviour(c.orelse, r, _path + ("else",))
        if r == c.decider:
            return BCond(c.expr, then, orelse, BNIL)
        if then != orelse:
            raise NotProjectable(
                f"conditional branches disagree at process {r!r}",
                path=_path, left=then, right=orelse)
        return then
    if isinstance(c, Def):
        return BDef(c.var, project_behaviour(c.body, r, _path + ("body",)),
                    project_behaviour(c.cont, r, _path + ("in",)))
    if isinstance(c, Call):
        return BCall(c.var)
    return BNIL  # Nil


def project_queue(c, r: str) -> list:
    """Messages in transit addressed to ``r``, in arrival order."""
    if isinstance(c, RtRecv):
        if isinstance(c.payload, Tag):
            raise IllFormed(
                "cannot project a receive whose message is still pending")
        rest = project_queue(c.cont, r)
        if r == c.dst:
            return [Message(c.src, c.payload)] + rest
        return rest
    if isinstance(c, RtSend):
        raise IllFormed("cannot project a detached send")
    if isinstance(c, Com):
        return project_queue(c.cont, r)
    if isinstance(c, Cond):
        then = project_queue(c.then, r)
        if r != c.decider and then != project_queue(c.orelse, r):
            raise NotProjectable(
                f"in-transit messages for {r!r} differ between branches")
        return then
    if isinstance(c, Def):
        return project_queue(c.cont, r)
    return []  # Nil, Call


def epp_sync(c, sigma: GlobalState) -> Network:
    """Projection of a runtime-free choreography: one process per name,
    every queue empty.  Projectability never depends on the state."""
    if not runtime_free(c):
        raise IllFormed("synchronous projection requires a program "
                        "without runtime terms")
    return _network(c, sigma)


def epp_async(c, sigma: GlobalState) -> Network:
    """Projection of a well-formed runtime choreography: in-transit
    messages seed the target queues.  The folded canonical form is computed
    internally."""
    ok, canonical = well_formed(c)
    if not ok:
        raise IllFormed(
            "choreography holds a message that its receiver is not yet "
            "committed to take next; it cannot arise from executing a "
            "program")
    return _network(canonical, sigma)


def _network(c, sigma: GlobalState) -> Network:
    """One process per name in ``c``, its queue seeded with the messages
    in transit to it."""
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
