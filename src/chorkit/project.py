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
    NIL,
    BCond,
    BRecv,
    BSend,
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
    fold,
    gc,
    pn,
    rebuild,
    runtime_free,
)
from .values import GlobalState


def _project(c, r: str, memo) -> tuple:
    """The behaviour of ``r`` in ``c`` and the tuple of messages in transit
    to ``r``, in arrival order, by one :func:`terms.fold`.  ``memo``, None
    or a dict the caller keeps across calls, maps each process to its fold
    memo, so a subterm shared between choreographies projects once, to the
    same behaviour object.  Of several errors, the first the fold meets
    wins: it projects subterms, the then branch first, before their node,
    and each chain from its end up, so of two on one path the lower wins."""
    def chain(run, done):
        b, queue = done
        for node in reversed(run):
            kind = type(node)
            if kind is RtSend:
                raise IllFormed("cannot project a detached send")
            if kind is RtRecv and type(node.payload) is Tag:
                raise IllFormed("cannot project a receive whose message "
                                "is still pending")
            if kind is Com and r == node.src:
                b = BSend(node.dst, node.expr, b)
            elif r == node.dst:
                b = BRecv(node.src, b)
                if kind is RtRecv:
                    queue = (Message(node.src, node.payload),) + queue
        return b, queue

    # _project_end is looked up at each call, so a wrapper set on this
    # module sees every call.
    return fold(c, lambda t, done: _project_end(t, r, done), chain,
                None if memo is None else memo.setdefault(r, {}))


def _project_end(c, r: str, done) -> tuple:
    """:func:`_project` of ``c``, which is not a prefix, from ``done``,
    the projections of its subterms."""
    if isinstance(c, Cond):
        (then, queue), (orelse, other) = done
        if r == c.decider:
            return BCond(c.expr, then, orelse, NIL), queue
        if queue != other:
            raise NotProjectable(
                f"in-transit messages for {r!r} differ between branches")
        if then != orelse:
            raise NotProjectable(
                f"conditional branches disagree at process {r!r}")
        return then, queue
    if isinstance(c, Def):
        (body, _), (cont, queue) = done
        return rebuild(c, (body, cont)), queue
    return c, ()  # a call or 0 projects to itself


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
