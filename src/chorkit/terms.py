"""Abstract syntax for choreographies, behaviours, networks and expressions.

All nodes are frozen, slotted dataclasses: terms are immutable after
construction, so subterms are shared freely between successors, and each
node computes its structural hash once.  Terms therefore serve directly as
keys of state sets.  The only mutable object in this module is
:class:`TagSupply`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


class Term:
    """Base of every frozen term: equality is structural, and the structural
    hash is kept in the ``_h`` slot after its first use."""

    __slots__ = ("_h",)

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            h = hash((type(self), *[getattr(self, f) for f in self.__slots__]))
            object.__setattr__(self, "_h", h)
            return h


def term(cls):
    """Make ``cls`` (a :class:`Term` subclass) a frozen, slotted dataclass
    that keeps the cached hash."""
    cls.__hash__ = Term.__hash__  # explicit, so dataclass keeps it
    return dataclass(frozen=True, slots=True)(cls)


# ---------------------------------------------------------------------------
# Values


@term
class IntV(Term):
    n: int


@term
class BoolV(Term):
    b: bool


@term
class ErrV(Term):
    """Distinguished error value.  First-class and storable."""


ERR = ErrV()

Value = Union[IntV, BoolV, ErrV]


# ---------------------------------------------------------------------------
# Expressions


@term
class Lit(Term):
    value: Value


@term
class Cell(Term):
    """The running process's own memory cell, written ``@``."""


@term
class BinOp(Term):
    op: str  # one of + - * = < and or
    left: "Expr"
    right: "Expr"


@term
class Not(Term):
    arg: "Expr"


Expr = Union[Lit, Cell, BinOp, Not]


# ---------------------------------------------------------------------------
# Tags

@term
class Tag(Term):
    """Globally unique marker linking a detached send to its receive."""

    id: int


class TagSupply:
    """Monotonic source of fresh tags, owned by one run at a time."""

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self) -> Tag:
        t = Tag(self._next)
        self._next += 1
        return t

    def reserve_above(self, tag_id: int) -> None:
        """Bump the counter so every future tag exceeds ``tag_id``."""
        if tag_id >= self._next:
            self._next = tag_id + 1

    @classmethod
    def above(cls, term) -> "TagSupply":
        """A supply strictly above every tag occurring in ``term``."""
        supply = cls()
        for t in iter_tags(term):
            supply.reserve_above(t.id)
        return supply


# ---------------------------------------------------------------------------
# Choreographies


@term
class Com(Term):
    src: str
    expr: Expr
    dst: str
    cont: "Chor"


@term
class Cond(Term):
    decider: str
    expr: Expr
    then: "Chor"
    orelse: "Chor"


@term
class Def(Term):
    var: str
    body: "Chor"
    cont: "Chor"


@term
class Call(Term):
    var: str


@term
class Nil(Term):
    pass


NIL = Nil()


@term
class RtSend(Term):
    """Detached send: the message from ``src`` is in transit under ``tag``."""

    src: str
    expr: Expr
    tag: Tag
    cont: "Chor"


@term
class RtRecv(Term):
    """Detached receive at ``dst``, annotated with the sender name.

    ``payload`` is either a :class:`Tag` (uninstantiated: the matching send
    has not fired yet) or a :class:`Value` (instantiated: in transit).
    """

    src: str
    payload: Union[Tag, Value]
    dst: str
    cont: "Chor"


Chor = Union[Com, Cond, Def, Call, Nil, RtSend, RtRecv]


# ---------------------------------------------------------------------------
# Behaviours


@term
class BSend(Term):
    dst: str
    expr: Expr
    cont: "Behaviour"


@term
class BRecv(Term):
    src: str
    cont: "Behaviour"


@term
class BCond(Term):
    expr: Expr
    then: "Behaviour"
    orelse: "Behaviour"
    cont: "Behaviour"


@term
class BDef(Term):
    var: str
    body: "Behaviour"
    cont: "Behaviour"


@term
class BCall(Term):
    var: str


@term
class BNil(Term):
    pass


BNIL = BNil()

Behaviour = Union[BSend, BRecv, BCond, BDef, BCall, BNil]


# ---------------------------------------------------------------------------
# Networks


@term
class Message(Term):
    sender: str
    payload: Value


@term
class Queue(Term):
    """Incoming messages, one FIFO lane per sender.

    The lane decomposition is the canonical form of the congruence that lets
    messages from different senders commute: two queues are congruent iff
    they have the same lanes.  ``lanes`` is kept sorted by sender name so
    queues compare and hash structurally.
    """

    lanes: tuple  # tuple[(sender, tuple[Value, ...]), ...], sorted, no empties

    @staticmethod
    def empty() -> "Queue":
        return Queue(())

    @staticmethod
    def of(messages) -> "Queue":
        q = Queue.empty()
        for m in messages:
            q = q.enqueue(m)
        return q

    def is_empty(self) -> bool:
        return not self.lanes

    def enqueue(self, msg: Message) -> "Queue":
        lanes = dict(self.lanes)
        lanes[msg.sender] = lanes.get(msg.sender, ()) + (msg.payload,)
        return Queue(tuple(sorted(lanes.items())))

    def dequeue_from(self, sender: str) -> Optional[tuple]:
        """Pop the head of ``sender``'s lane; ``None`` if the lane is absent.

        Absence of the lane exactly characterizes a blocked receive.
        """
        lanes = dict(self.lanes)
        lane = lanes.get(sender)
        if not lane:
            return None
        value, rest = lane[0], lane[1:]
        if rest:
            lanes[sender] = rest
        else:
            del lanes[sender]
        return value, Queue(tuple(sorted(lanes.items())))

    def messages(self):
        """All messages, lanes flattened in sender order (a canonical
        representative of the congruence class)."""
        return [Message(s, v) for s, lane in self.lanes for v in lane]


@term
class Process(Term):
    state: Value
    queue: Queue
    behaviour: Behaviour


@term
class Network(Term):
    """Finite composition of named processes, kept name-sorted.

    The sorted-map representation makes parallel composition associative,
    commutative and unit-respecting by construction.
    """

    procs: tuple  # tuple[(name, Process), ...], sorted by name

    @staticmethod
    def of(mapping) -> "Network":
        return Network(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict:
        return dict(self.procs)

    def names(self):
        return [name for name, _ in self.procs]

    def is_empty(self) -> bool:
        return not self.procs


EMPTY_NETWORK = Network(())


# ---------------------------------------------------------------------------
# Process-name and tag scans


def pn(term) -> frozenset:
    """Set of process names in a choreography (or single interaction).

    A detached send contributes only the sender, a detached receive only the
    receiver; tags and payloads contribute nothing.
    """
    names = set()
    _pn_into(term, names)
    return frozenset(names)


def _pn_into(term, names):
    while True:
        if isinstance(term, Com):
            names.add(term.src)
            names.add(term.dst)
            term = term.cont
        elif isinstance(term, RtSend):
            names.add(term.src)
            term = term.cont
        elif isinstance(term, RtRecv):
            names.add(term.dst)
            term = term.cont
        elif isinstance(term, Cond):
            names.add(term.decider)
            _pn_into(term.then, names)
            term = term.orelse
        elif isinstance(term, Def):
            _pn_into(term.body, names)
            term = term.cont
        else:  # Call, Nil
            return


def head_pn(term) -> frozenset:
    """Process names of the head interaction only (not the continuation)."""
    if isinstance(term, Com):
        return frozenset((term.src, term.dst))
    if isinstance(term, RtSend):
        return frozenset((term.src,))
    if isinstance(term, RtRecv):
        return frozenset((term.dst,))
    raise TypeError(f"not an interaction: {term!r}")


def iter_tags(term):
    """Yield every Tag occurring in a choreography, behaviour or network."""
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, RtSend):
            yield t.tag
            stack.append(t.cont)
        elif isinstance(t, RtRecv):
            if isinstance(t.payload, Tag):
                yield t.payload
            stack.append(t.cont)
        elif isinstance(t, Com):
            stack.append(t.cont)
        elif isinstance(t, Cond):
            stack.extend((t.then, t.orelse))
        elif isinstance(t, Def):
            stack.extend((t.body, t.cont))
        elif isinstance(t, Network):
            stack.extend(p for _, p in t.procs)


def check_tag_linearity(term) -> None:
    """Raise DupTagError unless each tag occurs in at most one send and at
    most one receive."""
    from .errors import DupTagError

    sends, recvs = set(), set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, RtSend):
            if t.tag.id in sends:
                raise DupTagError(f"tag #{t.tag.id} used by two sends")
            sends.add(t.tag.id)
            stack.append(t.cont)
        elif isinstance(t, RtRecv):
            if isinstance(t.payload, Tag):
                if t.payload.id in recvs:
                    raise DupTagError(f"tag #{t.payload.id} used by two receives")
                recvs.add(t.payload.id)
            stack.append(t.cont)
        elif isinstance(t, Com):
            stack.append(t.cont)
        elif isinstance(t, Cond):
            stack.extend((t.then, t.orelse))
        elif isinstance(t, Def):
            stack.extend((t.body, t.cont))


def check_bound(term, bound=frozenset()) -> None:
    """Raise BindError on any recursion call outside its definition."""
    from .errors import BindError

    if isinstance(term, (Call, BCall)):
        if term.var not in bound:
            raise BindError(f"unbound recursion variable {term.var}")
    elif isinstance(term, (Com, RtSend, RtRecv, BSend, BRecv)):
        check_bound(term.cont, bound)
    elif isinstance(term, Cond):
        check_bound(term.then, bound)
        check_bound(term.orelse, bound)
    elif isinstance(term, BCond):
        check_bound(term.then, bound)
        check_bound(term.orelse, bound)
        check_bound(term.cont, bound)
    elif isinstance(term, (Def, BDef)):
        inner = bound | {term.var}
        check_bound(term.body, inner)
        check_bound(term.cont, inner)


# ---------------------------------------------------------------------------
# Sequencing helpers


def chor_seq(first: Chor, cont: Chor) -> Chor:
    """Graft ``cont`` onto the terminated leaves of ``first``.

    Realizes the concrete syntax's trailing continuation after a
    conditional; recursion calls never return, so their leaves are left
    alone.
    """
    if isinstance(cont, Nil):
        return first
    if isinstance(first, Nil):
        return cont
    if isinstance(first, (Com, RtSend, RtRecv, Def)):
        return replace_cont(first, chor_seq(first.cont, cont))
    if isinstance(first, Cond):
        return Cond(first.decider, first.expr,
                    chor_seq(first.then, cont), chor_seq(first.orelse, cont))
    return first  # Call


def behaviour_seq(first: Behaviour, cont: Behaviour) -> Behaviour:
    if isinstance(cont, BNil):
        return first
    if isinstance(first, BNil):
        return cont
    if isinstance(first, (BSend, BRecv, BDef)):
        return replace_cont(first, behaviour_seq(first.cont, cont))
    if isinstance(first, BCond):
        return BCond(first.expr, first.then, first.orelse,
                     behaviour_seq(first.cont, cont))
    return first  # BCall


def replace_cont(node, cont):
    """``node`` with its continuation swapped for ``cont``; ``node`` itself
    when ``cont`` is already its continuation."""
    if cont is node.cont:
        return node
    kind = type(node)
    if kind is Com:
        return Com(node.src, node.expr, node.dst, cont)
    if kind is RtSend:
        return RtSend(node.src, node.expr, node.tag, cont)
    if kind is RtRecv:
        return RtRecv(node.src, node.payload, node.dst, cont)
    if kind is Def:
        return Def(node.var, node.body, cont)
    if kind is BSend:
        return BSend(node.dst, node.expr, cont)
    if kind is BRecv:
        return BRecv(node.src, cont)
    if kind is BCond:
        return BCond(node.expr, node.then, node.orelse, cont)
    if kind is BDef:
        return BDef(node.var, node.body, cont)
    raise TypeError(f"no continuation: {node!r}")
