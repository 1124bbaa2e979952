"""Abstract syntax for choreographies, behaviours, networks and expressions.

All nodes are frozen, slotted dataclasses: terms are immutable after
construction, so subterms are shared freely between successors, and each
node computes its structural hash once.  Terms therefore serve directly as
keys of state sets.  The only mutable object in this module is
:class:`TagSupply`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, is_
from typing import Optional, Union

from .errors import BindError, DupTagError


class Term:
    """Base of every frozen term: equality is structural, and the structural
    hash is kept in the ``_h`` slot after its first use.  Both walk along
    the chain of last fields in a loop, so a sequence of any length hashes
    and compares without recursion."""

    __slots__ = ("_h",)

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            return _first_hash(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        h1, h2 = getattr(self, "_h", None), getattr(other, "_h", None)
        if h1 != h2 and h1 is not None and h2 is not None:
            return False
        a, b = self, other
        while True:
            init = a._init
            if init is not None and init(a) != init(b):
                return False
            last = a._last
            if last is None:
                return True
            a, b = last(a), last(b)
            if a is b:
                return True
            if type(a) is not type(b) or not isinstance(a, Term):
                return a == b


_cache = Term._h.__set__  # stores a hash past the frozen __setattr__


def _first_hash(t):
    """Hash ``t`` as ``hash((type(t), *fields))``, first caching the hash
    of each term down its chain of last fields that has none yet."""
    spine = [t]
    last = t._last
    while last is not None:
        t = last(t)
        if not isinstance(t, Term) or hasattr(t, "_h"):
            break
        spine.append(t)
        last = t._last
    for t in reversed(spine):
        h = hash(t._type_and_fields(t))
        _cache(t, h)
    return h


def keep_hash(copy, original):
    """Give ``copy``, a term equal to ``original``, the hash that
    ``original`` has cached."""
    _cache(copy, original._h)


def term(cls):
    """Make ``cls`` (a :class:`Term` subclass) a frozen, slotted dataclass
    that keeps the cached hash and the looping equality.  The class gets
    the getters these use: ``_type_and_fields`` (the tuple of its class
    and every field, which the hash is of), ``_last`` (the last field;
    None if there is none) and ``_init`` (the fields before it; None if
    there are none)."""
    cls.__hash__ = Term.__hash__  # explicit, so dataclass keeps them
    cls.__eq__ = Term.__eq__
    cls = dataclass(frozen=True, slots=True)(cls)
    names = cls.__slots__
    cls._type_and_fields = (attrgetter("__class__", *names) if names
                            else staticmethod(lambda t: (type(t),)))
    cls._last = attrgetter(names[-1]) if names else None
    cls._init = attrgetter(*names[:-1]) if len(names) > 1 else None
    return cls


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
        for tag, _ in iter_tags(term):
            supply.reserve_above(tag.id)
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


@term
class Hole(Term):
    """The hole of a choreography context, followed by ``cont``."""

    cont: "Chor"


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
# Traversal core
#
# The table names each constructor's subterm fields, which are always its
# trailing fields; constructors absent from it (calls and 0) have none.  The
# walks below are written once on it, for choreographies and behaviours.

SUBTERMS = {
    Com: ("cont",), RtSend: ("cont",), RtRecv: ("cont",), Hole: ("cont",),
    Cond: ("then", "orelse"), Def: ("body", "cont"),
    BSend: ("cont",), BRecv: ("cont",),
    BCond: ("then", "orelse", "cont"), BDef: ("body", "cont"),
}

_PREFIXES = frozenset({Com, RtSend, RtRecv, BSend, BRecv})
_CALLS = frozenset({Call, BCall})
_DEFS = frozenset({Def, BDef})
_NILS = frozenset({Nil, BNil})
_INERT = _CALLS | _DEFS | _NILS  # every other constructor is an action
_NO_CALLS = frozenset()


def _getter(names):
    """A function returning the named fields of its argument as a tuple."""
    if not names:
        return lambda t: ()
    get = attrgetter(*names)
    return get if len(names) > 1 else lambda t: (get(t),)


# Per constructor: its subterms, the fields before them, and the fields
# before its continuation (for those that end with one).
_KIDS = {cls: _getter(names) for cls, names in SUBTERMS.items()}
_FIXED = {cls: _getter(cls.__slots__[:len(cls.__slots__)
                                     - len(SUBTERMS.get(cls, ()))])
          for cls in (*SUBTERMS, *_INERT)}
_BEFORE_CONT = {cls: _getter(cls.__slots__[:-1])
                for cls, names in SUBTERMS.items() if names[-1] == "cont"}


def kids(t) -> tuple:
    """The subterms of ``t``, in field order."""
    get = _KIDS.get(type(t))
    return () if get is None else get(t)


def fixed(t) -> tuple:
    """The fields of ``t`` before its subterms (all, for a call or 0)."""
    return _FIXED[type(t)](t)


def rebuild(t, new):
    """``t`` with its subterms replaced by ``new``; ``t`` itself when each
    new subterm is the old one."""
    kind = type(t)
    get = _KIDS.get(kind)
    if get is None or all(map(is_, get(t), new)):
        return t
    return kind(*_FIXED[kind](t), *new)


def replace_kid(t, i: int, new):
    """``t`` with its ``i``-th subterm replaced by ``new``."""
    ks = kids(t)
    return rebuild(t, ks[:i] + (new,) + ks[i + 1:])


def rewrite_first(t, here):
    """``t`` with its first subterm, in preorder, that ``here`` rewrites
    (``here`` answers None where it does not) replaced by the rewrite; None
    when ``here`` rewrites none.  Like :func:`subterms`, it loops along the
    last subterm."""
    spine = []
    while True:
        new = here(t)
        ks = kids(t)
        if new is None and len(ks) > 1:
            for i, k in enumerate(ks[:-1]):
                found = rewrite_first(k, here)
                if found is not None:
                    new = replace_kid(t, i, found)
                    break
        if new is not None:
            break
        if not ks:
            return None
        spine.append(t)
        t = ks[-1]
    for node in reversed(spine):
        new = rebuild(node, (*kids(node)[:-1], new))
    return new


def rewrite_all(t, here):
    """Rewrite ``t`` with :func:`rewrite_first` until ``here`` rewrites
    nothing.  This ends only if every rewrite of ``here`` shrinks a
    well-founded measure of the whole term; the docstring of its user,
    ``chor_async._fold_here``, gives its measure."""
    while True:
        new = rewrite_first(t, here)
        if new is None:
            return t
        t = new


def subterms(t):
    """Every subterm of ``t``, each before its own subterms.  The walk
    loops along each node's last subterm (its continuation, or the else
    branch), so long sequences need no recursion."""
    stack = [t]
    while stack:
        t = stack.pop()
        while True:
            yield t
            ks = kids(t)
            if not ks:
                break
            stack.extend(ks[:-1])
            t = ks[-1]


def transform(t, post, enter=None):
    """Rebuild ``t`` bottom-up: each node is rebuilt from its transformed
    subterms and then mapped by ``post``.  A node for which ``enter``
    answers False is kept as it is, subterms included.  Like
    :func:`subterms`, it loops along the last subterm."""
    spine = []
    while True:
        if enter is not None and not enter(t):
            done = t
            break
        ks = kids(t)
        if not ks:
            done = post(t)
            break
        spine.append((t, [transform(k, post, enter) for k in ks[:-1]]))
        t = ks[-1]
    for node, new in reversed(spine):
        done = post(rebuild(node, (*new, done)))
    return done


def check_bound(t) -> None:
    """Raise BindError on a recursion call outside every definition of its
    variable, or on a definition inside another of the same variable.
    With distinct binders, the engines' lookup of a call where it occurs
    agrees with lexical scoping."""
    stack = [(t, frozenset())]
    while stack:
        t, bound = stack.pop()
        kind = type(t)
        if kind in _CALLS and t.var not in bound:
            raise BindError(f"unbound recursion variable {t.var}")
        if kind in _DEFS:
            if t.var in bound:
                raise BindError(f"shadowed recursion variable {t.var}")
            bound = bound | {t.var}
        stack.extend((k, bound) for k in reversed(kids(t)))


def subst_call(t, var: str, body):
    """Replace the calls of ``var`` that no inner definition of ``var``
    shadows by ``body`` (one unfolding: calls inside the substituted body
    are left alone)."""
    return transform(
        t, lambda n: body if type(n) in _CALLS and n.var == var else n,
        lambda n: not (type(n) in _DEFS and n.var == var))


def runtime_free(c) -> bool:
    """No detached send and no receive anywhere in ``c``."""
    return not any(type(s) is RtSend or type(s) is RtRecv
                   for s in subterms(c))


# ---------------------------------------------------------------------------
# Garbage collection


def gc(t):
    """Garbage-collect a choreography or a behaviour: drop every definition
    that its continuation does not call, and fold to 0 a definition with
    no action anywhere and no free call (it can never step, since
    unfolding only copies existing subterms).  Subterms are collected
    first, so one pass reaches the fixpoint; a term with nothing to collect
    is returned as it is."""
    return _gc(t)[0]


def _gc(t):
    """:func:`gc` of ``t``, and the variables called free in the result."""
    spine = []
    while type(t) in _PREFIXES:
        spine.append(t)
        t = t.cont
    kind = type(t)
    free = _NO_CALLS
    if kind is Cond:
        (then, free), (orelse, more) = _gc(t.then), _gc(t.orelse)
        free |= more
        if then is not t.then or orelse is not t.orelse:
            t = Cond(t.decider, t.expr, then, orelse)
    elif kind is BCond:
        (then, free), (orelse, more), (cont, rest) = \
            _gc(t.then), _gc(t.orelse), _gc(t.cont)
        free |= more | rest
        if then is not t.then or orelse is not t.orelse or cont is not t.cont:
            t = BCond(t.expr, then, orelse, cont)
    elif kind in _DEFS:
        (body, inner), (cont, free) = _gc(t.body), _gc(t.cont)
        if t.var not in free:
            t = cont  # nothing calls the definition
        else:
            free = (inner | free) - {t.var}
            if body is not t.body or cont is not t.cont:
                t = kind(t.var, body, cont)
            # A collected subterm that starts with an action keeps ``t``.
            if (not free and type(body) in _INERT and type(cont) in _INERT
                    and all(type(s) in _INERT for s in subterms(t))):
                t = NIL if kind is Def else BNIL
    elif kind in _CALLS:
        free = frozenset((t.var,))
    for node in reversed(spine):
        t = node if t is node.cont else replace_cont(node, t)
    return t, free


# ---------------------------------------------------------------------------
# Behaviour heads


def head(t, env=()):
    """The first action of the behaviour ``t`` in the environment ``env``,
    and the environment in scope there.  An environment is () or the
    innermost definition in scope paired with the environment it is in; a
    call resumes the body of its definition there, so calls resolve
    lexically.  A call cycle with no action in between is 0, as :func:`gc`
    folds it, and a free call is returned as it is."""
    cycle = set()
    while True:
        kind = type(t)
        if kind is BDef:
            env = (t, env)
            t = t.cont
        elif kind is BCall:
            while env and env[0].var != t.var:
                env = env[1]
            if not env:
                return t, env
            if env in cycle:
                return BNIL, ()
            cycle.add(env)
            t = env[0].body
        else:
            return t, env


def resume(t, env):
    """``t`` under the definitions of ``env``, the innermost nearest: the
    behaviour that continues with ``t`` after the action :func:`head`
    found in ``env``."""
    while env:
        d, env = env
        t = replace_cont(d, t)
    return t


# ---------------------------------------------------------------------------
# Process-name and tag scans


def pn(term) -> frozenset:
    """Set of process names in a choreography (or single interaction), or
    of the partners of a behaviour: every process it sends to or receives
    from.

    A detached send contributes only the sender, a detached receive only the
    receiver; tags and payloads contribute nothing.
    """
    names = set()
    stack = [term]
    while stack:
        t = stack.pop()
        while type(t) in SUBTERMS:  # the walk loops along the last subterm
            kind = type(t)
            if kind is Com:
                names.add(t.src)
                names.add(t.dst)
            elif kind is RtSend or kind is BRecv:
                names.add(t.src)
            elif kind is RtRecv or kind is BSend:
                names.add(t.dst)
            else:  # a conditional, a definition or a hole
                if kind is Cond:
                    names.add(t.decider)
                *others, t = _KIDS[kind](t)
                stack += others
                continue
            t = t.cont
    return frozenset(names)


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
    """Yield (tag, "sends" or "receives") for each tag occurrence in a
    choreography."""
    for t in subterms(term):
        if type(t) is RtSend:
            yield t.tag, "sends"
        elif type(t) is RtRecv and type(t.payload) is Tag:
            yield t.payload, "receives"


def check_tag_linearity(term) -> None:
    """Raise DupTagError unless each tag occurs in at most one send and at
    most one receive."""
    seen = set()
    for tag, use in iter_tags(term):
        if (tag.id, use) in seen:
            raise DupTagError(f"tag #{tag.id} used by two {use}")
        seen.add((tag.id, use))


# ---------------------------------------------------------------------------
# Sequencing


def seq(first, cont):
    """Graft ``cont`` onto the terminated leaves of ``first``, a
    choreography or a behaviour.

    Realizes the concrete syntax's trailing continuation after a
    conditional.  A choreography conditional has no continuation of its
    own, so ``cont`` goes into both branches; recursion calls never return,
    so their leaves are left alone.
    """
    if type(cont) in _NILS:
        return first
    spine = []
    while type(first) in SUBTERMS and type(first) is not Cond:
        spine.append(first)
        first = first.cont
    if type(first) is Cond:
        t = Cond(first.decider, first.expr, seq(first.then, cont),
                 seq(first.orelse, cont))
    else:
        t = cont if type(first) in _NILS else first
    for node in reversed(spine):
        t = replace_cont(node, t)
    return t


def replace_cont(node, cont):
    """``node`` with its continuation swapped for ``cont``; ``node`` itself
    when ``cont`` is already its continuation."""
    if cont is node.cont:
        return node
    kind = type(node)
    return kind(*_BEFORE_CONT[kind](node), cont)
