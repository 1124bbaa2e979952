"""Abstract syntax for choreographies, behaviours, networks and expressions.

All nodes are frozen, slotted dataclasses: terms are immutable after
construction, so subterms are shared freely between successors, and each
node caches its structural hash.  Terms therefore serve directly as keys
of state sets.  In the scope of an intern table, which a
``verify.SuccessorStore`` owns, equal terms are built as one object;
outside it, equality stays structural.  The only mutable objects in this
module are the tables and :class:`TagSupply`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from operator import attrgetter, is_
from typing import Optional, Union

from .errors import BindError, DupTagError, TagsExhausted


class Term:
    """Base of every frozen term: equality is structural, and the
    structural hash is kept in the ``_h`` slot from its first use, or from
    construction in an intern table's scope.  Both keep the fields still
    to visit on an explicit stack, so terms of any length and nesting need
    no recursion; equality compares each pair of nodes with several
    subterms once, so shared branches cost their distinct pairs."""

    __slots__ = ("_h",)

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            pass
        # First use: cache hash((type, *fields)) of each node that has
        # none, after those of its fields.
        todo = [self]
        while todo:
            t = todo[-1]
            fields = t._type_and_fields(t)
            for f in fields:
                if isinstance(f, Term) and not hasattr(f, "_h"):
                    todo.append(f)
            if todo[-1] is t:
                _cache(t, hash(fields))
                todo.pop()
        return self._h

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        # The id pairs of the nodes with several subterms compared so far.
        compared, todo = set(), [(self, other)]
        while todo:
            a, b = todo.pop()
            h1, h2 = getattr(a, "_h", None), getattr(b, "_h", None)
            if h1 != h2 and h1 is not None and h2 is not None:
                return False
            if type(a) in _BRANCHING:
                pair = id(a), id(b)
                if pair in compared:  # reached again by another path
                    continue
                compared.add(pair)
            px = py = None  # the pair before: equal branches compare once
            for x, y in zip(a._type_and_fields(a), b._type_and_fields(b)):
                if x is y or x is px and y is py:
                    continue
                if type(x) is type(y) and isinstance(x, Term):
                    todo.append((x, y))
                elif x != y:
                    return False
                px, py = x, y
        return True


_cache = Term._h.__set__  # stores a hash past the frozen __setattr__
_alloc = object.__new__
_table = None  # the intern table in scope, if any
_memo = None  # the gc memo in scope, if any


class interning:
    """A scope that makes ``table``, a dict from ``(class, *fields)`` to
    the term built with them, the intern table in scope, and ``memo``,
    None or a dict from nodes to their :func:`_gc` values, the gc memo in
    scope, for every thread, while it is entered.  Its terms live as long
    as the table.  A scope may be entered again while it is entered: each
    exit restores the scope its entry found.  It is a class, not a
    generator context manager, because a store enters its scope on every
    table miss."""

    __slots__ = ("table", "memo", "saved")

    def __init__(self, table: dict, memo: Optional[dict] = None):
        self.table, self.memo, self.saved = table, memo, []

    def __enter__(self):
        global _table, _memo
        self.saved.append((_table, _memo))
        _table, _memo = self.table, self.memo

    def __exit__(self, *exc):
        global _table, _memo
        _table, _memo = self.saved.pop()


def intern(t):
    """``t`` as the table in scope keeps it: the equal node the table
    holds, or else ``t`` with each field interned first, stored as it is
    if its fields are unchanged and rebuilt if not; a tuple is interned
    item by item.  What is still to intern waits on an explicit stack."""
    done = {}  # id of each node or tuple interned -> its interned form
    todo = [t]
    while todo:
        x = todo[-1]
        if id(x) in done:
            todo.pop()
            continue
        items = type(x) is tuple
        key = x if items else x._type_and_fields(x)
        found = None if items else _table.get(key)
        if found is None:
            later = [p for p in key if id(p) not in done
                     and (type(p) is tuple or isinstance(p, Term))]
            if later:
                todo += later
                continue
            parts = key if items else key[1:]
            found = tuple([done.get(id(p), p) for p in parts])
            if all(map(is_, found, parts)):
                found = x
                if not items:
                    _table[key] = x
            elif not items:
                found = type(x)(*found)
        done[id(x)] = found
        todo.pop()
    return done[id(t)]


def _constructor(cls, names):
    """The ``__new__`` of ``cls``, whose fields are ``names``: the node
    the table in scope keeps under ``(cls, *fields)``, stored first if
    new, or a new node when no table is in scope.  It sets the slots
    itself, so no ``__init__`` frame follows."""
    source = """
def make({setters}):
    def __new__(cls, {names}):
        table = _table
        if table is not None:
            key = (cls, {names})
            if (node := table.get(key)) is not None:
                return node
        node = _alloc(cls)
        {sets}
        if table is not None:
            _cache(node, hash(key))
            table[key] = node
        return node
    return __new__"""
    scope = {}
    exec(source.format(setters=", ".join("_set_" + n for n in names),
                       names=", ".join(names),
                       sets="; ".join(f"_set_{n}(node, {n})" for n in names)),
         globals(), scope)
    new = scope["make"](*(vars(cls)[n].__set__ for n in names))
    new.__defaults__ = tuple(f.default for f in fields(cls)
                             if f.default is not MISSING) or None
    return new


def term(cls):
    """Make ``cls`` (a :class:`Term` subclass) a frozen, slotted dataclass
    that keeps the cached hash and the structural equality, built by
    :func:`_constructor` (a class without fields has one node).  The
    class gets the getter these use, ``_type_and_fields``: the tuple of
    its class and every field, which the hash is of."""
    cls.__hash__ = Term.__hash__  # explicit, so dataclass keeps them
    cls.__eq__ = Term.__eq__
    # With a docstring, dataclass need not parse object's signature.
    cls.__doc__ = cls.__doc__ or f"{cls.__name__}{tuple(cls.__annotations__)}"
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    names = cls.__slots__
    if names:
        cls.__new__ = _constructor(cls, names)
    else:
        only = _alloc(cls)
        cls.__new__ = lambda kind: only
    cls._type_and_fields = (attrgetter("__class__", *names) if names
                            else staticmethod(lambda t: (type(t),)))
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
    op: str  # a key of PRECEDENCE
    left: "Expr"
    right: "Expr"


# How tightly each binary operator binds, for the parser and the renderer
# alike; every one of them associates to the left.
PRECEDENCE = {"or": 1, "and": 2, "=": 3, "<": 3, "+": 4, "-": 4, "*": 5}


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
        """The next tag; TagsExhausted past 2^63-1, as no larger tag
        parses."""
        if self._next >= 2**63:
            raise TagsExhausted(f"no fresh tag above #{2**63 - 1}, the "
                                f"largest 64-bit tag")
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


# A definition, a recursion call and 0 are the same in a behaviour as in a
# choreography: projection maps each to itself, so both families share
# these three constructors.


@term
class Def(Term):
    var: str
    body: "Chor"  # or "Behaviour", as ``cont`` is
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


Behaviour = Union[BSend, BRecv, BCond, Def, Call, Nil]


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
        """The queue that enqueues ``messages`` in order, lanes grouped in
        one pass."""
        lanes = {}
        for m in messages:
            lanes.setdefault(m.sender, []).append(m.payload)
        return Queue(tuple(sorted((s, tuple(lane))
                                  for s, lane in lanes.items())))

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
# walks below are written once on it, for choreographies and behaviours,
# whose definitions, calls and 0 are the same constructors.

SUBTERMS = {
    Com: ("cont",), RtSend: ("cont",), RtRecv: ("cont",), Hole: ("cont",),
    Cond: ("then", "orelse"), Def: ("body", "cont"),
    BSend: ("cont",), BRecv: ("cont",),
    BCond: ("then", "orelse", "cont"),
}

ACTIONS = frozenset({Com, RtSend, RtRecv})  # choreography actions
_PREFIXES = frozenset(cls for cls, names in SUBTERMS.items()
                      if len(names) == 1)  # one subterm: the continuation
_BRANCHING = frozenset(cls for cls, names in SUBTERMS.items()
                       if len(names) > 1)  # several subterms
_INERT = frozenset({Def, Call, Nil})  # every other constructor is an action
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


def fold(t, end, chain, memo=None):
    """The value of ``t``, computed bottom-up on an explicit stack.  Each
    maximal run of prefixes (the nodes whose one subterm is their
    continuation), listed from the top, goes to one ``chain(run, value)``
    call with the value of the node below it; every other node goes to
    ``end(node, values)``, with the values of its subterms in field
    order.  Each subterm of a node with several is folded once per call,
    however many paths lead to it, so a term whose branches are shared
    costs its distinct nodes, and equal branches get one value.

    ``memo``, a dict that the caller keeps across calls, maps nodes to
    their values: the fold looks up every node it meets there, prefixes
    included, stops at the first one it finds, and stores the value of
    each node it folds, so a term costs only its nodes that no earlier
    fold met.  A run then goes to ``chain`` one node at a time, and a
    node whose value is None is folded again when met again."""
    if memo is not None:
        return _fold_memo(t, end, chain, memo)
    done = {}  # id of each subterm of a node with several -> its value
    values, todo = [], [t]  # subterms' values; what is still to fold
    while True:
        top = todo.pop()
        if type(top) is list:  # [top, run, node, n]: node's n subterms
            top, run, t, n = top  # are folded
            value = end(t, values[-n:])
            del values[-n:]
        elif id(top) in done:
            values.append(done[id(top)])
            continue
        else:
            run, t = [], top
            while type(t) in _PREFIXES:
                run.append(t)
                t = t.cont
            get = _KIDS.get(type(t))
            if get is None:
                value = end(t, ())
            else:
                ks = get(t)
                todo.append([top, run, t, len(ks)])
                todo += reversed(ks)
                continue
        if run:
            value = chain(run, value)
        if not todo:  # the value of t itself
            return value
        done[id(top)] = value  # ids stay valid: the caller holds them
        values.append(value)


def _fold_memo(t, end, chain, memo):
    """:func:`fold` of ``t`` with the memo ``memo``."""
    values, todo = [], [t]
    while True:
        top = todo.pop()
        if type(top) is list:  # [run, node, n]: node's n subterms are folded
            run, t, n = top
            value = memo[t] = end(t, values[-n:])
            del values[-n:]
        elif (value := memo.get(top)) is not None:
            run = ()
        else:
            run, t = [], top
            while type(t) in _PREFIXES:
                run.append(t)
                t = t.cont
                if (value := memo.get(t)) is not None:
                    break
            else:
                get = _KIDS.get(type(t))
                if get is None:
                    value = memo[t] = end(t, ())
                else:
                    ks = get(t)
                    todo.append([run, t, len(ks)])
                    todo += reversed(ks)
                    continue
        for node in reversed(run):
            value = memo[node] = chain((node,), value)
        if not todo:
            return value
        values.append(value)


def rewrite_first(t, here):
    """``t`` with its first subterm, in preorder, that ``here`` rewrites
    (``here`` answers None where it does not) replaced by the rewrite; None
    when ``here`` rewrites none.  The subterms still to visit wait on an
    explicit stack, each with the chain of nodes above it.  A node with
    several subterms is searched once: met again, ``here`` found nothing
    there.  So an else branch is walked only when it is not the very
    object of its then branch."""
    searched = set()  # ids of the nodes with several subterms met so far
    todo = [(t, ())]
    while todo:
        t, above = todo.pop()
        while True:
            ks = kids(t)
            if len(ks) > 1:
                if id(t) in searched:
                    break
                searched.add(id(t))
            new = here(t)
            if new is not None:
                while above:  # put the rewrite back in place
                    node, i, above = above
                    new = replace_kid(node, i, new)
                return new
            if len(ks) > 1:
                todo += [(ks[i], (t, i, above))
                         for i in range(len(ks) - 1, 0, -1)
                         if ks[i] is not ks[i - 1]]
            elif not ks:
                break
            above = (t, 0, above)
            t = ks[0]
    return None


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


def transform(t, post):
    """Rebuild ``t`` bottom-up, by :func:`fold`: each node is rebuilt from
    its transformed subterms and then mapped by ``post``."""
    def chain(run, done):
        for node in reversed(run):
            done = post(replace_cont(node, done))
        return done

    return fold(t, lambda node, done: post(rebuild(node, done)), chain)


def check_bound(t) -> None:
    """Raise BindError on a recursion call outside every definition of its
    variable, or on a definition inside another of the same variable.  The
    engines resolve calls lexically with or without distinct binders; the
    parsers still reject shadowing, as a program that shadows is hard to
    read.  The variables in scope are one set: a definition's variable
    leaves it when the walk pops the name it left under its subterms, so
    nested definitions cost linear time."""
    bound, stack = set(), [t]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is str:
            bound.remove(t)
            continue
        if kind is Call and t.var not in bound:
            raise BindError(f"unbound recursion variable {t.var}")
        if kind is Def:
            if t.var in bound:
                raise BindError(f"shadowed recursion variable {t.var}")
            bound.add(t.var)
            stack.append(t.var)
        stack.extend(reversed(kids(t)))


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
    """:func:`gc` of ``t``, and the variables called free in the result;
    in the scope of a gc memo, each node is collected once per memo."""
    return fold(t, _gc_end, _gc_chain, _memo)


def _gc_end(t, done):
    """:func:`_gc` of ``t``, not a prefix, from those of its subterms."""
    kind = type(t)
    if kind is Nil:
        return t, _NO_CALLS
    if kind is Call:
        return t, frozenset((t.var,))
    if kind is not Def:
        return (rebuild(t, [k for k, _ in done]),
                _NO_CALLS.union(*[calls for _, calls in done]))
    (body, inner), (cont, free) = done
    if t.var not in free:
        return cont, free  # nothing calls the definition
    free = (inner | free) - {t.var}
    if body is not t.body or cont is not t.cont:
        t = Def(t.var, body, cont)
    # A collected subterm that starts with an action keeps ``t``.
    if (not free and type(body) in _INERT and type(cont) in _INERT
            and all(type(s) in _INERT for s in subterms(t))):
        t = NIL
    return t, free


def _gc_chain(run, done):
    """:func:`_gc` of the prefixes ``run`` above ``done``'s term."""
    t, free = done
    if t is run[-1].cont:  # nothing below changed
        return run[0], free
    for node in reversed(run):
        t = node if t is node.cont else replace_cont(node, t)
    return t, free


# ---------------------------------------------------------------------------
# Heads and lexical environments


def binder(env, var: str):
    """The entry of ``env`` whose definition binds ``var``; () if none."""
    while env and env[0].var != var:
        env = env[1]
    return env


def head(t, env=()):
    """The first action of ``t``, a choreography or a behaviour, in the
    environment ``env``, and the environment in scope there.  An
    environment is () or the innermost definition in scope paired with
    the environment it is in; a call resumes the body of its definition
    there, so calls resolve lexically.  A call cycle with no action in
    between is 0, as :func:`gc` folds it, and a free call is returned as
    it is."""
    cycle = set()
    while True:
        kind = type(t)
        if kind is Def:
            env = (t, env)
            t = t.cont
        elif kind is Call:
            env = binder(env, t.var)
            if not env:
                return t, env
            if env in cycle:
                return NIL, ()
            cycle.add(env)
            t = env[0].body
        else:
            return t, env


def resume(t, env):
    """``t`` under the nodes of the chain ``env``, the innermost nearest.
    Under an environment, this is the term that continues with ``t`` after
    the action :func:`head` found there; under a spine of visited nodes
    chained the same way, it is ``t`` put back in place."""
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

    def chain(run, _):
        for t in run:
            kind = type(t)
            if kind is Com:
                names.add(t.src)
                names.add(t.dst)
            elif kind is RtSend or kind is BRecv:
                names.add(t.src)
            elif kind is RtRecv or kind is BSend:
                names.add(t.dst)

    def end(t, _):
        if type(t) is Cond:
            names.add(t.decider)

    fold(term, end, chain)
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
    if type(cont) is Nil:
        return first

    def end(t, done):
        kind = type(t)
        if kind is Nil:
            return cont
        if kind is Cond:
            return rebuild(t, done)
        # A definition or a behaviour conditional goes on in its last field.
        return replace_cont(t, done[-1]) if done else t

    def chain(run, done):
        for node in reversed(run):
            done = replace_cont(node, done)
        return done

    return fold(first, end, chain)


def replace_cont(node, cont):
    """``node`` with its continuation swapped for ``cont``; ``node`` itself
    when ``cont`` is already its continuation."""
    if cont is node.cont:
        return node
    kind = type(node)
    return kind(*_BEFORE_CONT[kind](node), cont)
