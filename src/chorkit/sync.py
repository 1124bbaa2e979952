"""Synchronous choreography semantics.

Out-of-order execution is realized by interference analysis instead of
rewrite search: an interaction or conditional is enabled iff no action
between it and the top of the term shares a process name with it.  Actions
inside a conditional are enabled only when the same action is enabled in
both branches.  A call resolves lexically, through the chain of
definitions in scope, and each definition unfolds at most once on a path
when exposing redexes.  The analysis reads only the shape of the term, so
its moves are found once per choreography and mode and kept in a table;
in each configuration, the global state only gives the values sent and
the branches guards pick.  A brute-force rewriting oracle validating this
engine lives in the test suite, not here.
"""

from __future__ import annotations

from typing import Optional

from .errors import GuardNotBoolean
from .render import render_choreography, render_value
from .terms import (
    BoolV,
    Call,
    Com,
    Cond,
    Def,
    Expr,
    Hole,
    Nil,
    RtRecv,
    Tag,
    Term,
    Value,
    binder,
    gc,
    head_pn,
    resume,
    term,
    transform,
)
from .values import GlobalState, eval_expr


@term
class Configuration(Term):
    chor: object
    state: GlobalState

    def key(self):
        """The rendered form, for messages; configurations themselves are
        the state keys."""
        return (render_choreography(self.chor), self.state.cells)


@term
class StepLabel(Term):
    rule: str  # Com | Then | Else | ComS | ComR
    subjects: tuple  # sorted process names
    path: tuple
    value: Optional[Value] = None
    tag_id: Optional[int] = None
    expr: Optional[Expr] = None

    def key(self):
        """Redex identity, stable across conditional branches."""
        return (self.rule, self.subjects, self.value, self.tag_id,
                self.expr)

    def with_tag(self, tag_id: int) -> "StepLabel":
        return StepLabel(self.rule, self.subjects, self.path, self.value,
                         tag_id, self.expr)


def _walk(c, mode, everyone):
    """The moves of ``c`` in ``mode``, as (rule, subjects, path, operand,
    tag, after, settled) tuples, which the global state does not decide.
    ``rule`` is Com, ComR, ComS, or Cond for a conditional, whose guard
    picks Then or Else; ``operand`` is the expression of the value or
    guard, or the payload of a receive; ``tag`` is the tag of a detached
    send.  ``after`` holds the successors: one, or the then and else
    successors of a conditional.  An asynchronous send keeps instead the
    (spine, term) that :func:`_sent` builds its successor from: the term
    has a hole where the send was, in each branch for a conditional's.
    ``settled`` says that no definition lies above the move, so that its
    successors are collected when ``c`` is.

    The walk loops down the chain of prefixes, definitions and calls.  A
    call resolves lexically, as in :func:`terms.head`, and each definition
    unfolds at most once on a path: ``entered`` holds the environment
    entries unfolded so far.  Every move needs a process outside
    ``blocked``, so a walk stops once ``blocked`` holds ``everyone``, a
    superset of the processes of ``c``.  The branches of a conditional
    wait on an explicit stack and are walked depth first; an else branch
    that is the very object of its then branch is walked once.
    Successors are rebuilt once from the spine of visited nodes, chained
    as :func:`terms.resume` reads it."""
    walked = []  # the moves of each walked branch, resumed to its top
    path = []  # the steps from the top to the walk
    todo = [(c, (), frozenset(), frozenset(), 0, ())]
    while todo:
        item = todo.pop()
        if type(item) is list:  # both branches of a conditional are walked
            found, spine, settled, c, shared = item
            right = walked.pop()
            left = right if shared else walked.pop()
            for a, b in (zip(left, left) if shared
                         else _match_by_key(left, right)):
                if a[0] == "ComS":
                    x = resume(a[5][1], a[5][0])
                    y = x if b is a else resume(b[5][1], b[5][0])
                    after = Cond(c.decider, c.expr, x, y)
                else:
                    after = tuple([Cond(c.decider, c.expr, x, y)
                                   for x, y in zip(a[5], b[5])])
                found.append((spine, a[:5], after,
                              settled and a[6] and b[6]))
            walked.append(_resumed(found))
            continue
        c, env, entered, blocked, depth, step = item
        del path[depth:]
        path += step
        found = []  # (spine there, fields up to after, after there, settled)
        spine = ()
        settled = True

        def move(rule, subjects, after, operand, tag=None):
            found.append((spine, (rule, subjects, tuple(path), operand, tag),
                          after, settled))

        while not blocked >= everyone:
            kind = type(c)
            if kind is Call:
                entry = binder(env, c.var)
                if not entry or entry in entered:
                    break
                entered = entered | {entry}
                if entry is not env:
                    for d in _rebound(env, entry):
                        spine = (d, spine)
                env, c = entry, entry[0].body
                path.append("unfold")
                continue
            if kind is Cond:
                if c.decider not in blocked:
                    move("Cond", (c.decider,), (c.then, c.orelse), c.expr)
                inner = blocked | {c.decider}
                shared = c.orelse is c.then
                todo.append([found, spine, settled, c, shared])
                if not shared:
                    todo.append((c.orelse, env, entered, inner, len(path),
                                 ("else",)))
                todo.append((c.then, env, entered, inner, len(path),
                             ("then",)))
                found = None  # the conditional's frame resumes them
                break
            if kind is Def:
                env = (c, env)
                settled = False
            elif kind is Nil:
                break
            elif mode == "sync":
                if (kind is Com and c.src not in blocked
                        and c.dst not in blocked):
                    move("Com", (c.src, c.dst), (c.cont,), c.expr)
            elif kind is RtRecv:
                if type(c.payload) is not Tag and c.dst not in blocked:
                    move("ComR", (c.src, c.dst), (c.cont,), c.payload)
            elif c.src not in blocked:  # an async send, attached or detached
                if kind is Com:
                    move("ComS", (c.src, c.dst), Hole(c.cont), c.expr)
                else:
                    move("ComS", (c.src,), Hole(c.cont), c.expr, c.tag)
            if kind is not Def:
                blocked = blocked | head_pn(c)
            spine = (c, spine)
            c = c.cont
            path.append("in" if kind is Def else "cont")
        if found is not None:
            walked.append(_resumed(found))
    return walked.pop()


def _resumed(found):
    """The moves ``found`` of a walked chain, each with its successors put
    back under the spine above the move."""
    return [(*fields, (spine, after) if fields[0] == "ComS"
             else tuple([resume(t, spine) for t in after]), settled)
            for spine, fields, after, settled in found]


def _sent(after, src, value, dst):
    """The successor of an asynchronous send of ``value`` from ``src``,
    built from its ``after`` (see :func:`_walk`): the send leaves behind,
    at each hole, the receive at ``dst`` that carries the value, or, when
    it is detached (``dst`` is None), just its continuation."""
    def fill(n):
        if type(n) is not Hole:
            return n
        return n.cont if dst is None else RtRecv(src, value, dst, n.cont)

    spine, inner = after
    return resume(fill(inner) if type(inner) is Hole
                  else transform(inner, fill), spine)


def _rebound(env, entry):
    """The definitions of ``entry``, outermost first, if a definition of
    ``env`` above ``entry`` rebinds a name that one of them binds; none
    otherwise.  A body unfolded at a call below such a definition goes
    under them, so that its calls still resolve in ``entry``."""
    between = set()
    while env is not entry:
        d, env = env
        between.add(d.var)
    defs = []
    while entry:
        d, entry = entry
        defs.append(d)
    return defs[::-1] if any(d.var in between for d in defs) else ()


def _match_by_key(left, right):
    """Pair up moves enabled in both conditional branches with identical
    redex identity, the fields of a move before its successors but the
    path; unpaired moves are not enabled."""
    pool = {}
    for b in right:
        pool.setdefault(_redex(b), []).append(b)
    pairs = []
    for a in left:
        bucket = pool.get(_redex(a))
        if bucket:
            pairs.append((a, bucket.pop(0)))
    return pairs


def _redex(move):
    """A move's redex identity: what :meth:`StepLabel.key` gives its
    labels in every global state."""
    return move[:2] + move[3:5]


def subst_tag(c, tag: Tag, value: Value):
    """Replace the (single, by linearity) receive carrying ``tag``; nodes
    off its path are returned as they are."""
    return transform(c, lambda n: RtRecv(n.src, value, n.dst, n.cont)
                     if type(n) is RtRecv and n.payload == tag else n)


def terminated(c) -> bool:
    return isinstance(gc(c), Nil)


class MoveTable(dict):
    """The moves of each (choreography, mode) that :func:`enabled` has
    been asked for, as :func:`_fill` gives them.  The table also finds
    the objects it holds by identity, so that a run comes back to a
    choreography it has met without comparing whole terms.  ``ids`` maps
    the (id, mode) of each object it holds, which are its keys, the
    successors its moves keep and the send successors ``sent`` keeps, to
    that object's moves, or to None until they are looked up.  Those
    objects are all collected, and the table keeps them alive, so their
    ids stay theirs.  ``sent`` maps each asynchronous send move, by the
    id of its ``after``, and a value, by its type and field, to the
    collected successor of that send of that value, so a send repeated
    with the same value is built once."""

    __slots__ = ("ids", "sent")

    def __init__(self):
        super().__init__()
        self.ids = {}
        self.sent = {}


def _fill(table, chor, mode, everyone):
    """The moves of ``chor`` in ``mode``, as :func:`_walk` finds them but
    with collected successors, and with ``settled`` replaced by
    ``collect``: whether an asynchronous send's successor, built in each
    configuration, still needs collecting.  A settled successor of a
    collected term is collected already, and ``table`` knows the objects
    it holds to be collected."""
    moves = _walk(chor, mode, everyone)
    ids = table.ids
    collected = any(m[6] for m in moves) and ((id(chor), mode) in ids
                                             or gc(chor) is chor)
    out = []
    for *fields, after, settled in moves:
        clean = collected and settled
        if fields[0] != "ComS":
            if not clean:
                after = tuple(map(gc, after))
            for succ in after:
                ids.setdefault((id(succ), mode), None)
        out.append((*fields, after, not clean))
    return tuple(out)


def enabled(cfg: Configuration, mode: str, table=None):
    """All transitions from ``cfg`` in one rule application under arbitrary
    precongruence rewriting, as (label, successor configuration) pairs.
    The moves of ``cfg.chor`` come from ``table``, a :class:`MoveTable`
    that a caller keeps across related configurations, or from a fresh
    one; this evaluates each value and guard of them once in
    ``cfg.state``.  A guard that is not boolean raises only when its
    conditional can step."""
    if table is None:
        table = MoveTable()
    sigma, chor, ids = cfg.state, cfg.chor, table.ids
    key = id(chor), mode
    moves = ids.get(key, False)
    if type(moves) is not tuple:  # None if the table holds ``chor``
        held = moves is None
        moves = table.get((chor, mode))
        if moves is None:
            moves = table[chor, mode] = _fill(
                table, chor, mode, frozenset(name for name, _ in sigma.cells))
            held = True
        if held:
            ids[key] = moves
    out = []
    for rule, subjects, path, operand, tag, after, collect in moves:
        if rule == "ComR":
            label = StepLabel(rule, subjects, path, operand)
            succ, state = after[0], sigma.update(subjects[1], operand)
        else:
            v = eval_expr(operand, sigma, subjects[0])
            if rule == "Cond":
                if not isinstance(v, BoolV):
                    raise GuardNotBoolean(
                        f"conditional guard at {'/'.join(path) or 'top'}"
                        f" evaluated to {render_value(v)}")
                label = StepLabel("Then" if v.b else "Else", subjects, path,
                                  expr=operand)
                succ, state = after[0 if v.b else 1], sigma
            elif rule == "Com":
                label = StepLabel(rule, subjects, path, v, expr=operand)
                succ, state = after[0], sigma.update(subjects[1], v)
            else:  # an asynchronous send, attached or detached
                label = StepLabel(rule, subjects, path, v,
                                  None if tag is None else tag.id, operand)
                sent = id(after), v._type_and_fields(v)
                succ = table.sent.get(sent)
                if succ is None:
                    if tag is None:
                        succ = _sent(after, subjects[0], v, subjects[1])
                    else:
                        succ = subst_tag(_sent(after, subjects[0], v, None),
                                         tag, v)
                    if collect:
                        succ = gc(succ)
                    table.sent[sent] = succ
                    ids.setdefault((id(succ), mode), None)
                state = sigma
        out.append((label, Configuration(succ, state)))
    return out
