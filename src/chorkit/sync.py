"""Synchronous choreography semantics.

Out-of-order execution is realized by interference analysis instead of
rewrite search: an interaction or conditional is enabled iff no action
between it and the top of the term shares a process name with it.  Actions
inside a conditional are enabled only when the same action is enabled in
both branches.  A call resolves lexically, through the chain of
definitions in scope, and each definition unfolds at most once on a path
when exposing redexes.  A brute-force rewriting oracle validating this
engine lives in the test suite, not here.
"""

from __future__ import annotations

from typing import Optional

from .errors import GuardNotBoolean, NotEnabled
from .render import render_choreography, render_value
from .terms import (
    BoolV,
    Call,
    Com,
    Cond,
    Def,
    Expr,
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


def _walk(c, sigma, mode, env, entered, blocked, path, everyone):
    """The enabled steps of ``c`` in the environment ``env``, as (label,
    successor, state, pending tag substitution) tuples.  The walk loops
    down the chain of prefixes, definitions and calls, and recurses only
    into the branches of a conditional.  A call resolves lexically, as in
    :func:`terms.head`, and each definition unfolds at most once on a
    path: ``entered`` holds the environment entries unfolded so far.
    Every step needs a process outside ``blocked``, so the walk stops once
    ``blocked`` holds ``everyone``, the processes of ``sigma``.
    Successors are rebuilt once from the spine of visited nodes, chained
    as :func:`terms.resume` reads it."""
    found = []  # (spine there, label, successor there, state, subst)
    spine = ()
    path = list(path)

    def step(rule, subjects, succ, state, subst=None, **fields):
        label = StepLabel(rule, subjects, tuple(path), **fields)
        found.append((spine, label, succ, state, subst))

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
                v = eval_expr(c.expr, sigma, c.decider)
                if not isinstance(v, BoolV):
                    raise GuardNotBoolean(
                        f"conditional guard at {'/'.join(path) or 'top'}"
                        f" evaluated to {render_value(v)}")
                step("Then" if v.b else "Else", (c.decider,),
                     c.then if v.b else c.orelse, sigma, expr=c.expr)
            inner = blocked | {c.decider}
            left = _walk(c.then, sigma, mode, env, entered, inner,
                         (*path, "then"), everyone)
            right = _walk(c.orelse, sigma, mode, env, entered, inner,
                          (*path, "else"), everyone)
            for a, b in _match_by_key(left, right):
                found.append((spine, a[0],
                              Cond(c.decider, c.expr, a[1], b[1]), *a[2:]))
            break
        if kind is Def:
            env = (c, env)
        elif kind is Nil:
            break
        elif mode == "sync":
            if kind is Com and c.src not in blocked and c.dst not in blocked:
                v = eval_expr(c.expr, sigma, c.src)
                step("Com", (c.src, c.dst), c.cont, sigma.update(c.dst, v),
                     value=v, expr=c.expr)
        elif kind is RtRecv:
            if type(c.payload) is not Tag and c.dst not in blocked:
                step("ComR", (c.src, c.dst), c.cont,
                     sigma.update(c.dst, c.payload), value=c.payload)
        elif c.src not in blocked:  # an async send, attached or detached
            v = eval_expr(c.expr, sigma, c.src)
            if kind is Com:
                step("ComS", (c.src, c.dst), RtRecv(c.src, v, c.dst, c.cont),
                     sigma, value=v, expr=c.expr)
            else:
                step("ComS", (c.src,), c.cont, sigma, (c.tag, v), value=v,
                     tag_id=c.tag.id, expr=c.expr)
        if kind is not Def:
            blocked = blocked | head_pn(c)
        spine = (c, spine)
        c = c.cont
        path.append("in" if kind is Def else "cont")
    return [(label, resume(chor, spine), state, subst)
            for spine, label, chor, state, subst in found]


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
    """Pair up steps enabled in both conditional branches with identical
    redex identity; unpaired steps are not enabled."""
    pool = {}
    for b in right:
        pool.setdefault(b[0].key(), []).append(b)
    pairs = []
    for a in left:
        bucket = pool.get(a[0].key())
        if bucket:
            pairs.append((a, bucket.pop(0)))
    return pairs


def subst_tag(c, tag: Tag, value: Value):
    """Replace the (single, by linearity) receive carrying ``tag``; nodes
    off its path are returned as they are."""
    return transform(c, lambda n: RtRecv(n.src, value, n.dst, n.cont)
                     if type(n) is RtRecv and n.payload == tag else n)


def terminated(c) -> bool:
    return isinstance(gc(c), Nil)


def enabled(cfg: Configuration, mode: str):
    """All transitions from ``cfg`` in one rule application under arbitrary
    precongruence rewriting, as (label, successor configuration) pairs."""
    everyone = frozenset(name for name, _ in cfg.state.cells)
    steps = _walk(cfg.chor, cfg.state, mode, (), frozenset(), frozenset(),
                  (), everyone)
    out = []
    for label, chor, state, subst in steps:
        if subst is not None:
            chor = subst_tag(chor, *subst)
        out.append((label, Configuration(gc(chor), state)))
    return out


def enabled_sync(cfg: Configuration):
    return enabled(cfg, "sync")


def step_com(cfg: Configuration, redex: StepLabel) -> Configuration:
    if redex.rule != "Com":
        raise NotEnabled(f"not a communication redex: {redex}")
    return _fire(cfg, redex, "sync")


def step_cond(cfg: Configuration, redex: StepLabel) -> Configuration:
    if redex.rule not in ("Then", "Else"):
        raise NotEnabled(f"not a conditional redex: {redex}")
    return _fire(cfg, redex, "sync")


def _fire(cfg, redex, mode):
    for label, succ in enabled(cfg, mode):
        if label == redex:
            return succ
    raise NotEnabled(f"redex not enabled here: {redex}")
