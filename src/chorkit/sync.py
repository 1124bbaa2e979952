"""Synchronous choreography semantics.

Out-of-order execution is realized by interference analysis instead of
rewrite search: an interaction or conditional is enabled iff no action
between it and the top of the term shares a process name with it.  Actions
inside a conditional are enabled only when the same action is enabled in
both branches; recursion bodies are unfolded once at call sites when
exposing redexes.  A brute-force rewriting oracle validating this engine
lives in the test suite, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import GuardNotBoolean, NotEnabled
from .render import render_choreography, render_expr, render_value
from .terms import (
    NIL,
    BoolV,
    Call,
    Com,
    Cond,
    Def,
    Nil,
    RtRecv,
    RtSend,
    Tag,
    Term,
    Value,
    head_pn,
    replace_cont,
    term,
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
    expr_src: Optional[str] = None

    def key(self):
        """Redex identity, stable across conditional branches."""
        return (self.rule, self.subjects, self.value, self.tag_id,
                self.expr_src)

    def with_tag(self, tag_id: int) -> "StepLabel":
        return StepLabel(self.rule, self.subjects, self.path, self.value,
                         tag_id, self.expr_src)


@dataclass(frozen=True, slots=True)
class _Step:
    label: StepLabel
    chor: object
    state: GlobalState
    subst: Optional[tuple] = None  # (Tag, Value) pending global substitution


def _guard_bool(v, where: str) -> bool:
    if not isinstance(v, BoolV):
        raise GuardNotBoolean(
            f"conditional guard at {where} evaluated to {render_value(v)}")
    return v.b


def _walk(c, sigma, mode, env, unfolded, blocked, path):
    """Enumerate enabled steps of ``c`` with successors built in place."""
    steps = []
    if isinstance(c, (Com, RtSend, RtRecv)):
        subjects = head_pn(c)
        if isinstance(c, Com):
            if mode == "sync" and not (subjects & blocked):
                v = eval_expr(c.expr, sigma, c.src)
                label = StepLabel("Com", (c.src, c.dst), path, value=v,
                                  expr_src=render_expr(c.expr))
                steps.append(_Step(label, c.cont, sigma.update(c.dst, v)))
            if mode == "async" and c.src not in blocked:
                v = eval_expr(c.expr, sigma, c.src)
                label = StepLabel("ComS", (c.src, c.dst), path, value=v,
                                  expr_src=render_expr(c.expr))
                steps.append(
                    _Step(label, RtRecv(c.src, v, c.dst, c.cont), sigma))
        elif isinstance(c, RtSend):
            if mode == "async" and c.src not in blocked:
                v = eval_expr(c.expr, sigma, c.src)
                label = StepLabel("ComS", (c.src,), path, value=v,
                                  tag_id=c.tag.id,
                                  expr_src=render_expr(c.expr))
                steps.append(_Step(label, c.cont, sigma,
                                   subst=(c.tag, v)))
        else:  # RtRecv
            if (mode == "async" and not isinstance(c.payload, Tag)
                    and c.dst not in blocked):
                label = StepLabel("ComR", (c.src, c.dst), path,
                                  value=c.payload)
                steps.append(_Step(label, c.cont,
                                   sigma.update(c.dst, c.payload)))
        inner = _walk(c.cont, sigma, mode, env, unfolded,
                      blocked | subjects, path + ("cont",))
        for s in inner:
            steps.append(_Step(s.label, replace_cont(c, s.chor), s.state,
                               s.subst))
        return steps

    if isinstance(c, Cond):
        if c.decider not in blocked:
            v = eval_expr(c.expr, sigma, c.decider)
            taken = _guard_bool(v, "/".join(map(str, path)) or "top")
            label = StepLabel("Then" if taken else "Else", (c.decider,),
                              path, expr_src=render_expr(c.expr))
            steps.append(_Step(label, c.then if taken else c.orelse, sigma))
        inner_blocked = blocked | {c.decider}
        left = _walk(c.then, sigma, mode, env, unfolded, inner_blocked,
                     path + ("then",))
        right = _walk(c.orelse, sigma, mode, env, unfolded, inner_blocked,
                      path + ("else",))
        for a, b in _match_by_key(left, right):
            steps.append(_Step(
                a.label, Cond(c.decider, c.expr, a.chor, b.chor),
                a.state, subst=a.subst))
        return steps

    if isinstance(c, Def):
        env = dict(env)
        env[c.var] = c.body
        inner = _walk(c.cont, sigma, mode, env, unfolded, blocked,
                      path + ("in",))
        return [_Step(s.label, Def(c.var, c.body, s.chor), s.state, s.subst)
                for s in inner]

    if isinstance(c, Call):
        if c.var in unfolded or c.var not in env:
            return []
        # One unfold per exposure: the successor materializes the body.
        return _walk(env[c.var], sigma, mode, env, unfolded | {c.var},
                     blocked, path + ("unfold",))

    return []  # Nil


def _match_by_key(left, right):
    """Pair up steps enabled in both conditional branches with identical
    redex identity; unpaired steps are not enabled."""
    pool = {}
    for b in right:
        pool.setdefault(b.label.key(), []).append(b)
    pairs = []
    for a in left:
        bucket = pool.get(a.label.key())
        if bucket:
            pairs.append((a, bucket.pop(0)))
    return pairs


def subst_tag(c, tag: Tag, value: Value):
    """Replace the (single, by linearity) receive carrying ``tag``; nodes
    off its path are returned as they are."""
    if isinstance(c, RtRecv) and c.payload == tag:
        return RtRecv(c.src, value, c.dst, subst_tag(c.cont, tag, value))
    if isinstance(c, (Com, RtSend, RtRecv)):
        return replace_cont(c, subst_tag(c.cont, tag, value))
    if isinstance(c, Cond):
        then = subst_tag(c.then, tag, value)
        orelse = subst_tag(c.orelse, tag, value)
        if then is c.then and orelse is c.orelse:
            return c
        return Cond(c.decider, c.expr, then, orelse)
    if isinstance(c, Def):
        body = subst_tag(c.body, tag, value)
        cont = subst_tag(c.cont, tag, value)
        if body is c.body and cont is c.cont:
            return c
        return Def(c.var, body, cont)
    return c


def _inert(c, bound=frozenset()) -> bool:
    """No action anywhere and no free recursion call: such a term can
    never step, since unfolding only copies existing subterms."""
    if isinstance(c, (Com, RtSend, RtRecv, Cond)):
        return False
    if isinstance(c, Def):
        inner = bound | {c.var}
        return _inert(c.body, inner) and _inert(c.cont, inner)
    if isinstance(c, Call):
        return c.var in bound
    return True  # Nil


def gc(c):
    """Garbage-collect: fold recursion wrappers over 0 and drop inert
    subterms.  A term with nothing to collect is returned as it is."""
    if isinstance(c, (Com, RtSend, RtRecv)):
        return replace_cont(c, gc(c.cont))
    if isinstance(c, Cond):
        then, orelse = gc(c.then), gc(c.orelse)
        if then is c.then and orelse is c.orelse:
            return c
        return Cond(c.decider, c.expr, then, orelse)
    if isinstance(c, Def):
        if _inert(c):
            return NIL
        cont = gc(c.cont)
        if isinstance(cont, Nil):
            return NIL
        body = gc(c.body)
        if body is c.body and cont is c.cont:
            return c
        return Def(c.var, body, cont)
    return c  # Nil, or a call that no definition encloses


def terminated(c) -> bool:
    return isinstance(gc(c), Nil)


def enabled(cfg: Configuration, mode: str):
    """All transitions from ``cfg`` in one rule application under arbitrary
    precongruence rewriting, as (label, successor configuration) pairs."""
    steps = _walk(cfg.chor, cfg.state, mode, {}, frozenset(), frozenset(), ())
    out = []
    for s in steps:
        chor = s.chor
        if s.subst is not None:
            chor = subst_tag(chor, *s.subst)
        out.append((s.label, Configuration(gc(chor), s.state)))
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
