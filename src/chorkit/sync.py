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
    RtSend,
    Tag,
    Term,
    Value,
    gc,
    head_pn,
    kids,
    rebuild,
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
    expr: Optional[Expr] = None

    def key(self):
        """Redex identity, stable across conditional branches."""
        return (self.rule, self.subjects, self.value, self.tag_id,
                self.expr)

    def with_tag(self, tag_id: int) -> "StepLabel":
        return StepLabel(self.rule, self.subjects, self.path, self.value,
                         tag_id, self.expr)


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


def _walk(c, sigma, mode, env, unfolded, blocked, path, everyone):
    """Enumerate enabled steps of ``c`` with successors built in place.
    Every step needs a process outside ``blocked``, so the walk stops once
    ``blocked`` holds ``everyone``, the processes of ``sigma``."""
    if blocked >= everyone:
        return []
    steps = []
    if isinstance(c, (Com, RtSend, RtRecv)):
        subjects = head_pn(c)
        if isinstance(c, Com):
            if mode == "sync" and not (subjects & blocked):
                v = eval_expr(c.expr, sigma, c.src)
                label = StepLabel("Com", (c.src, c.dst), path, value=v,
                                  expr=c.expr)
                steps.append(_Step(label, c.cont, sigma.update(c.dst, v)))
            if mode == "async" and c.src not in blocked:
                v = eval_expr(c.expr, sigma, c.src)
                label = StepLabel("ComS", (c.src, c.dst), path, value=v,
                                  expr=c.expr)
                steps.append(
                    _Step(label, RtRecv(c.src, v, c.dst, c.cont), sigma))
        elif isinstance(c, RtSend):
            if mode == "async" and c.src not in blocked:
                v = eval_expr(c.expr, sigma, c.src)
                label = StepLabel("ComS", (c.src,), path, value=v,
                                  tag_id=c.tag.id, expr=c.expr)
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
                      blocked | subjects, path + ("cont",), everyone)
        for s in inner:
            steps.append(_Step(s.label, replace_cont(c, s.chor), s.state,
                               s.subst))
        return steps

    if isinstance(c, Cond):
        if c.decider not in blocked:
            v = eval_expr(c.expr, sigma, c.decider)
            taken = _guard_bool(v, "/".join(map(str, path)) or "top")
            label = StepLabel("Then" if taken else "Else", (c.decider,),
                              path, expr=c.expr)
            steps.append(_Step(label, c.then if taken else c.orelse, sigma))
        inner_blocked = blocked | {c.decider}
        left = _walk(c.then, sigma, mode, env, unfolded, inner_blocked,
                     path + ("then",), everyone)
        right = _walk(c.orelse, sigma, mode, env, unfolded, inner_blocked,
                      path + ("else",), everyone)
        for a, b in _match_by_key(left, right):
            steps.append(_Step(
                a.label, Cond(c.decider, c.expr, a.chor, b.chor),
                a.state, subst=a.subst))
        return steps

    if isinstance(c, Def):
        env = dict(env)
        env[c.var] = c.body
        inner = _walk(c.cont, sigma, mode, env, unfolded, blocked,
                      path + ("in",), everyone)
        return [_Step(s.label, Def(c.var, c.body, s.chor), s.state, s.subst)
                for s in inner]

    if isinstance(c, Call):
        if c.var in unfolded or c.var not in env:
            return []
        # One unfold per exposure: the successor materializes the body.
        return _walk(env[c.var], sigma, mode, env, unfolded | {c.var},
                     blocked, path + ("unfold",), everyone)

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
    if type(c) is RtRecv and c.payload == tag:
        c = RtRecv(c.src, value, c.dst, c.cont)
    return rebuild(c, [subst_tag(k, tag, value) for k in kids(c)])


def terminated(c) -> bool:
    return isinstance(gc(c), Nil)


def enabled(cfg: Configuration, mode: str):
    """All transitions from ``cfg`` in one rule application under arbitrary
    precongruence rewriting, as (label, successor configuration) pairs."""
    everyone = frozenset(name for name, _ in cfg.state.cells)
    steps = _walk(cfg.chor, cfg.state, mode, {}, frozenset(), frozenset(),
                  (), everyone)
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
