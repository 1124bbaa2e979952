"""Seeded deterministic execution: schedulers, traces and their formats.

Trace text format, one line per step:

    #<n> <rule> <subjects> [v=<value>] [tag=#k] :: <rendered successor>

The machine-readable variant emits one JSON object per line with fields
{index, rule, subjects, value, tag, state}.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

from .chor_async import enabled_async
from .network import classify, enabled_asp, enabled_sp, normalize_network
from .render import render, render_value
from .sync import Configuration, StepLabel, enabled_sync, terminated
from .terms import Network, TagSupply


class LeftmostScheduler:
    """Picks the step whose redex is closest to the top of the term."""

    def pick(self, steps):
        return min(steps, key=lambda s: (s[0].path, s[0].key()))


class RandomScheduler:
    """Seeded uniform choice; identical seeds replay identical runs."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def pick(self, steps):
        ordered = sorted(steps, key=lambda s: (s[0].path, s[0].key()))
        return ordered[self._rng.randrange(len(ordered))]


def make_scheduler(name: str, seed: int = 0):
    if name == "leftmost":
        return LeftmostScheduler()
    if name == "random":
        return RandomScheduler(seed)
    raise ValueError(f"unknown scheduler {name!r}")


@dataclass(frozen=True)
class TraceStep:
    index: int
    label: StepLabel
    result: object  # Configuration or Network


@dataclass(frozen=True)
class Trace:
    steps: tuple
    outcome: str  # terminated|budget|deadlocked|orphaned-messages|interrupted

    def final(self, start):
        return self.steps[-1].result if self.steps else start


def run_chor(cfg: Configuration, mode: str, scheduler,
             max_steps: int = 1000, supply: Optional[TagSupply] = None) -> Trace:
    """Drive a choreography to termination or the step budget, or until
    the scheduler picks no step (None)."""
    if supply is None:
        supply = TagSupply.above(cfg.chor)
    steps = []
    for index in range(max_steps):
        options = enabled_sync(cfg) if mode == "sync" else enabled_async(cfg)
        if not options:
            outcome = "terminated" if terminated(cfg.chor) else "deadlocked"
            return Trace(tuple(steps), outcome)
        picked = scheduler.pick(options)
        if picked is None:
            return Trace(tuple(steps), "interrupted")
        label, cfg = picked
        if label.rule == "ComS" and label.tag_id is None:
            label = label.with_tag(supply.fresh().id)
        steps.append(TraceStep(index, label, cfg))
    outcome = "terminated" if terminated(cfg.chor) else "budget"
    return Trace(tuple(steps), outcome)


def run_network(n: Network, mode: str, scheduler,
                max_steps: int = 1000) -> Trace:
    n = normalize_network(n)
    steps = []
    for index in range(max_steps):
        options = enabled_sp(n) if mode == "sync" else enabled_asp(n)
        if not options:
            return Trace(tuple(steps), classify(n, mode))
        label, n = scheduler.pick(options)
        steps.append(TraceStep(index, label, n))
    outcome = classify(n, mode)
    return Trace(tuple(steps), "budget" if outcome == "running" else outcome)


def _state_of(result) -> str:
    if isinstance(result, Configuration):
        sigma = {name: render_value(v) for name, v in result.state.cells}
        return json.dumps(sigma, sort_keys=True)
    return render(result)


def format_step_human(step: TraceStep) -> str:
    label = step.label
    parts = [f"#{step.index}", label.rule, ",".join(label.subjects)]
    if label.value is not None:
        parts.append(f"v={render_value(label.value)}")
    if label.tag_id is not None:
        parts.append(f"tag=#{label.tag_id}")
    rendered = (render(step.result.chor)
                if isinstance(step.result, Configuration)
                else render(step.result))
    return " ".join(parts) + " :: " + rendered


def format_step_record(step: TraceStep) -> str:
    label = step.label
    return json.dumps({
        "index": step.index,
        "rule": label.rule,
        "subjects": list(label.subjects),
        "value": (render_value(label.value)
                  if label.value is not None else None),
        "tag": label.tag_id,
        "state": _state_of(step.result),
    }, sort_keys=True)


def format_trace(trace: Trace, fmt: str = "human") -> str:
    formatter = format_step_human if fmt == "human" else format_step_record
    lines = [formatter(s) for s in trace.steps]
    lines.append(f"-- {trace.outcome}")
    return "\n".join(lines)
