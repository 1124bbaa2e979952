"""Bounded exhaustive checking of the calculus's metatheory, plus the
seeded program-corpus generator.

Every check explores configuration graphs breadth-first up to a depth and a
hard state cap; exceeding the cap reports budget-exceeded, never a silent
pass.  Counterexamples carry enough rendered context to replay through the
public step engines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from operator import is_

from .chor_async import check_abstract_async, enabled_async, \
    harvest_contexts, well_formed
from .congruence import network_equiv
from .errors import IllFormed, NotProjectable
from .network import StepTable, classify, enabled_asp, enabled_sp, \
    lift_to_async, network_key, normalize_network
from .project import epp_sync, project_network, projectable
from .render import render_choreography
from .sync import Configuration, enabled_sync, terminated
from .terms import SUBTERMS, BinOp, BoolV, Cell, Com, Cond, Def, IntV, \
    Lit, NIL, Call, Network, Nil, Process, keep_hash, kids, pn, rebuild, \
    seq
from .values import GlobalState

STATE_CAP = 50_000
JOIN_CAP = 20_000  # states one rejoin search may visit


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    program: str
    states: int
    verdict: str  # pass | fail | budget-exceeded
    counterexample: tuple = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


# ---------------------------------------------------------------------------
# Corpus generation


@dataclass(frozen=True)
class CorpusSpec:
    max_procs: int = 4
    max_actions: int = 8
    seed: int = 42
    count: int = 60


_NAMES = ("p", "q", "r", "s")


def _random_expr(rng):
    roll = rng.random()
    if roll < 0.6:
        return Lit(IntV(rng.randrange(10)))
    if roll < 0.8:
        return Cell()
    return BinOp("+", Cell(), Lit(IntV(rng.randrange(5))))


def _random_guard(rng, small=10):
    roll = rng.random()
    if roll < 0.4:
        return Lit(BoolV(rng.random() < 0.5))
    op = "<" if roll < 0.7 else "="
    return BinOp(op, Cell(), Lit(IntV(rng.randrange(small))))


def _random_seq(rng, names, budget, allow_cond):
    """Random action sequence; conditionals keep non-decider behaviour
    identical in both branches, so the result is projectable."""
    if budget <= 0:
        return NIL
    if allow_cond and budget >= 2 and rng.random() < 0.25:
        decider = rng.choice(names)
        inner = budget - 1
        shared = _random_seq(rng, names, inner - 1, allow_cond)
        then, orelse = shared, shared
        # Branches may differ only in what the decider itself sends.
        if len(names) > 1 and rng.random() < 0.7:
            other = rng.choice([n for n in names if n != decider])
            then = Com(decider, _random_expr(rng), other, shared)
            orelse = Com(decider, _random_expr(rng), other, shared)
        return Cond(decider, _random_guard(rng), then, orelse)
    src = rng.choice(names)
    dst = rng.choice([n for n in names if n != src])
    return Com(src, _random_expr(rng), dst,
               _random_seq(rng, names, budget - 1, allow_cond))


def _random_program(rng, spec: CorpusSpec):
    nprocs = rng.randrange(2, spec.max_procs + 1)
    names = list(_NAMES[:nprocs])
    actions = rng.randrange(1, spec.max_actions + 1)
    if rng.random() < 0.2:
        # A branch-free loop: without process-to-process selections, a loop
        # whose branches differ is never projectable, so recursive programs
        # here run forever and are explored up to the depth bound.
        body_budget = max(1, min(3, actions // 2))
        body = NIL
        while isinstance(body, Nil):
            body = _random_seq(rng, names, body_budget, False)
        loop = Def("X", seq(body, Call("X")), Call("X"))
        prefix = _random_seq(rng, names, actions - body_budget, True)
        return seq(prefix, loop) if rng.random() < 0.5 else loop
    return _random_seq(rng, names, actions, True)


def generate_corpus(spec: CorpusSpec):
    """Deterministic list of runtime-free projectable choreographies."""
    rng = random.Random(spec.seed)
    out = []
    attempts = 0
    while len(out) < spec.count and attempts < spec.count * 50:
        attempts += 1
        program = _random_program(rng, spec)
        if isinstance(program, type(NIL)) or not pn(program):
            continue
        if projectable(program):
            out.append(program)
    return out


def default_state(program) -> GlobalState:
    return GlobalState.uniform(sorted(pn(program)))


# ---------------------------------------------------------------------------
# Exploration


class SuccessorStore:
    """The explored state space of one program, shared by all its checks.

    Each entry is computed once and kept until the store is dropped:
    - the steps of a configuration under ``enabled_sync`` or
      ``enabled_async``, and of a normalized network under ``enabled_sp``
      or ``enabled_asp``, as tuples of (label, successor) pairs, in one
      table per mode;
    - the :func:`well_formed` result of a choreography;
    - the normalized projection of a configuration in either mode, or the
      text of the error that makes it unprojectable;
    - the verdict of each network equivalence question, and the behaviour
      verdicts that :func:`network_equiv` reaches on the way;
    - per subterm and process, its projected behaviour, so a successor
      projects only the part its step changed;
    - per stored behaviour, its head and successor behaviours (a
      :class:`StepTable`), so a network step does not walk behaviours.

    Labels, states, choreographies and networks are hash-consed: a stored
    term has every subterm replaced by the stored equal one, so each
    distinct configuration, network and subterm exists once, and equal
    networks are the same object.
    """

    def __init__(self):
        self._steps = {"sync": {}, "async": {}}
        self._projections = {"sync": {}, "async": {}}
        self._well_formed = {}
        self._equiv = {}
        self._behaviour_equiv = {}
        self._stored = {}
        # Neither ``_cons`` nor the step table holds the store itself, so
        # a dropped store is freed at once, not by the cycle collector.
        self._cons = partial(_cons, self._stored)
        self._projected = {}
        self._moves = StepTable(self._cons)

    def steps(self, state, mode: str) -> tuple:
        """The steps of a configuration, or of a normalized network.  The
        engines are read from this module's globals at each call, so a
        wrapper set there (by a test, or the benchmark's tracer) sees every
        call."""
        table = self._steps[mode]
        found = table.get(state)
        if found is None:
            if type(state) is Configuration:
                raw = (enabled_sync(state) if mode == "sync"
                       else enabled_async(state))
            else:
                raw = (enabled_sp(state, self._moves) if mode == "sync"
                       else enabled_asp(state, self._moves))
            cons = self._cons
            found = table[state] = tuple((cons(label), cons(succ))
                                         for label, succ in raw)
        return found

    def well_formed(self, chor) -> tuple:
        found = self._well_formed.get(chor)
        if found is None:
            found = self._well_formed[chor] = well_formed(chor)
        return found

    def projection(self, cfg: Configuration, mode: str):
        """The normalized projection of ``cfg``, or the text of the error
        that makes it unprojectable."""
        table = self._projections[mode]
        found = table.get(cfg)
        if found is None:
            try:
                if mode == "sync":
                    net = epp_sync(cfg.chor, cfg.state, self._projected)
                else:
                    net = project_network(self.well_formed(cfg.chor)[1],
                                          cfg.state, self._projected)
                found = self._cons(normalize_network(net))
            except (NotProjectable, IllFormed) as exc:
                found = str(exc)
            table[cfg] = found
        return found

    def equiv(self, n1: Network, n2: Network) -> bool:
        key = (n1, n2)
        if key not in self._equiv:
            self._equiv[key] = network_equiv(n1, n2, self._behaviour_equiv)
        return self._equiv[key]


def _cons(stored, t):
    """The object in ``stored`` equal to ``t``; a new configuration,
    network, process, choreography or behaviour node, or tuple of them, is
    stored after its parts are."""
    found = stored.get(t)
    if found is not None:
        return found
    kind = type(t)
    new = t
    if kind is Configuration:
        chor, state = _cons(stored, t.chor), _cons(stored, t.state)
        if chor is not t.chor or state is not t.state:
            new = Configuration(chor, state)
    elif kind is Network:
        procs = _cons(stored, t.procs)
        if procs is not t.procs:
            new = Network(procs)
    elif kind is tuple:  # a network's entries, or one (name, process)
        parts = tuple(_cons(stored, x) for x in t)
        if any(a is not b for a, b in zip(parts, t)):
            new = parts
    elif kind is Process:
        state, queue = _cons(stored, t.state), _cons(stored, t.queue)
        b = _cons(stored, t.behaviour)
        if state is not t.state or queue is not t.queue \
                or b is not t.behaviour:
            new = Process(state, queue, b)
    elif kind in SUBTERMS:
        new = rebuild(t, [_cons(stored, k) for k in kids(t)])
    if new is not t:
        if kind is not tuple:  # ``t`` was hashed by the lookup above
            keep_hash(new, t)
        t = new
    stored[t] = t
    return t


def _explore(store, start, mode: str, depth: int):
    """Breadth-first search from ``start`` along the steps of ``mode``, up
    to :data:`STATE_CAP` states; returns (states, capped flag)."""
    store = SuccessorStore() if store is None else store
    start = store._cons(start)
    seen = {start: None}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for c in frontier:
            for _, succ in store.steps(c, mode):
                if succ not in seen:
                    if len(seen) >= STATE_CAP:
                        return list(seen), True
                    seen[succ] = None
                    nxt.append(succ)
        if not nxt:
            break
        frontier = nxt
    return list(seen), False


def explore_chor(cfg: Configuration, mode: str, depth: int,
                 store: SuccessorStore | None = None):
    """Unique reachable configurations up to the depth, in breadth-first
    order; returns (configs, capped flag)."""
    return _explore(store, cfg, mode, depth)


def explore_network(n, mode: str, depth: int,
                    store: SuccessorStore | None = None):
    """Unique reachable networks from the normalized ``n``, as
    :func:`explore_chor` gives configurations."""
    return _explore(store, normalize_network(n), mode, depth)


def _report(theorem, program, states, failures, capped=False):
    if failures:
        return TheoremReport(theorem, program, states, "fail",
                             tuple(failures[:5]))
    if capped:
        return TheoremReport(theorem, program, states, "budget-exceeded")
    return TheoremReport(theorem, program, states, "pass")


def _sig(label):
    return (label.rule, label.subjects, label.value)


# ---------------------------------------------------------------------------
# Theorem checks


def check_deadlock_freedom(program, sigma, depth, mode,
                           store=None) -> TheoremReport:
    """Progress: every reachable configuration is terminated or can step;
    for projectable programs, the projected network likewise never gets
    stuck or strands messages."""
    store = SuccessorStore() if store is None else store
    name = f"deadlock-freedom[{mode}]"
    text = render_choreography(program)
    configs, capped = explore_chor(Configuration(program, sigma), mode,
                                   depth, store=store)
    failures = []
    for cfg in configs:
        if not store.steps(cfg, mode) and not terminated(cfg.chor):
            failures.append(f"stuck configuration: {cfg.key()[0]}")
    states = len(configs)
    net = store.projection(Configuration(program, sigma), "sync")
    if not isinstance(net, str):  # a str says why it is not projectable
        if mode == "async":
            net = lift_to_async(net)
        nets, ncapped = explore_network(net, mode, depth, store=store)
        capped = capped or ncapped
        states += len(nets)
        for n in nets:
            if store.steps(n, mode):
                continue  # running
            verdict = classify(n, mode)
            if verdict in ("deadlocked", "orphaned-messages"):
                failures.append(f"{verdict} network: {network_key(n)}")
    return _report(name, text, states, failures, capped)


def _lockstep(cfg, net, mode, store, failures) -> None:
    """Signature bijection plus pointwise successor correspondence between
    ``cfg`` and its projection ``net``; each mismatch goes to
    ``failures``."""
    chor_by_sig, net_by_sig = by_sigs = {}, {}
    for state, by_sig in zip((cfg, net), by_sigs):
        for label, succ in store.steps(state, mode):
            by_sig.setdefault(_sig(label), []).append(succ)

    def here():
        return cfg.key()[0]

    if set(chor_by_sig) != set(net_by_sig):
        only_c = set(chor_by_sig) - set(net_by_sig)
        only_n = set(net_by_sig) - set(chor_by_sig)
        failures.append(
            f"step mismatch at {here()}: choreography-only "
            f"{sorted(only_c)}, network-only {sorted(only_n)}")
        return
    for sig, chor_succs in chor_by_sig.items():
        net_succs = net_by_sig[sig]
        if len(chor_succs) != len(net_succs):
            failures.append(f"multiplicity mismatch for {sig} at {here()}")
            continue
        for succ in chor_succs:
            projected = store.projection(succ, mode)
            if isinstance(projected, str):
                failures.append(f"successor of {sig} not projectable "
                                f"at {here()}")
                continue
            if not any(store.equiv(projected, n) for n in net_succs):
                failures.append(
                    f"no network step for {sig} reaches the projection "
                    f"of {succ.key()[0]} (from {here()})")


def _check_epp(theorem, program, sigma, depth, mode, store):
    """Projection lockstep along every configuration explored in ``mode``,
    against the steps of the projections in the same mode.  Asynchronous
    configurations that are not well-formed are reported as such and not
    projected."""
    store = SuccessorStore() if store is None else store
    text = render_choreography(program)
    configs, capped = explore_chor(Configuration(program, sigma), mode,
                                   depth, store=store)
    failures = []
    for cfg in configs:
        # Only asynchronous runs reach runtime terms.
        if mode == "async" and not store.well_formed(cfg.chor)[0]:
            failures.append(f"ill-formed reachable term: {cfg.key()[0]}")
            continue
        net = store.projection(cfg, mode)
        if isinstance(net, str):
            failures.append(f"projection lost along execution: {net}")
            continue
        _lockstep(cfg, net, mode, store, failures)
    return _report(theorem, text, len(configs), failures, capped)


def check_epp_sync(program, sigma, depth, store=None) -> TheoremReport:
    return _check_epp("epp-sync-lockstep", program, sigma, depth, "sync",
                      store)


def check_epp_async(program, sigma, depth, store=None) -> TheoremReport:
    return _check_epp("epp-async-lockstep", program, sigma, depth, "async",
                      store)


def _unsimulated(store, states, same):
    """The (state, label) of each synchronous step from ``states`` that no
    asynchronous step realizes: a conditional by one step with the same
    redex, a communication by a send and then the matching receive, each
    landing on a successor that ``same`` equates with the synchronous
    one."""
    for state in states:
        async_steps = store.steps(state, "async")
        for label, succ in store.steps(state, "sync"):
            if label.rule in ("Then", "Else"):
                if any(l.key() == label.key() and same(s, succ)
                       for l, s in async_steps):
                    continue
            else:
                want = _sig(label)[1:]
                if any(same(end, succ) for l1, mid in async_steps
                       if l1.rule == "ComS" and _sig(l1)[1:] == want
                       for l2, end in store.steps(mid, "async")
                       if l2.rule == "ComR" and _sig(l2)[1:] == want):
                    continue
            yield state, label


def check_async_equivalence(program, sigma, depth,
                            store=None) -> TheoremReport:
    """Both clauses of asynchronous equivalence: every synchronous step is
    a two-step (send; receive) asynchronous path, and every asynchronous
    run can rejoin a synchronously reachable configuration."""
    store = SuccessorStore() if store is None else store
    text = render_choreography(program)
    start = Configuration(program, sigma)
    # Draining one pending message can take several steps (its receive
    # plus the send/receive pairs of every communication blocking it), so
    # join paths scale with a multiple of the exploration depth, and the
    # synchronous reference set must reach at least as far.  The greedy
    # drain is linear in this budget and synchronous state sets saturate,
    # so a generous bound is cheap.
    join_depth = 10 * depth + 20
    sync_configs, capped1 = explore_chor(start, "sync", depth + join_depth,
                                         store=store)
    sync_set = set(sync_configs)
    failures = [
        f"conditional step unmatched at {cfg.key()[0]}"
        if label.rule in ("Then", "Else") else
        f"communication {label.subjects} has no send;receive realization "
        f"at {cfg.key()[0]}"
        for cfg, label in _unsimulated(store, sync_configs, is_)]
    async_configs, capped2 = explore_chor(start, "async", depth,
                                          store=store)
    budget_hit = False
    for cfg in async_configs:
        if _greedy_join(cfg, sync_set, join_depth, store):
            continue
        joined, exhausted = _join_search(cfg, sync_set, join_depth, store)
        if not joined:
            if exhausted:
                failures.append(
                    f"async configuration cannot rejoin: {cfg.key()[0]}")
            else:
                budget_hit = True
    return _report("async-equivalence", text,
                   len(sync_configs) + len(async_configs), failures,
                   capped1 or capped2 or budget_hit)


def _greedy_join(cfg, sync_set, budget, store) -> bool:
    """Drain pending messages along one deterministic path: receives first,
    then conditionals, then sends.  Usually finds the rejoin without the
    breadth-first fallback."""
    rank = {"ComR": 0, "Then": 1, "Else": 1, "ComS": 2, "Com": 2}
    for _ in range(budget + 1):
        if cfg in sync_set:
            return True
        options = store.steps(cfg, "async")
        if not options:
            return False
        _, cfg = min(options,
                     key=lambda s: (rank[s[0].rule], s[0].path, s[0].key()))
    return False


def _join_search(cfg, sync_set, depth, store):
    """BFS over async steps for a synchronously reachable configuration.
    Returns (found, search exhausted)."""
    seen = {cfg}
    frontier = [cfg]
    if cfg in sync_set:
        return True, True
    for _ in range(depth):
        nxt = []
        for c in frontier:
            for _, succ in store.steps(c, "async"):
                if succ in sync_set:
                    return True, True
                if succ not in seen:
                    if len(seen) >= JOIN_CAP:
                        return False, False
                    seen.add(succ)
                    nxt.append(succ)
        if not nxt:
            return False, True
        frontier = nxt
    return False, False


def check_diamond(program, sigma, depth, store=None) -> TheoremReport:
    store = SuccessorStore() if store is None else store
    text = render_choreography(program)
    configs, capped = explore_chor(Configuration(program, sigma), "async",
                                   depth, store=store)
    failures = []
    for cfg in configs:
        uniq = list(dict.fromkeys(s for _, s in store.steps(cfg, "async")))
        follows = [{s for _, s in store.steps(u, "async")} for u in uniq]
        for i in range(len(uniq)):
            for j in range(i + 1, len(uniq)):
                if not (follows[i] & follows[j]):
                    failures.append(
                        f"diamond fails at {cfg.key()[0]}: "
                        f"{uniq[i].key()[0]} vs {uniq[j].key()[0]}")
    return _report("diamond", text, len(configs), failures, capped)


def check_sp_asp_simulation(net, depth, store=None) -> TheoremReport:
    """Every synchronous network step is simulated from the queue-equipped
    network in at most two steps, landing on the lifted successor."""
    store = SuccessorStore() if store is None else store
    text = network_key(net)
    nets, capped = explore_network(net, "sync", depth, store=store)
    failures = [
        f"conditional step unmatched at {network_key(n)}"
        if label.rule in ("Then", "Else") else
        f"communication {label.subjects} not simulated at {network_key(n)}"
        for n, label in _unsimulated(store, nets, store.equiv)]
    return _report("sp-asp-simulation", text, len(nets), failures, capped)


def check_well_formedness_preservation(program, sigma, depth,
                                       store=None) -> TheoremReport:
    store = SuccessorStore() if store is None else store
    text = render_choreography(program)
    configs, capped = explore_chor(Configuration(program, sigma), "async",
                                   depth, store=store)
    failures = [f"ill-formed reachable term: {cfg.key()[0]}"
                for cfg in configs if not store.well_formed(cfg.chor)[0]]
    return _report("well-formedness-preservation", text, len(configs),
                   failures, capped)


def check_abstract_asynchrony(corpus) -> TheoremReport:
    violations = check_abstract_async(corpus, default_state)
    failures = [f"{v.clause} clause fails for {v.process} in {v.context}"
                for v in violations]
    return _report("abstract-asynchrony", f"corpus of {len(corpus)}",
                   sum(len(harvest_contexts(c)) for c in corpus), failures)


# ---------------------------------------------------------------------------
# Whole-corpus driver


THEOREMS = ("t1", "t2", "t5", "t6", "t7", "t8", "diamond", "abstract-async")


def verify_corpus(theorems, spec: CorpusSpec, depth: int = 12):
    """Run the selected checks over the generated corpus; reports are
    ordered by program id.  The checks of one program share one
    :class:`SuccessorStore`, dropped before the next program."""
    corpus = generate_corpus(spec)
    reports = []
    for idx, program in enumerate(corpus):
        sigma = default_state(program)
        pid = f"prog{idx:03d}"
        store = SuccessorStore()
        per = []
        if "t1" in theorems:
            per.append(check_deadlock_freedom(program, sigma, depth, "sync",
                                              store=store))
        if "t5" in theorems:
            per.append(check_deadlock_freedom(program, sigma, depth,
                                              "async", store=store))
        if "t2" in theorems:
            per.append(check_epp_sync(program, sigma, depth, store=store))
        if "t8" in theorems:
            per.append(check_epp_async(program, sigma, depth, store=store))
        if "t6" in theorems:
            per.append(check_async_equivalence(program, sigma, depth,
                                               store=store))
        if "diamond" in theorems:
            per.append(check_diamond(program, sigma, depth, store=store))
        if "t7" in theorems:
            net = epp_sync(program, sigma)
            per.append(check_sp_asp_simulation(net, depth, store=store))
        if "wf" in theorems or "t8" in theorems:
            per.append(check_well_formedness_preservation(
                program, sigma, depth, store=store))
        reports.extend((pid, r) for r in per)
    if "abstract-async" in theorems:
        reports.append(("corpus", check_abstract_asynchrony(corpus)))
    return reports
