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

from .chor_async import check_abstract_async, enabled_async, \
    harvest_contexts, well_formed
from .congruence import network_equiv
from .errors import IllFormed, NotProjectable
from .network import classify, enabled_asp, enabled_sp, lift_to_async, \
    network_key, normalize_network
from .project import epp_async, epp_sync, projectable
from .render import render_choreography
from .sync import Configuration, enabled_sync, terminated
from .terms import SUBTERMS, BinOp, BoolV, Cell, Com, Cond, Def, IntV, \
    Lit, NIL, Call, Nil, kids, pn, rebuild, seq
from .values import GlobalState

STATE_CAP = 50_000
SOUNDNESS_UNFOLD_BUDGET = 2
# Unfold budget for a second try when equivalence at the first budget is
# unknown; a correspondence unknown even here is reported as
# budget-exceeded, never as a failure.
SOUNDNESS_RETRY_BUDGET = 4


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
    recursion_depth: int = 1
    conditionals: bool = True
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


def _random_seq(rng, names, budget, allow_cond, rec_var=None):
    """Random action sequence; conditionals keep non-decider behaviour
    identical in both branches, so the result is projectable."""
    if budget <= 0:
        return Call(rec_var) if rec_var and rng.random() < 0.8 else NIL
    if allow_cond and budget >= 2 and rng.random() < 0.25:
        decider = rng.choice(names)
        inner = budget - 1
        shared = _random_seq(rng, names, inner - 1, allow_cond, rec_var)
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
               _random_seq(rng, names, budget - 1, allow_cond, rec_var))


def _random_program(rng, spec: CorpusSpec):
    nprocs = rng.randrange(2, spec.max_procs + 1)
    names = list(_NAMES[:nprocs])
    actions = rng.randrange(1, spec.max_actions + 1)
    if spec.recursion_depth > 0 and rng.random() < 0.2:
        # A branch-free loop: without process-to-process selections, a loop
        # whose branches differ is never projectable, so recursive programs
        # here run forever and are explored up to the depth bound.
        body_budget = max(1, min(3, actions // 2))
        body = NIL
        while isinstance(body, Nil):
            body = _random_seq(rng, names, body_budget, False)
        loop = Def("X", seq(body, Call("X")), Call("X"))
        prefix = _random_seq(rng, names, actions - body_budget,
                             spec.conditionals)
        return seq(prefix, loop) if rng.random() < 0.5 else loop
    return _random_seq(rng, names, actions, spec.conditionals)


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

    Each configuration's steps under ``enabled_sync`` or ``enabled_async``
    are computed once and kept as a tuple of (label, successor) pairs.
    Labels, states and choreography nodes are hash-consed: a successor is
    stored with every subterm replaced by the stored equal one, so each
    distinct configuration, and each distinct subterm, exists once.
    Networks are not stored: their step relations cost little next to the
    choreography engines.
    """

    def __init__(self):
        self._steps = {"sync": {}, "async": {}}
        self._stored = {}

    def steps(self, cfg: Configuration, mode: str) -> tuple:
        table = self._steps[mode]
        found = table.get(cfg)
        if found is None:
            raw = enabled_sync(cfg) if mode == "sync" else enabled_async(cfg)
            found = table[cfg] = tuple((self._cons(label), self._cons(succ))
                                       for label, succ in raw)
        return found

    def _cons(self, t):
        """The stored term equal to ``t``; a new configuration or
        choreography node is stored after its subterms are."""
        found = self._stored.get(t)
        if found is not None:
            return found
        if isinstance(t, Configuration):
            chor, state = self._cons(t.chor), self._cons(t.state)
            if chor is not t.chor or state is not t.state:
                t = Configuration(chor, state)
        elif type(t) in SUBTERMS:
            t = rebuild(t, [self._cons(k) for k in kids(t)])
        self._stored[t] = t
        return t


def _explore(start, steps, depth: int, cap: int):
    """Breadth-first search from ``start`` along ``steps``."""
    seen = {start: None}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for c in frontier:
            for _, succ in steps(c):
                if succ not in seen:
                    if len(seen) >= cap:
                        return list(seen), True
                    seen[succ] = None
                    nxt.append(succ)
        if not nxt:
            break
        frontier = nxt
    return list(seen), False


def explore_chor(cfg: Configuration, mode: str, depth: int,
                 cap: int = STATE_CAP, store: SuccessorStore | None = None):
    """Unique reachable configurations up to the depth, in breadth-first
    order; returns (configs, capped flag)."""
    store = SuccessorStore() if store is None else store
    return _explore(cfg, lambda c: store.steps(c, mode), depth, cap)


def explore_network(n, mode: str, depth: int, cap: int = STATE_CAP):
    step = enabled_sp if mode == "sync" else enabled_asp
    return _explore(normalize_network(n), step, depth, cap)


def _report(theorem, program, states, failures, capped=False):
    if failures:
        return TheoremReport(theorem, program, states, "fail",
                             tuple(failures[:5]))
    if capped:
        return TheoremReport(theorem, program, states, "budget-exceeded")
    return TheoremReport(theorem, program, states, "pass")


def _sig(label):
    return (label.rule, label.subjects, label.value)


def _some_equiv(pairs):
    """Whether some pair of networks is equivalent: True at the first
    equivalent pair; otherwise None if some pair stayed unknown, even
    retried at the larger unfold budget, and False if none did."""
    unknown = False
    for n1, n2 in pairs:
        verdict = network_equiv(n1, n2, SOUNDNESS_UNFOLD_BUDGET)
        if verdict is None:
            verdict = network_equiv(n1, n2, SOUNDNESS_RETRY_BUDGET)
        if verdict:
            return True
        unknown = unknown or verdict is None
    return None if unknown else False


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
    if projectable(program):
        net = epp_sync(program, sigma)
        if mode == "async":
            net = lift_to_async(net)
        nets, ncapped = explore_network(net, mode, depth)
        capped = capped or ncapped
        states += len(nets)
        for n in nets:
            verdict = classify(n, mode)
            if verdict in ("deadlocked", "orphaned-messages"):
                failures.append(f"{verdict} network: {network_key(n)}")
    return _report(name, text, states, failures, capped)


def _lockstep(cfg, chor_steps, net, net_steps, project, failures) -> bool:
    """Signature bijection plus pointwise successor correspondence.
    Returns True if some correspondence stayed unknown within the unfold
    budgets."""
    chor_by_sig = {}
    for label, succ in chor_steps:
        chor_by_sig.setdefault(_sig(label), []).append(succ)
    net_by_sig = {}
    for label, succ in net_steps:
        net_by_sig.setdefault(_sig(label), []).append(succ)

    def here():
        return cfg.key()[0]

    if set(chor_by_sig) != set(net_by_sig):
        only_c = set(chor_by_sig) - set(net_by_sig)
        only_n = set(net_by_sig) - set(chor_by_sig)
        failures.append(
            f"step mismatch at {here()}: choreography-only "
            f"{sorted(only_c)}, network-only {sorted(only_n)}")
        return False
    unknown = False
    for sig, chor_succs in chor_by_sig.items():
        net_succs = net_by_sig[sig]
        if len(chor_succs) != len(net_succs):
            failures.append(f"multiplicity mismatch for {sig} at {here()}")
            continue
        for succ in chor_succs:
            projected = project(succ)
            if projected is None:
                failures.append(f"successor of {sig} not projectable "
                                f"at {here()}")
                continue
            verdict = _some_equiv((projected, n) for n in net_succs)
            if verdict is None:
                unknown = True
            elif not verdict:
                failures.append(
                    f"no network step for {sig} reaches the projection "
                    f"of {succ.key()[0]} (from {here()})")
    return unknown


def _check_epp(theorem, program, sigma, depth, mode, project, net_steps,
               precheck, store):
    """Projection lockstep along every configuration explored in ``mode``:
    ``project`` maps configurations to networks stepped by ``net_steps``.
    A configuration whose choreography fails ``precheck`` (when given) is
    reported ill-formed and not projected."""
    store = SuccessorStore() if store is None else store
    text = render_choreography(program)
    configs, capped = explore_chor(Configuration(program, sigma), mode,
                                   depth, store=store)
    failures = []
    unknown = False

    def project_succ(succ):
        try:
            return project(succ.chor, succ.state)
        except (NotProjectable, IllFormed):
            return None

    for cfg in configs:
        if precheck is not None and not precheck(cfg.chor):
            failures.append(f"ill-formed reachable term: {cfg.key()[0]}")
            continue
        try:
            net = project(cfg.chor, cfg.state)
        except (NotProjectable, IllFormed) as exc:
            failures.append(f"projection lost along execution: {exc}")
            continue
        unknown |= _lockstep(cfg, store.steps(cfg, mode), net,
                             net_steps(net), project_succ, failures)
    return _report(theorem, text, len(configs), failures, capped or unknown)


def check_epp_sync(program, sigma, depth, store=None) -> TheoremReport:
    return _check_epp("epp-sync-lockstep", program, sigma, depth, "sync",
                      epp_sync, enabled_sp, None, store)


def check_epp_async(program, sigma, depth, store=None) -> TheoremReport:
    return _check_epp("epp-async-lockstep", program, sigma, depth, "async",
                      epp_async, enabled_asp,
                      lambda c: well_formed(c)[0], store)


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
    failures = []
    for cfg in sync_configs:
        async_steps = store.steps(cfg, "async")
        for label, succ in store.steps(cfg, "sync"):
            if label.rule in ("Then", "Else"):
                if not any(l.key() == label.key() and s == succ
                           for l, s in async_steps):
                    failures.append(
                        f"conditional step unmatched at {cfg.key()[0]}")
                continue
            want = _sig(label)[1:]
            if not any(l1.rule == "ComS" and _sig(l1)[1:] == want
                       and any(l2.rule == "ComR" and _sig(l2)[1:] == want
                               and end == succ
                               for l2, end in store.steps(mid, "async"))
                       for l1, mid in async_steps):
                failures.append(
                    f"communication {label.subjects} has no send;receive "
                    f"realization at {cfg.key()[0]}")
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
    report = _report("async-equivalence", text,
                     len(sync_configs) + len(async_configs), failures,
                     capped1 or capped2)
    if report.verdict == "pass" and budget_hit:
        return TheoremReport(report.theorem, report.program, report.states,
                             "budget-exceeded")
    return report


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


def _join_search(cfg, sync_set, depth, store, node_cap: int = 20_000):
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
                    if len(seen) >= node_cap:
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


def check_sp_asp_simulation(net, depth) -> TheoremReport:
    """Every synchronous network step is simulated from the queue-equipped
    network in at most two steps, landing on the lifted successor."""
    text = network_key(net)
    nets, capped = explore_network(net, "sync", depth)
    failures = []
    unknown = False
    for n in nets:
        lifted = lift_to_async(n)
        async_steps = enabled_asp(lifted)
        for label, succ in enabled_sp(n):
            if label.rule in ("Then", "Else"):
                verdict = _some_equiv(
                    (s, succ) for l, s in async_steps
                    if _sig(l)[0:2] == _sig(label)[0:2])
                what = "conditional step unmatched"
            else:
                want = _sig(label)[1:]
                verdict = _some_equiv(
                    (end, succ) for l1, mid in async_steps
                    if l1.rule == "ComS" and _sig(l1)[1:] == want
                    for l2, end in enabled_asp(mid)
                    if l2.rule == "ComR" and _sig(l2)[1:] == want)
                what = f"communication {label.subjects} not simulated"
            if verdict is None:
                unknown = True
            elif not verdict:
                failures.append(f"{what} at {network_key(n)}")
    return _report("sp-asp-simulation", text, len(nets), failures,
                   capped or unknown)


def check_well_formedness_preservation(program, sigma, depth,
                                       store=None) -> TheoremReport:
    text = render_choreography(program)
    configs, capped = explore_chor(Configuration(program, sigma), "async",
                                   depth, store=store)
    failures = [f"ill-formed reachable term: {cfg.key()[0]}"
                for cfg in configs if not well_formed(cfg.chor)[0]]
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
            per.append(check_sp_asp_simulation(net, depth))
        if "wf" in theorems or "t8" in theorems:
            per.append(check_well_formedness_preservation(
                program, sigma, depth, store=store))
        reports.extend((pid, r) for r in per)
    if "abstract-async" in theorems:
        reports.append(("corpus", check_abstract_asynchrony(corpus)))
    return reports
