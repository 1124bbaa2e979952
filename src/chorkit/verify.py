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
from operator import is_

from .chor_async import check_abstract_async, well_formed
from .congruence import network_equiv
from .errors import IllFormed, NotProjectable
from .network import ControlTable, classify, enabled_asp, enabled_sp, \
    network_key, normalize_network
from .project import epp_sync, project_network, projectable
from .render import render_choreography
from .sync import Configuration, enabled, terminated
from .terms import BinOp, BoolV, Cell, Com, Cond, Def, IntV, Lit, NIL, \
    Call, Network, Nil, intern, interning, pn, seq
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
        # whose branches differ is never projectable (one whose branches are
        # equal projects; this generator just never draws one), so recursive
        # programs here run forever and are explored up to the depth bound.
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
    - the states that a breadth-first search reaches from each start, in
      each mode and up to each depth, as :func:`_search` gives them;
    - the steps of a configuration under ``enabled``, and of a normalized
      network under ``enabled_sp`` or ``enabled_asp``, as tuples of
      (label, successor) pairs, in one table per mode;
    - the :func:`well_formed` result of a choreography;
    - the normalized projection of a configuration, reached in either
      mode, taken from the canonical form that :func:`well_formed` gives,
      or the text of the error that makes it unprojectable;
    - the verdict of each network equivalence question, and the behaviour
      verdicts that :func:`network_equiv` reaches on the way;
    - per subterm and process, its projected behaviour and the messages
      in transit to the process, so a successor projects only the part
      its step changed;
    - per control state of a network, its moves (a
      :class:`ControlTable`), so a network step does not walk behaviours;
    - per node, its collected form and the variables called free in it
      (the gc memo), so collecting a successor costs the nodes its step
      rebuilt;
    - per synchronous set that t6 rejoins, the configurations on a
      successful greedy drain and their distance to that set (the drain
      memo), so a later drain stops where an earlier one succeeded.

    The store owns an intern table and its gc memo, in one scope
    (:class:`chorkit.terms.interning`) that it enters while it computes
    steps, projections and well-formedness: each label, configuration,
    network and subterm it reaches exists once, which makes the per-node
    memos sound, and the start of an exploration is interned on entry.
    Terms built outside the scope still compare structurally.
    """

    def __init__(self):
        self._explored = {}
        self._steps = {"sync": {}, "async": {}}
        self._projections = {}
        self._well_formed = {}
        self._equiv = {}
        self._behaviour_equiv = {}
        self._table = {}
        self._collected = {}
        self._scope = interning(self._table, self._collected)
        self._drained = {}
        self._projected = {}
        self._moves = ControlTable()

    def steps(self, state, mode: str) -> tuple:
        """The steps of a configuration, or of a normalized network.  The
        engines are read from this module's globals at each call, so a
        wrapper set there (by a test, or the benchmark's tracer) sees every
        call."""
        table = self._steps[mode]
        found = table.get(state)
        if found is None:
            with self._scope:
                if type(state) is Configuration:
                    raw = enabled(state, mode)
                else:
                    raw = (enabled_sp(state, self._moves) if mode == "sync"
                           else enabled_asp(state, self._moves))
            found = table[state] = tuple(raw)
        return found

    def explored(self, start, mode: str, depth: int) -> tuple:
        """The states reachable from ``start``, interned first, along the
        steps of ``mode`` up to ``depth``, and how the search ended, as
        :func:`_search` gives them; each search runs once per store."""
        with self._scope:
            start = intern(start)
        key = start, mode, depth
        found = self._explored.get(key)
        if found is None:
            found = self._explored[key] = _search(self, start, mode, depth)
        return found

    def well_formed(self, chor) -> tuple:
        found = self._well_formed.get(chor)
        if found is None:
            with self._scope:
                found = self._well_formed[chor] = well_formed(chor)
        return found

    def projection(self, cfg: Configuration):
        """The normalized projection of ``cfg``, or the text of the error
        that makes it unprojectable."""
        found = self._projections.get(cfg)
        if found is None:
            try:
                with self._scope:
                    net = project_network(self.well_formed(cfg.chor)[1],
                                          cfg.state, self._projected)
                    found = normalize_network(net)
            except (NotProjectable, IllFormed) as exc:
                found = str(exc)
            self._projections[cfg] = found
        return found

    def equiv(self, n1: Network, n2: Network) -> bool:
        key = (n1, n2)
        if key not in self._equiv:
            self._equiv[key] = network_equiv(n1, n2, self._behaviour_equiv)
        return self._equiv[key]


def _search(store, start, mode: str, depth: int, cap=STATE_CAP, goal=()):
    """Breadth-first search from ``start``, a state ``store`` interned,
    along the steps of ``mode``, up to ``depth`` steps and ``cap`` states,
    that stops at a state in ``goal``.  Returns the states seen, in order,
    and how it ended: "goal", "cap", "depth", or "exhausted" when no new
    state was left."""
    seen = {start: None}
    if start in goal:
        return list(seen), "goal"
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for c in frontier:
            for _, succ in store.steps(c, mode):
                if succ in goal:
                    return list(seen), "goal"
                if succ not in seen:
                    if len(seen) >= cap:
                        return list(seen), "cap"
                    seen[succ] = None
                    nxt.append(succ)
        if not nxt:
            return list(seen), "exhausted"
        frontier = nxt
    return list(seen), "depth"


def explore_chor(cfg: Configuration, mode: str, depth: int,
                 store: SuccessorStore | None = None):
    """Unique reachable configurations up to the depth, in breadth-first
    order, explored once per ``store`` (a new one without); returns
    (configs, capped flag)."""
    configs, end = (store or SuccessorStore()).explored(cfg, mode, depth)
    return configs, end == "cap"


def explore_network(n, mode: str, depth: int,
                    store: SuccessorStore | None = None):
    """Unique reachable networks from the normalized ``n``, as
    :func:`explore_chor` gives configurations."""
    nets, end = (store or SuccessorStore()).explored(normalize_network(n),
                                                     mode, depth)
    return nets, end == "cap"


def _report(theorem, program, states, failures, capped=False):
    verdict = "fail" if failures else "budget-exceeded" if capped else "pass"
    return TheoremReport(theorem, program, states, verdict,
                         tuple(failures[:5]))


def _sig(label):
    return (label.rule, label.subjects, label.value)


def _opening(start, mode, depth, store):
    """What a check starts from: ``store``, or a new one; the text of the
    program or network it checks; and the states reachable from
    ``start``, a configuration or a network, in ``mode`` up to ``depth``,
    with the capped flag."""
    store = SuccessorStore() if store is None else store
    if type(start) is Configuration:
        return (store, render_choreography(start.chor),
                *explore_chor(start, mode, depth, store))
    return (store, network_key(start),
            *explore_network(start, mode, depth, store))


# ---------------------------------------------------------------------------
# Theorem checks


def check_deadlock_freedom(program, sigma, depth, mode,
                           store=None) -> TheoremReport:
    """Progress: every reachable configuration is terminated or can step;
    for projectable programs, the projected network likewise never gets
    stuck or strands messages."""
    store, text, configs, capped = _opening(Configuration(program, sigma),
                                            mode, depth, store)
    failures = []
    for cfg in configs:
        if not store.steps(cfg, mode) and not terminated(cfg.chor):
            failures.append(f"stuck configuration: {cfg.key()[0]}")
    states = len(configs)
    net = store.projection(configs[0])  # the start, as the store keeps it
    if not isinstance(net, str):  # a str says why it is not projectable
        nets, ncapped = explore_network(net, mode, depth, store=store)
        capped = capped or ncapped
        states += len(nets)
        for n in nets:
            if store.steps(n, mode):
                continue  # running
            verdict = classify(n, mode)
            if verdict in ("deadlocked", "orphaned-messages"):
                failures.append(f"{verdict} network: {network_key(n)}")
    return _report(f"deadlock-freedom[{mode}]", text, states, failures,
                   capped)


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
            projected = store.projection(succ)
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
    against the steps of the projections in the same mode; each
    projection must also hold the configuration's state.  Configurations
    that are not well-formed, which only asynchronous runs reach, are
    reported as such and not projected."""
    store, text, configs, capped = _opening(Configuration(program, sigma),
                                            mode, depth, store)
    failures = []
    for cfg in configs:
        if not store.well_formed(cfg.chor)[0]:
            failures.append(f"ill-formed reachable term: {cfg.key()[0]}")
            continue
        net = store.projection(cfg)
        if isinstance(net, str):
            failures.append(f"projection lost along execution: {net}")
            continue
        if any(p.state != cfg.state.get(name) for name, p in net.procs):
            failures.append(f"projection loses the state at {cfg.key()[0]}")
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
    # Draining one pending message can take several steps (its receive
    # plus the send/receive pairs of every communication blocking it), so
    # join paths scale with a multiple of the exploration depth, and the
    # synchronous reference set must reach at least as far.  The greedy
    # drain is linear in this budget and synchronous state sets saturate,
    # so a generous bound is cheap.
    join_depth = 10 * depth + 20
    start = Configuration(program, sigma)
    store, text, sync_configs, capped1 = _opening(
        start, "sync", depth + join_depth, store)
    sync_set = set(sync_configs)
    # ``is_`` suffices: the store builds every successor in the scope of
    # its intern table, so equal configurations are one object.
    failures = [
        f"conditional step unmatched at {cfg.key()[0]}"
        if label.rule in ("Then", "Else") else
        f"communication {label.subjects} has no send;receive realization "
        f"at {cfg.key()[0]}"
        for cfg, label in _unsimulated(store, sync_configs, is_)]
    async_configs, capped2 = explore_chor(start, "async", depth, store)
    # A drain's length holds for one synchronous set: the one reached
    # from this start, as the store interned it, within this depth.
    drained = store._drained.setdefault(
        (sync_configs[0], depth + join_depth), {})
    budget_hit = False
    for cfg in async_configs:
        if _greedy_join(cfg, sync_set, join_depth, store, drained):
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


def _greedy_join(cfg, sync_set, budget, store, drained) -> bool:
    """Drain pending messages along one deterministic path: receives first,
    then conditionals, then sends.  Usually finds the rejoin without the
    breadth-first fallback.  ``drained`` maps each configuration on an
    earlier successful drain toward ``sync_set`` to its number of steps
    from there; the path from it is the same, so a drain that meets one
    after ``i`` steps rejoins iff ``i`` plus that number is within
    ``budget``.  A success adds the configurations of its path."""
    rank = {"ComR": 0, "Then": 1, "Else": 1, "ComS": 2, "Com": 2}
    path, left = [], 0
    while cfg not in sync_set and not (left := drained.get(cfg, 0)):
        if len(path) == budget:
            return False
        options = store.steps(cfg, "async")
        if not options:
            return False
        path.append(cfg)
        _, cfg = min(options,
                     key=lambda s: (rank[s[0].rule], s[0].path, s[0].key()))
    steps = len(path) + left
    if steps > budget:
        return False
    for i, c in enumerate(path):
        drained[c] = steps - i
    return True


def _join_search(cfg, sync_set, depth, store):
    """BFS over async steps for a synchronously reachable configuration.
    Returns (found, search exhausted)."""
    end = _search(store, cfg, "async", depth, JOIN_CAP, sync_set)[1]
    return end == "goal", end in ("goal", "exhausted")


def check_diamond(program, sigma, depth, store=None) -> TheoremReport:
    store, text, configs, capped = _opening(Configuration(program, sigma),
                                            "async", depth, store)
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
    store, text, nets, capped = _opening(net, "sync", depth, store)
    failures = [
        f"conditional step unmatched at {network_key(n)}"
        if label.rule in ("Then", "Else") else
        f"communication {label.subjects} not simulated at {network_key(n)}"
        for n, label in _unsimulated(store, nets, store.equiv)]
    return _report("sp-asp-simulation", text, len(nets), failures, capped)


def check_well_formedness_preservation(program, sigma, depth,
                                       store=None) -> TheoremReport:
    store, text, configs, capped = _opening(Configuration(program, sigma),
                                            "async", depth, store)
    failures = [f"ill-formed reachable term: {cfg.key()[0]}"
                for cfg in configs if not store.well_formed(cfg.chor)[0]]
    return _report("well-formedness-preservation", text, len(configs),
                   failures, capped)


def check_abstract_asynchrony(corpus) -> TheoremReport:
    contexts, violations = check_abstract_async(corpus, default_state)
    failures = [f"{v.clause} clause fails for {v.process} in {v.context}"
                for v in violations]
    return _report("abstract-asynchrony", f"corpus of {len(corpus)}",
                   contexts, failures)


# ---------------------------------------------------------------------------
# Whole-corpus driver


# The check of each theorem on one program, in report order.  Each call
# looks its check up in this module, so a wrapper set here sees every call.
_CHECKS = {
    "t1": lambda p, s, d, st: check_deadlock_freedom(p, s, d, "sync", st),
    "t5": lambda p, s, d, st: check_deadlock_freedom(p, s, d, "async", st),
    "t2": lambda *args: check_epp_sync(*args),
    "t8": lambda *args: check_epp_async(*args),
    "t6": lambda *args: check_async_equivalence(*args),
    "diamond": lambda *args: check_diamond(*args),
    "t7": lambda p, s, d, st: check_sp_asp_simulation(epp_sync(p, s), d, st),
    "wf": lambda *args: check_well_formedness_preservation(*args),
}
THEOREMS = (*_CHECKS, "abstract-async")


def verify_corpus(theorems, spec: CorpusSpec, depth: int = 12):
    """Run the selected checks over the generated corpus; reports are
    ordered by program id, and ``t8`` also runs ``wf``.  The checks of one
    program share one :class:`SuccessorStore`, dropped before the next
    program, so each exploration runs once per program."""
    corpus = generate_corpus(spec)
    if "t8" in theorems:
        theorems = {*theorems, "wf"}
    checks = [check for name, check in _CHECKS.items() if name in theorems]
    reports = []
    for idx, program in enumerate(corpus):
        sigma = default_state(program)
        store = SuccessorStore()
        reports += [(f"prog{idx:03d}", check(program, sigma, depth, store))
                    for check in checks]
    if "abstract-async" in theorems:
        reports.append(("corpus", check_abstract_asynchrony(corpus)))
    return reports
