"""State keys and the per-program successor store of the checker.

Configurations and networks are keyed by the terms themselves, so
structural equality must coincide with equality of the rendered forms the
checker used to key by.  Normalization returns collected terms unchanged,
and a check run on its own agrees with the same check run inside
``verify_corpus`` with a shared store.  The network step relations touch
only the processes a step changes, and agree with rebuilding and
normalizing the whole network; the store's projections agree with
projecting and normalizing directly, and each of its tables computes each
key once.  Networks stepped through a shared step table, and
configurations projected through a shared memo, give what the direct
computations give.  Every term a store reaches is the one its intern
table keeps, so equal terms there are one object.
"""

import collections
import dataclasses
import functools
import hashlib

import pytest

from chorkit import (
    Configuration,
    IllFormed,
    Network,
    NotProjectable,
    check_async_equivalence,
    check_deadlock_freedom,
    check_diamond,
    check_epp_async,
    check_epp_sync,
    check_sp_asp_simulation,
    check_well_formedness_preservation,
    epp_async,
    epp_sync,
    gc,
    normalize_network,
    parse_choreography,
    parse_network,
    pn,
    render_choreography,
    render_network,
    render_value,
)
from chorkit import chor_async, congruence, network, sync, verify
from chorkit.network import gc_behaviour
from chorkit.terms import Queue, Term, interning, runtime_free
from chorkit.verify import (
    THEOREMS,
    CorpusSpec,
    SuccessorStore,
    default_state,
    explore_chor,
    explore_network,
    generate_corpus,
    verify_corpus,
)
from oracles import network_steps, project_queue

DEPTH = 4


@pytest.fixture(scope="module")
def explored():
    """Configurations and networks reachable in the seed-42 corpus, from
    several explorations with and without a shared store, so that equal
    terms occur as distinct objects."""
    configs, nets = [], []
    for program in generate_corpus(CorpusSpec()):
        sigma = default_state(program)
        start = Configuration(program, sigma)
        shared = SuccessorStore()
        for mode in ("sync", "async"):
            configs += explore_chor(start, mode, DEPTH)[0]
            configs += explore_chor(start, mode, DEPTH, store=shared)[0]
        net = epp_sync(program, sigma)
        nets += explore_network(net, "sync", DEPTH)[0]
        nets += explore_network(net, "async", DEPTH)[0]
        for cfg in explore_chor(start, "async", DEPTH, store=shared)[0]:
            nets.append(epp_async(cfg.chor, cfg.state))
    return configs, nets


def _agree(items, render):
    """Equal terms render equally, and equal renderings come from equal
    terms."""
    by_term, by_text = {}, {}
    for item in items:
        text = render(item)
        by_term.setdefault(item, set()).add(text)
        by_text.setdefault(text, set()).add(item)
    assert all(len(texts) == 1 for texts in by_term.values())
    assert all(len(terms) == 1 for terms in by_text.values())
    return len(by_term)


class TestStateKeys:
    def test_configurations(self, explored):
        configs, _ = explored
        distinct = _agree(configs, lambda c: c.key())
        assert 0 < distinct < len(configs)

    def test_networks(self, explored):
        _, nets = explored
        distinct = _agree(nets, render_network)
        assert 0 < distinct < len(nets)
        assert any(not p.queue.is_empty() for n in nets for _, p in n.procs)

    def test_hash_is_that_of_type_and_fields(self, explored):
        configs, nets = explored
        stack = list(configs) + list(nets)
        seen = set()
        while stack:
            t = stack.pop()
            if isinstance(t, tuple):
                stack.extend(t)
            elif isinstance(t, Term) and id(t) not in seen:
                seen.add(id(t))
                fields = tuple(getattr(t, f.name)
                               for f in dataclasses.fields(t))
                assert hash(t) == hash((type(t), *fields))
                stack.extend(fields)
        assert len(seen) > 1000

    def test_equal_terms_hash_equally(self, explored):
        configs, _ = explored
        text = "p.(@ + 1) -> q; if q.@ < 2 then { q.1 -> p; 0 } else { 0 }"
        a, b = parse_choreography(text), parse_choreography(text)
        assert a is not b and a == b and hash(a) == hash(b)
        for cfg in configs[:200]:
            twin = Configuration(cfg.chor, cfg.state)
            assert twin == cfg and hash(twin) == hash(cfg)


class TestIdentityPreservingNormalization:
    def test_gc_returns_collected_terms_unchanged(self, explored):
        configs, _ = explored
        for cfg in configs:
            assert gc(cfg.chor) is cfg.chor
        for program in generate_corpus(CorpusSpec()):
            once = gc(program)
            assert gc(once) is once

    def test_gc_collects_and_is_idempotent(self):
        c = parse_choreography("p.1 -> q; def X = { X } in X")
        once = gc(c)
        assert once is not c
        assert once == parse_choreography("p.1 -> q; 0")
        assert gc(once) is once

    def test_gc_behaviour(self, explored):
        _, nets = explored
        for n in nets:
            for _, p in n.procs:
                once = gc_behaviour(p.behaviour)
                assert gc_behaviour(once) is once
        n = parse_network("p[0]{ q!1; def X = { X } in X }"
                          " | q[0]{ p?; def Y = { Y } in Y }")
        for _, p in n.procs:
            once = gc_behaviour(p.behaviour)
            assert once is not p.behaviour
            assert gc_behaviour(once) is once

    def test_normalize_network(self, explored):
        _, nets = explored
        for n in nets:
            once = normalize_network(n)
            assert normalize_network(once) is once
        done = parse_network("p[0]{ 0 } | q[0]{ r!1; 0 } | r[0]{ q?; 0 }")
        once = normalize_network(done)
        assert once.names() == ["q", "r"]
        assert normalize_network(once) is once


@pytest.fixture(scope="module")
def reached():
    """One store that every check has run through, for each program of
    the seed-42 corpus."""
    store = SuccessorStore()
    for program in generate_corpus(CorpusSpec()):
        sigma = default_state(program)
        for mode in ("sync", "async"):
            check_deadlock_freedom(program, sigma, DEPTH, mode, store=store)
        check_epp_sync(program, sigma, DEPTH, store=store)
        check_epp_async(program, sigma, DEPTH, store=store)
        check_async_equivalence(program, sigma, DEPTH, store=store)
        check_diamond(program, sigma, DEPTH, store=store)
        check_sp_asp_simulation(epp_sync(program, sigma), DEPTH,
                                store=store)
        check_well_formedness_preservation(program, sigma, DEPTH,
                                           store=store)
    return store


def _fields(t):
    return tuple(getattr(t, f.name) for f in dataclasses.fields(t))


def _reached_networks(store):
    """Every network the store has stepped, reached or projected."""
    nets = [n for steps in store._steps.values() for state, found
            in steps.items() for n in (state, *(s for _, s in found))
            if type(n) is Network]
    return nets + [n for n in store._projections.values()
                   if type(n) is Network]


class TestSharing:
    def test_reached_terms_are_the_tables_own(self, reached):
        """Each configuration, network, label and subterm in the store's
        tables hashes as its type and fields do, and rebuilding it from
        its fields in the store's scope gives the very object."""
        stack = [reached._steps, reached._projections, reached._well_formed,
                 reached._moves]
        seen = set()
        with interning(reached._table):
            while stack:
                t = stack.pop()
                if isinstance(t, dict):
                    stack.extend(t.items())
                elif isinstance(t, tuple):
                    stack.extend(t)
                elif isinstance(t, Term) and id(t) not in seen:
                    seen.add(id(t))
                    fields = _fields(t)
                    assert hash(t) == hash((type(t), *fields))
                    assert type(t)(*fields) is t
                    stack.extend(fields)
        assert len(seen) > 5000

    def test_projection_memo_holds_the_reached_behaviours(self, reached):
        """No behaviour in the projection memo is equal to a behaviour of
        a reached network without being it."""
        behaviours = {}
        for net in _reached_networks(reached):
            for _, p in net.procs:
                behaviours.setdefault(p.behaviour, p.behaviour)
        memo = [b for seen in reached._projected.values()
                for b, _ in seen.values()]
        assert sum(b in behaviours for b in memo) > 1000
        assert all(behaviours.get(b, b) is b for b in memo)


def test_direct_checks_match_the_shared_store():
    spec = CorpusSpec(count=15)
    depth = 6
    theorems = set(THEOREMS) - {"abstract-async"}
    shared = verify_corpus(theorems, spec, depth=depth)
    direct = []
    for idx, program in enumerate(generate_corpus(spec)):
        sigma = default_state(program)
        pid = f"prog{idx:03d}"
        direct += [
            (pid, check_deadlock_freedom(program, sigma, depth, "sync")),
            (pid, check_deadlock_freedom(program, sigma, depth, "async")),
            (pid, check_epp_sync(program, sigma, depth)),
            (pid, check_epp_async(program, sigma, depth)),
            (pid, check_async_equivalence(program, sigma, depth)),
            (pid, check_diamond(program, sigma, depth)),
            (pid, check_sp_asp_simulation(epp_sync(program, sigma), depth)),
            (pid, check_well_formedness_preservation(program, sigma,
                                                     depth)),
        ]
    assert shared == direct


def test_network_steps_match_the_full_rebuild(explored):
    """Each network's steps, read from a table of moves and rebuilt where
    they changed, are those of the reference that finds every head afresh
    and rebuilds and normalizes the whole network."""
    _, nets = explored
    # Steps that leave a definition over 0 behind, or a done process that
    # no one names any more.
    nets = nets + [parse_network(text) for text in (
        "p[0]{ def X = { q!1; 0 } in X } | q[0]{ p?; 0 }",
        "p[0]{ if true then { 0 } else { q!1; 0 } } | q[0]{ 0 }",
        "p[0]{ q!1; r!2; 0 } | q[0]{ p?; 0 } | r[0]{ p?; 0 }")]
    normalized = list(dict.fromkeys(normalize_network(n) for n in nets))
    compared = 0
    for n in normalized:
        for mode, steps in (("async", network.enabled_asp),
                            ("sync", network.enabled_sp)):
            if mode == "sync" and any(p.queue.lanes for _, p in n.procs):
                continue
            got = [(label.rule, label.subjects, label.path, label.value,
                    label.expr, succ) for label, succ in steps(n)]
            want = [(*fields, normalize_network(succ))
                    for *fields, succ in network_steps(n, mode)]
            assert got == want
            compared += len(got)
    assert compared > len(normalized)


# SHA-256 over (rule, subjects, value, path, successor) of every step of
# every network explored from corpus seeds 42 and 7 at depth 4, in both
# modes.  Pinned while the engines still resumed a call's body where the
# call occurs, so the lexical head walk must give the very same steps.
NETWORK_STEPS_SHA256 = (
    "48e94e0f9947b60a38c7d7a373cdaa2adf4195d5ec9450583fac200e64a721c7")


def test_network_steps_are_pinned():
    digest = hashlib.sha256()
    for seed in (42, 7):
        for program in generate_corpus(CorpusSpec(seed=seed)):
            net = epp_sync(program, default_state(program))
            for mode, start, steps in (
                    ("sync", net, network.enabled_sp),
                    ("async", net, network.enabled_asp)):
                for n in explore_network(start, mode, DEPTH)[0]:
                    for label, succ in steps(n):
                        value = (None if label.value is None
                                 else render_value(label.value))
                        digest.update(repr((
                            label.rule, label.subjects, value, label.path,
                            render_network(succ))).encode())
    assert digest.hexdigest() == NETWORK_STEPS_SHA256


# SHA-256 over (rule, subjects, value, tag, path, successor, state) of
# every step of every configuration explored from corpus seeds 42 and 7 at
# depth 4, in both modes.  Pinned while the choreography walk still kept a
# dict of definitions and resumed a call's body where the call occurs.
CONFIG_STEPS_SHA256 = (
    "f61532fbcc21cec046f8fa34d908ef14d728a8908aec2bbd9cd1a8180c1adc62")
CONFIG_STEPS = 2568


def test_configuration_steps_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for seed in (42, 7):
        for program in generate_corpus(CorpusSpec(seed=seed)):
            start = Configuration(program, default_state(program))
            for mode in ("sync", "async"):
                for cfg in explore_chor(start, mode, DEPTH)[0]:
                    for label, succ in sync.enabled(cfg, mode):
                        value = (None if label.value is None
                                 else render_value(label.value))
                        digest.update(repr((
                            label.rule, label.subjects, value, label.tag_id,
                            label.path, render_choreography(succ.chor),
                            succ.state.cells)).encode())
                        count += 1
    assert count == CONFIG_STEPS
    assert digest.hexdigest() == CONFIG_STEPS_SHA256


def test_network_steps_through_one_table_are_pinned(monkeypatch):
    """The pinned steps again, each network's steps now read from one step
    table shared by all of them."""
    table = SuccessorStore()._moves
    for name in ("enabled_sp", "enabled_asp"):
        monkeypatch.setattr(network, name,
                            functools.partial(getattr(network, name),
                                              table=table))
    test_network_steps_are_pinned()
    assert len(table) > 100


def test_configuration_steps_through_one_table_are_pinned(monkeypatch):
    """The pinned steps again, each configuration's steps now read from
    one table of moves shared by all of them, with one entry per
    choreography and mode."""
    table = sync.MoveTable()
    enabled = sync.enabled
    for module in (sync, chor_async):
        monkeypatch.setattr(module, "enabled",
                            lambda cfg, mode, _=None:
                            enabled(cfg, mode, table))
    test_configuration_steps_are_pinned()
    modes = collections.Counter(mode for _, mode in table)
    assert modes["sync"] > 100 and modes["async"] > 100


def test_successor_behaviours_are_the_tables_own():
    store = SuccessorStore()
    table = store._moves.heads
    for program in generate_corpus(CorpusSpec()):
        net = epp_sync(program, default_state(program))
        explore_network(net, "sync", DEPTH, store=store)
        explore_network(net, "async", DEPTH, store=store)
    keys = {id(b) for b in table}
    successors = [s for _, succs in table.values() for s in succs]
    assert all(id(s) in keys for s in successors if s in table)
    assert sum(s in table for s in successors) > len(table) // 2
    network_steps = [found for steps in store._steps.values()
                     for state, found in steps.items()
                     if type(state) is Network]
    assert network_steps
    for found in network_steps:
        for _, succ in found:
            assert all(id(p.behaviour) in keys or p.behaviour
                       not in table for _, p in succ.procs)


def _direct_projection(cfg, mode):
    project = epp_sync if mode == "sync" else epp_async
    try:
        return normalize_network(project(cfg.chor, cfg.state))
    except (NotProjectable, IllFormed) as exc:
        return str(exc)


def _check_projection(store, cfg):
    """The store's projection of ``cfg`` is the direct asynchronous one,
    and for a runtime-free choreography also the synchronous one."""
    got = store.projection(cfg)
    assert got == _direct_projection(cfg, "async")
    if runtime_free(cfg.chor):
        assert got == _direct_projection(cfg, "sync")
    return got


def test_store_projections_match_direct_projection(explored):
    configs, _ = explored
    sigma = default_state(parse_choreography("p.1 -> q; r.1 -> q; 0"))
    configs = list(dict.fromkeys(configs)) + [
        Configuration(parse_choreography(text), sigma) for text in (
            "p.1 -> q; q <~ (p, 2); 0",
            "if p.true then { q.1 -> r; 0 } else { 0 }",
            "if p.true then { q <~ (r, 1); 0 } else { q <~ (r, 2); 0 }",
            "p.1 ~> [#0]; 0")]
    store = SuccessorStore()
    errors = set()
    for cfg in configs:
        got = _check_projection(store, cfg)
        if isinstance(got, str):
            errors.add(got)
        else:
            assert normalize_network(got) is got
    assert len(errors) >= 3


@pytest.mark.parametrize("seed", [42, 7])
def test_projections_through_a_shared_memo(seed):
    """One store, so one projection memo, for every program of a corpus:
    its projection of each explored configuration is the direct one."""
    store = SuccessorStore()
    checked = 0
    for program in generate_corpus(CorpusSpec(seed=seed)):
        start = Configuration(program, default_state(program))
        for mode in ("sync", "async"):
            for cfg in explore_chor(start, mode, DEPTH, store=store)[0]:
                _check_projection(store, cfg)
                checked += 1
    assert checked > 500 and store._projected


def test_store_queues_match_the_oracle():
    """Through one store, each process of the projection of every
    configuration explored asynchronously from two corpora holds the
    messages in transit to it that the reference walk lists."""
    store = SuccessorStore()
    seeded = 0
    for seed in (42, 7):
        for program in generate_corpus(CorpusSpec(seed=seed)):
            start = Configuration(program, default_state(program))
            for cfg in explore_chor(start, "async", DEPTH, store=store)[0]:
                net = store.projection(cfg)
                canon = store.well_formed(cfg.chor)[1]
                procs = net.as_dict()
                for name in pn(canon):
                    want = Queue.of(project_queue(canon, name))
                    if name in procs:
                        assert procs[name].queue == want
                    else:  # done, so dropped by normalization
                        assert want.is_empty()
                    seeded += not want.is_empty()
    assert seeded > 500


def _entries(steps, kind):
    """The entries of a step table whose state is of ``kind``."""
    return [state for state in steps if type(state) is kind]


def test_each_exploration_runs_once_per_store(monkeypatch):
    """Over every check of one program, each (interned start, mode,
    depth) reaches the search once: t5, t8, t6, diamond and wf share one
    asynchronous search, t1 and t2 one synchronous search, and t1 and t7
    one synchronous search of the projection."""
    searches = collections.Counter()
    search = verify._search

    def counted(store, start, mode, depth, *rest):
        searches[store, start, mode, depth] += 1
        return search(store, start, mode, depth, *rest)

    monkeypatch.setattr(verify, "_search", counted)
    theorems = set(THEOREMS) - {"abstract-async"}
    spec = CorpusSpec(count=20)
    verify_corpus(theorems, spec, depth=DEPTH)
    assert set(searches.values()) == {1}
    explorations = collections.Counter(
        (type(start), mode) for _, start, mode, depth in searches
        if depth == DEPTH)
    assert explorations == {
        (kind, mode): len(generate_corpus(spec))
        for kind in (Configuration, Network) for mode in ("sync", "async")}


def test_each_store_table_computes_each_key_once(monkeypatch):
    calls = collections.Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("enabled", "enabled_sp", "enabled_asp", "well_formed",
                 "project_network", "network_equiv"):
        counted(verify, name)
    counted(congruence, "behaviour_equiv")
    for program in generate_corpus(CorpusSpec(count=20)):
        sigma = default_state(program)
        net = epp_sync(program, sigma)
        store = SuccessorStore()
        calls.clear()
        for mode in ("sync", "async"):
            check_deadlock_freedom(program, sigma, DEPTH, mode, store=store)
        check_epp_sync(program, sigma, DEPTH, store=store)
        check_epp_async(program, sigma, DEPTH, store=store)
        check_async_equivalence(program, sigma, DEPTH, store=store)
        check_diamond(program, sigma, DEPTH, store=store)
        check_sp_asp_simulation(net, DEPTH, store=store)
        check_well_formedness_preservation(program, sigma, DEPTH,
                                           store=store)
        computed = {
            "enabled": [*_entries(store._steps["sync"], Configuration),
                        *_entries(store._steps["async"], Configuration)],
            "enabled_sp": _entries(store._steps["sync"], Network),
            "enabled_asp": _entries(store._steps["async"], Network),
            "well_formed": store._well_formed,
            "project_network": store._projections,
            "network_equiv": store._equiv,
            "behaviour_equiv": store._behaviour_equiv,
        }
        for name, table in computed.items():
            assert calls[name] == len(table), name
        assert all(calls[name] for name in computed
                   if name not in ("network_equiv", "behaviour_equiv"))


def test_fills_ask_each_behaviour_for_its_partners_once(monkeypatch):
    # A fill that may drop a process reads each behaviour's partners from
    # its table, so over one program's checks the network module runs pn
    # at most once per behaviour that the fills met: those of the steps
    # table, and the behaviours they continue as.  Recomputed per fill,
    # pn ran 5,031 times at depth 12.
    calls = [0]
    pn = network.pn

    def counted(b):
        calls[0] += 1
        return pn(b)

    monkeypatch.setattr(network, "pn", counted)
    total = 0
    for program in generate_corpus(CorpusSpec()):
        sigma, store = default_state(program), SuccessorStore()
        calls[0] = 0
        for check in verify._CHECKS.values():
            check(program, sigma, 12, store)
        heads = store._moves.heads
        behaviours = set(heads).union(*[after for _, after
                                        in heads.values()])
        assert calls[0] <= len(behaviours)
        total += calls[0]
    assert 0 < total < 1000
