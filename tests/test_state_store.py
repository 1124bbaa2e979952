"""State keys and the per-program successor store of the checker.

Configurations and networks are keyed by the terms themselves, so
structural equality must coincide with equality of the rendered forms the
checker used to key by.  Normalization returns collected terms unchanged,
and a check run on its own agrees with the same check run inside
``verify_corpus`` with a shared store.
"""

import pytest

from chorkit import (
    Configuration,
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
    lift_to_async,
    normalize_network,
    parse_choreography,
    parse_network,
    render_network,
)
from chorkit.network import gc_behaviour
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
        nets += explore_network(lift_to_async(net), "async", DEPTH)[0]
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
