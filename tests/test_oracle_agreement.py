"""Engine-vs-oracle agreement.

The step engines decide enabledness by interference analysis; the oracle in
``oracles.py`` instead enumerates the literal rewrite closure and fires only
at the top of a term.  Both must produce identical step sets — signatures
and successors up to swap equivalence — on every recursion-free input.

Exhaustive families (value alphabet fixed to distinct integer literals so
messages are traceable; the rewrite rules never inspect values, so a richer
expression alphabet adds no coverage):

* every communication chain of length <= 6 over two processes,
* every communication chain of length <= 5 over three processes,
* every conditional over three processes with one action before the
  conditional and at most one in each branch,
* every configuration the asynchronous engine reaches within two steps of
  a sample of the above (these contain in-transit messages),
* hand-written programs with explicit detached sends and receives.

The queue-lane representation is checked against a swap-closure oracle on
every message sequence of length <= 5 over three senders.
"""

import itertools
import random

import pytest

from oracles import (
    engine_enabled_keys,
    oracle_dequeue,
    oracle_enabled,
    oracle_well_formed,
    sequence_closure,
)

from chorkit import (
    BoolV,
    Com,
    Cond,
    Configuration,
    GlobalState,
    IntV,
    Lit,
    Message,
    NIL,
    Queue,
    RtRecv,
    RtSend,
    TagSupply,
    enabled,
    parse_choreography,
    pn,
    render_choreography,
    unfold_com,
    well_formed,
)
from chorkit.terms import replace_cont
from chorkit.verify import (
    CorpusSpec,
    SuccessorStore,
    default_state,
    explore_chor,
    generate_corpus,
)


def chains(names, n):
    pairs = [(a, b) for a in names for b in names if a != b]
    for combo in itertools.product(pairs, repeat=n):
        c = NIL
        for i, (a, b) in enumerate(reversed(combo)):
            c = Com(a, Lit(IntV(n - i)), b, c)
        yield c


def conditionals():
    names = "pqr"
    pairs = [(a, b) for a in names for b in names if a != b]
    stubs = [NIL] + [Com(a, Lit(IntV(9)), b, NIL) for a, b in pairs]
    for decider in names:
        for then in stubs:
            for orelse in stubs:
                cond = Cond(decider, Lit(BoolV(True)), then, orelse)
                yield cond
                for a, b in pairs:
                    yield Com(a, Lit(IntV(8)), b, cond)


def assert_agreement(program, modes=("sync", "async")):
    sigma = GlobalState.uniform(sorted(pn(program)) or ["p"])
    cfg = Configuration(program, sigma)
    for mode in modes:
        oracle = oracle_enabled(program, sigma, mode)
        engine = engine_enabled_keys(cfg, mode)
        assert oracle == engine, (
            f"{mode} disagreement on {render_choreography(program)}\n"
            f"oracle-only: {sorted(oracle - engine)}\n"
            f"engine-only: {sorted(engine - oracle)}")


@pytest.mark.parametrize("length", range(1, 7))
def test_two_process_chains(length):
    for c in chains("pq", length):
        assert_agreement(c)


@pytest.mark.parametrize("length", range(1, 6))
def test_three_process_chains(length):
    for c in chains("pqr", length):
        assert_agreement(c)


def test_conditional_family():
    for c in conditionals():
        assert_agreement(c)


def test_async_reachable_runtime_configurations():
    # Terms with messages in transit: take every 29th three-process chain
    # of length 4 and oracle-check everything the engine reaches in two
    # asynchronous steps.
    sample = list(chains("pqr", 4))[::29]
    for base in sample:
        sigma = GlobalState.uniform(sorted(pn(base)))
        seen = {Configuration(base, sigma).key()}
        frontier = [Configuration(base, sigma)]
        for _ in range(2):
            nxt = []
            for cfg in frontier:
                for _, succ in enabled(cfg, "async"):
                    if succ.key() not in seen:
                        seen.add(succ.key())
                        nxt.append(succ)
            frontier = nxt
            for cfg in frontier:
                oracle = oracle_enabled(cfg.chor, cfg.state, "async")
                engine = engine_enabled_keys(cfg, "async")
                assert oracle == engine, render_choreography(cfg.chor)


HAND_WRITTEN_RUNTIME_TERMS = [
    "p.1 ~> [#0]; q <~ (p, #0); 0",
    "q <~ (p, #0); p.1 ~> [#0]; 0",
    "p.1 ~> [#0]; q <~ (p, #0); r.5 -> s; 0",
    "q <~ (p, 7); p.1 -> r; 0",
    "q <~ (p, 7); q <~ (p, 8); 0",
    "s <~ (r, 3); p.1 ~> [#2]; q <~ (p, #2); 0",
]


@pytest.mark.parametrize("text", HAND_WRITTEN_RUNTIME_TERMS)
def test_explicit_runtime_terms(text):
    assert_agreement(parse_choreography(text), modes=("async",))


# ---------------------------------------------------------------------------
# Queue congruence


def all_sequences(senders, max_len):
    for n in range(max_len + 1):
        for combo in itertools.product(senders, repeat=n):
            yield tuple(Message(s, IntV(i)) for i, s in enumerate(combo))


def test_lane_form_is_exactly_the_swap_congruence():
    seqs = list(all_sequences("abc", 5))
    closures = {s: sequence_closure(s) for s in seqs}
    by_queue = {}
    for s in seqs:
        by_queue.setdefault(Queue.of(s), []).append(s)
    # Same lane form => swap-reachable from one another.
    for group in by_queue.values():
        rep = group[0]
        for other in group[1:]:
            assert other in closures[rep]
    # Swap-reachable => same lane form (and closures never leak across
    # queue classes).
    for s in seqs:
        q = Queue.of(s)
        for other in closures[s]:
            assert Queue.of(other) == q


def test_dequeue_matches_the_sequence_oracle():
    for s in all_sequences("abc", 5):
        q = Queue.of(s)
        for sender in "abc":
            got = q.dequeue_from(sender)
            want = oracle_dequeue(s, sender)
            if want is None:
                assert got is None
            else:
                payload, rest_seq = want
                assert got is not None
                assert got[0] == payload
                assert got[1] == Queue.of(rest_seq)


# ---------------------------------------------------------------------------
# Well-formedness against the rewrite loop


def top_chain(c) -> list:
    """The prefixes from the top of ``c`` down."""
    run = []
    while type(c) in (Com, RtSend, RtRecv):
        run.append(c)
        c = c.cont
    return run


def unfolded(program, rng):
    """``program`` with one to four communications of its top chain
    unfolded into detached pairs, which may then have to hop."""
    coms = len(top_chain(program))
    c = program
    supply = TagSupply.above(c)
    # From the bottom up, so the paths above stay where they were.
    for k in sorted(rng.sample(range(coms), min(coms, rng.randint(1, 4))),
                    reverse=True):
        c = unfold_com(c, ("cont",) * k, supply)
    return c


def swapped(c, rng):
    """``c`` with up to three pairs of adjacent nodes of its top chain
    swapped, so that ill-formed terms occur: a pending half past its
    partner's process, or a message in transit behind a communication on
    its lane."""
    for _ in range(rng.randint(0, 3)):
        run = top_chain(c)
        if len(run) < 2:
            break
        j = rng.randrange(len(run) - 1)
        below = replace_cont(run[j], run[j + 1].cont)
        c = replace_cont(run[j + 1], below)
        for node in reversed(run[:j]):
            c = replace_cont(node, c)
    return c


def test_well_formed_agrees_with_the_rewrite_loop():
    checked = ill_formed = 0
    for seed in (42, 7):
        corpus = generate_corpus(CorpusSpec(seed=seed))
        store = SuccessorStore()
        rng = random.Random(seed)
        for i, program in enumerate(corpus):
            configs, _ = explore_chor(
                Configuration(program, default_state(program)), "async",
                4 + i % 3, store)
            terms = [cfg.chor for cfg in configs]
            terms += [swapped(c, rng) for c in terms[::4]]
            terms += [swapped(unfolded(program, rng), rng) for _ in range(16)]
            for c in terms:
                found = well_formed(c)
                assert found == oracle_well_formed(c), render_choreography(c)
                checked += 1
                ill_formed += not found[0]
    assert checked > 3000 and ill_formed > 100
