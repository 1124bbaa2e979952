"""Acceptance suite: one test (one pass/fail line under ``pytest -v``) per
acceptance criterion.

All corpus-wide criteria share a single bounded-exhaustive verification run
over the default seed-42 corpus (60 projectable programs, <= 4 processes,
<= 8 communications, <= 1 recursion) explored to depth 12.
"""

import hashlib
import itertools
import time

import pytest

from oracles import (
    engine_enabled_keys,
    oracle_dequeue,
    oracle_enabled,
    sequence_closure,
)

from chorkit import (
    Com,
    Cond,
    Configuration,
    GlobalState,
    IllFormed,
    IntV,
    Lit,
    Message,
    NIL,
    Queue,
    BoolV,
    classify,
    enabled,
    enabled_asp,
    epp_async,
    generate_corpus,
    parse_choreography,
    parse_network,
    pn,
    well_formed,
)
from chorkit.cli import EXIT_ILL_FORMED, main as cli_main
from chorkit.verify import THEOREMS, CorpusSpec, verify_corpus


@pytest.fixture(scope="module")
def corpus_run():
    spec = CorpusSpec()
    t0 = time.time()
    reports = verify_corpus(set(THEOREMS), spec, depth=12)
    elapsed = time.time() - t0
    return reports, elapsed


def _select(reports, theorem):
    picked = [r for _, r in reports if r.theorem == theorem]
    assert picked, f"no reports for {theorem}"
    return picked


def _all_pass(reports, theorem):
    bad = [r for r in _select(reports, theorem) if r.verdict != "pass"]
    assert not bad, "\n".join(
        f"{r.theorem}: {r.verdict} on {r.program} {r.counterexample[:1]}"
        for r in bad)


def test_criterion_01_deadlock_freedom_sync_and_async(corpus_run):
    reports, elapsed = corpus_run
    corpus = generate_corpus(CorpusSpec())
    assert len(corpus) >= 50
    _all_pass(reports, "deadlock-freedom[sync]")
    _all_pass(reports, "deadlock-freedom[async]")
    assert elapsed < 60, f"whole verification took {elapsed:.1f}s"
    print(f"criterion 1: PASS (deadlock-freedom, {len(corpus)} programs, "
          f"all theorems in {elapsed:.1f}s)")


def test_criterion_02_sync_projection_lockstep(corpus_run):
    reports, _ = corpus_run
    _all_pass(reports, "epp-sync-lockstep")
    print("criterion 2: PASS (synchronous projection lockstep)")


def test_criterion_03_async_projection_lockstep(corpus_run):
    reports, _ = corpus_run
    _all_pass(reports, "epp-async-lockstep")
    print("criterion 3: PASS (asynchronous projection lockstep)")


def test_criterion_04_async_equivalence(corpus_run):
    reports, _ = corpus_run
    picked = _select(reports, "async-equivalence")
    assert all(r.verdict == "pass" for r in picked), \
        [(r.verdict, r.program) for r in picked if r.verdict != "pass"]
    print("criterion 4: PASS (async equivalence, zero budget-exceeded)")


def test_criterion_05_diamond_property(corpus_run):
    reports, _ = corpus_run
    _all_pass(reports, "diamond")
    print("criterion 5: PASS (diamond property)")


def test_criterion_06_network_simulation(corpus_run):
    reports, _ = corpus_run
    _all_pass(reports, "sp-asp-simulation")
    print("criterion 6: PASS (two-step simulation of rendezvous steps)")


def test_criterion_07_abstract_asynchrony(corpus_run):
    reports, _ = corpus_run
    _all_pass(reports, "abstract-asynchrony")
    print("criterion 7: PASS (abstract asynchrony clauses)")


def test_criterion_08_reference_fixtures(tmp_path):
    # (a) Expanding then criss-crossing: from "p.e -> q; p.e' -> r" the
    # expanded runtime form folds back to the program, and a schedule
    # exists where r's state is updated before q's.
    program = parse_choreography("p.1 -> q; p.2 -> r; 0")
    expanded = parse_choreography(
        "p.1 ~> [#0]; q <~ (p, #0); p.2 ~> [#1]; r <~ (p, #1); 0")
    ok, canonical_form = well_formed(expanded)
    assert ok and canonical_form == program
    sigma = GlobalState.uniform(["p", "q", "r"])
    cfg = Configuration(program, sigma)
    cfg = [s for l, s in enabled(cfg, "async") if l.subjects == ("p", "q")][0]
    cfg = [s for l, s in enabled(cfg, "async")
           if l.rule == "ComS" and l.subjects == ("p", "r")][0]
    cfg = [s for l, s in enabled(cfg, "async")
           if l.rule == "ComR" and l.subjects == ("p", "r")][0]
    assert cfg.state.get("r") == IntV(2) and cfg.state.get("q") == IntV(0)

    # (b) In contrast with a legacy one-step rule that consumed the whole
    # second communication immediately, here r's cell can only change
    # after p's first send has detached: no single step from the start
    # updates r, and every configuration with r updated has the first
    # communication already split.
    for label, succ in enabled(Configuration(program, sigma), "async"):
        assert succ.state.get("r") == IntV(0)
    frontier = [Configuration(program, sigma)]
    for _ in range(4):
        nxt = [s for c in frontier for _, s in enabled(c, "async")]
        for s in nxt:
            if s.state.get("r") == IntV(2):
                assert not _contains_com(s.chor, "p", "q"), \
                    "r updated while p's first send is still pending"
        frontier = nxt

    # (c) A message that would overtake the same lane is rejected, with
    # CLI exit code 3; the hand-built naive projection delivers 2 before 1.
    bad = parse_choreography("p.1 -> q; q <~ (p, 2); 0")
    assert well_formed(bad) == (False, None)
    with pytest.raises(IllFormed):
        epp_async(bad, GlobalState.uniform(["p", "q"]))
    path = tmp_path / "ill.mc"
    path.write_text("p.1 -> q; q <~ (p, 2); 0")
    assert cli_main(["check", str(path)]) == EXIT_ILL_FORMED
    naive = parse_network("p[0]{ q!1; 0 } | q[0]<(p, 2)>{ p?; p?; 0 }")
    first_receive = [s for l, s in enabled_asp(naive) if l.rule == "ComR"]
    assert first_receive, "naive projection should be able to receive"
    assert first_receive[0].as_dict()["q"].state == IntV(2)  # wrong order

    # (d) The circular-wait network: stuck under rendezvous, terminates
    # with empty queues under asynchrony.
    ring = parse_network("p[0]{ q!1; r?; 0 } | q[0]{ r!2; p?; 0 }"
                         " | r[0]{ p!3; q?; 0 }")
    assert classify(ring, "sync") == "deadlocked"
    frontier = [ring]
    terminated = False
    for _ in range(8):
        frontier = [s for n in frontier for _, s in enabled_asp(n)]
        terminated = terminated or any(
            classify(n, "async") == "terminated" for n in frontier)
    assert terminated
    print("criterion 8: PASS (reference fixtures a-d)")


def _contains_com(c, src, dst):
    from chorkit import Def
    if isinstance(c, Com):
        return (c.src == src and c.dst == dst) \
            or _contains_com(c.cont, src, dst)
    if isinstance(c, Cond):
        return _contains_com(c.then, src, dst) \
            or _contains_com(c.orelse, src, dst)
    if isinstance(c, Def):
        return _contains_com(c.body, src, dst) \
            or _contains_com(c.cont, src, dst)
    if hasattr(c, "cont"):
        return _contains_com(c.cont, src, dst)
    return False


def test_criterion_09_engine_vs_oracle():
    # Condensed slice of the exhaustive families in
    # test_oracle_agreement.py (which also covers three-process chains of
    # length 5 and async-reachable runtime configurations).
    def chains(names, n):
        pairs = [(a, b) for a in names for b in names if a != b]
        for combo in itertools.product(pairs, repeat=n):
            c = NIL
            for i, (a, b) in enumerate(reversed(combo)):
                c = Com(a, Lit(IntV(n - i)), b, c)
            yield c

    programs = []
    for n in range(1, 7):
        programs.extend(chains("pq", n))
    for n in range(1, 5):
        programs.extend(chains("pqr", n))
    pairs = [(a, b) for a in "pqr" for b in "pqr" if a != b]
    stubs = [NIL] + [Com(a, Lit(IntV(9)), b, NIL) for a, b in pairs]
    for d in "pqr":
        for t in stubs:
            for o in stubs:
                programs.append(Cond(d, Lit(BoolV(True)), t, o))
    for program in programs:
        sigma = GlobalState.uniform(sorted(pn(program)) or ["p"])
        cfg = Configuration(program, sigma)
        for mode in ("sync", "async"):
            assert oracle_enabled(program, sigma, mode) == \
                engine_enabled_keys(cfg, mode)

    # Queue lanes against the sequence-swap oracle, length <= 5.
    seqs = []
    for n in range(6):
        for combo in itertools.product("abc", repeat=n):
            seqs.append(tuple(Message(s, IntV(i))
                              for i, s in enumerate(combo)))
    closures = {s: sequence_closure(s) for s in seqs}
    for s in seqs:
        q = Queue.of(s)
        for other in closures[s]:
            assert Queue.of(other) == q
        for sender in "abc":
            want = oracle_dequeue(s, sender)
            got = q.dequeue_from(sender)
            if want is None:
                assert got is None
            else:
                assert got[0] == want[0]
                assert got[1] == Queue.of(want[1])
    by_queue = {}
    for s in seqs:
        by_queue.setdefault(Queue.of(s), []).append(s)
    for group in by_queue.values():
        for other in group[1:]:
            assert other in closures[group[0]]
    print(f"criterion 9: PASS (engine vs rewrite oracle on "
          f"{len(programs)} programs; queue lanes vs swap oracle on "
          f"{len(seqs)} sequences)")


def test_criterion_10_well_formedness_preservation(corpus_run):
    reports, _ = corpus_run
    _all_pass(reports, "well-formedness-preservation")
    print("criterion 10: PASS (well-formedness preserved at every "
          "reachable configuration)")


def test_criterion_11_explored_state_count(corpus_run):
    # The checks share one state store per program; sharing must not change
    # what each check explores.
    reports, _ = corpus_run
    assert len(reports) == 481
    assert sum(r.states for _, r in reports) == 15_883


def test_criterion_12_report_digest(corpus_run):
    # Every report's program id, theorem, state count, verdict and
    # counterexample, pinned as one SHA-256 so that any change in what the
    # checks explore or conclude shows.
    reports, _ = corpus_run
    digest = hashlib.sha256()
    for pid, r in reports:
        digest.update(repr((pid, r.theorem, r.states, r.verdict,
                            r.counterexample)).encode())
    assert digest.hexdigest() == (
        "d8d33e1893f4a13ca6b53816c1b56be002c7c93a4a3d71203c01ffb2d30b8f95")
