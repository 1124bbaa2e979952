"""Asynchronous choreography semantics: two-phase communication,
well-formedness, and the abstract-asynchrony conformance check."""

import pytest

from chorkit import (
    Com,
    Configuration,
    GlobalState,
    Hole,
    IntV,
    Lit,
    NIL,
    NextVerdict,
    NotACom,
    RtRecv,
    TagSupply,
    check_abstract_async,
    enabled,
    harvest_contexts,
    next_action,
    parse_choreography,
    plug,
    pn,
    render_choreography,
    terminated,
    unfold_com,
    well_formed,
)
from chorkit import chor_async, terms
from chorkit.terms import Call, Def, subterms, transform
from chorkit.verify import CorpusSpec, generate_corpus
from helpers import shallow


def cfg_of(text, **cells):
    c = parse_choreography(text)
    sigma = GlobalState.uniform(sorted(pn(c)))
    for name, v in cells.items():
        sigma = sigma.update(name, IntV(v))
    return Configuration(c, sigma)


def sigs(cfg):
    return sorted((l.rule, l.subjects) for l, _ in enabled(cfg, "async"))


class TestTwoPhaseCommunication:
    def test_send_then_receive(self):
        cfg = cfg_of("p.1 -> q; 0")
        [(label, mid)] = enabled(cfg, "async")
        assert (label.rule, label.subjects) == ("ComS", ("p", "q"))
        assert render_choreography(mid.chor) == "q <~ (p, 1); 0"
        assert mid.state.get("q") == IntV(0)  # not yet delivered
        [(label2, end)] = enabled(mid, "async")
        assert (label2.rule, label2.subjects) == ("ComR", ("p", "q"))
        assert end.state.get("q") == IntV(1)
        assert terminated(end.chor)

    def test_value_captured_at_send_time(self):
        # p's cell changes after the send; the in-transit value must not.
        cfg = cfg_of("p.@ -> q; r.5 -> p; 0", p=7)
        mid = [s for l, s in enabled(cfg, "async")
               if l.rule == "ComS" and l.subjects == ("p", "q")][0]
        mid = [s for l, s in enabled(mid, "async")
               if l.rule == "ComS" and l.subjects == ("r", "p")][0]
        mid = [s for l, s in enabled(mid, "async")
               if l.rule == "ComR" and l.subjects == ("r", "p")][0]
        assert mid.state.get("p") == IntV(5)  # p overwritten...
        final = [s for l, s in enabled(mid, "async") if l.rule == "ComR"][0]
        assert final.state.get("q") == IntV(7)  # ...but q gets the old 7

    def test_sender_freed_receiver_still_blocked(self):
        # After p's first send detaches, p may send to r, but q's second
        # action stays behind the pending receive.
        cfg = cfg_of("p.1 -> q; p.2 -> r; q.3 -> s; 0")
        mid = [s for l, s in enabled(cfg, "async")
               if l.subjects == ("p", "q")][0]
        assert ("ComS", ("p", "r")) in sigs(mid)
        assert ("ComS", ("q", "s")) not in sigs(mid)

    def test_explicit_runtime_pair_execution(self):
        cfg = cfg_of("p.1 ~> [#0]; q <~ (p, #0); 0")
        [(label, mid)] = enabled(cfg, "async")
        assert label.rule == "ComS"
        assert label.tag_id == 0
        assert render_choreography(mid.chor) == "q <~ (p, 1); 0"

    def test_tagged_send_fills_a_receive_far_down_the_chain(self):
        # The receive that takes the value is 6,000 actions below the
        # send; filling it in must not recurse along the chain.
        cfg = cfg_of("p.1 ~> [#0]; " + "s.2 -> q; " * 5_998
                     + "s <~ (p, #0); 0")
        steps = shallow(enabled, cfg, "async")
        assert sorted((l.subjects, l.tag_id) for l, _ in steps) == [
            (("p",), 0), (("s", "q"), None)]
        [end] = [s.chor for l, s in steps if l.tag_id == 0]
        assert [t for t in subterms(end) if type(t) is RtRecv] == [
            RtRecv("p", IntV(1), "s", NIL)]


class TestOutOfOrderDelivery:
    def test_second_message_receivable_first(self):
        # Both sends fire; r may consume its message before q does.
        cfg = cfg_of("p.1 -> q; p.2 -> r; 0")
        mid = [s for l, s in enabled(cfg, "async")
               if l.subjects == ("p", "q")][0]
        mid = [s for l, s in enabled(mid, "async")
               if l.rule == "ComS" and l.subjects == ("p", "r")][0]
        receives = [(l.subjects, s) for l, s in enabled(mid, "async")
                    if l.rule == "ComR"]
        assert sorted(x for x, _ in receives) == [("p", "q"), ("p", "r")]
        r_first = dict(receives)[("p", "r")]
        assert r_first.state.get("r") == IntV(2)
        assert r_first.state.get("q") == IntV(0)

    def test_sends_stay_ordered_at_one_sender(self):
        # p's second send must not detach before the first one has.
        cfg = cfg_of("p.1 -> q; p.2 -> r; 0")
        assert sigs(cfg) == [("ComS", ("p", "q"))]

    def test_fifo_per_lane(self):
        # Two messages on the same lane are received in send order.
        cfg = cfg_of("p.1 -> q; p.2 -> q; 0")
        mid = enabled(cfg, "async")[0][1]
        # second send is enabled only as ComS; the only ComR takes value 1
        receives = [l for l, _ in enabled(mid, "async") if l.rule == "ComR"]
        assert [l.value for l in receives] == [IntV(1)]


class TestUnfoldCom:
    def test_unfold_at_the_top(self):
        c = parse_choreography("p.1 -> q; 0")
        u = unfold_com(c, (), TagSupply())
        assert render_choreography(u) == "p.1 ~> [#0]; q <~ (p, #0); 0"

    def test_unfold_along_a_path(self):
        c = parse_choreography("p.1 -> q; r.2 -> s; 0")
        u = unfold_com(c, ("cont",), TagSupply(5))
        assert render_choreography(u) == \
            "p.1 -> q; r.2 ~> [#5]; s <~ (r, #5); 0"

    def test_unfold_along_a_long_path(self):
        # The walk loops down the path: 1,200 steps need no recursion.
        c = parse_choreography("p.1 -> q; " * 1500 + "0")
        u = shallow(unfold_com, c, ("cont",) * 1200, TagSupply(7))
        assert render_choreography(u) == ("p.1 -> q; " * 1200 +
                                          "p.1 ~> [#7]; q <~ (p, #7); " +
                                          "p.1 -> q; " * 299 + "0")

    def test_unfold_rejects_non_communications(self):
        c = parse_choreography("if p.true then { 0 } else { 0 }")
        with pytest.raises(NotACom):
            unfold_com(c, (), TagSupply())


class TestWellFormedness:
    def test_programs_are_well_formed(self):
        ok, canon = well_formed(parse_choreography("p.1 -> q; q.2 -> r; 0"))
        assert ok
        assert render_choreography(canon) == "p.1 -> q; q.2 -> r; 0"

    def test_matched_pair_folds_back(self):
        ok, canon = well_formed(
            parse_choreography("p.1 ~> [#0]; q <~ (p, #0); 0"))
        assert ok
        assert render_choreography(canon) == "p.1 -> q; 0"

    def test_swapped_pair_folds_back(self):
        # The receive drifted ahead of its own send: still the same program.
        ok, canon = well_formed(
            parse_choreography("q <~ (p, #0); p.1 ~> [#0]; 0"))
        assert ok
        assert render_choreography(canon) == "p.1 -> q; 0"

    def test_crossed_pairs_fold_back(self):
        # Both sends lead; each would hop over the other forever if one
        # pending half could pass another that is also on its way.
        ok, canon = well_formed(parse_choreography(
            "p.1 ~> [#1]; q.2 ~> [#2]; b <~ (q, #2); a <~ (p, #1); 0"))
        assert ok
        assert render_choreography(canon) == "q.2 -> b; p.1 -> a; 0"

    def test_in_transit_message_is_fine(self):
        ok, canon = well_formed(parse_choreography("q <~ (p, 7); 0"))
        assert ok
        assert render_choreography(canon) == "q <~ (p, 7); 0"

    def test_message_behind_same_lane_communication_rejected(self):
        # hand-checked: the queued 2 would have to overtake the 1 that the
        # earlier communication on the same lane delivers first.
        ok, canon = well_formed(
            parse_choreography("p.1 -> q; q <~ (p, 2); 0"))
        assert not ok and canon is None

    def test_message_ahead_of_same_lane_communication_accepted(self):
        ok, _ = well_formed(parse_choreography("q <~ (p, 2); p.1 -> q; 0"))
        assert ok

    def test_detached_send_without_receive_rejected(self):
        ok, _ = well_formed(parse_choreography("p.1 ~> [#0]; 0"))
        assert not ok

    def test_waiting_receive_without_send_rejected(self):
        ok, _ = well_formed(parse_choreography("q <~ (p, #0); 0"))
        assert not ok

    def test_runtime_term_inside_recursion_body_rejected(self):
        ok, _ = well_formed(
            parse_choreography("def X = { q <~ (p, 1); X } in X"))
        assert not ok

    def test_message_in_transit_across_unrelated_traffic(self):
        # Execution-reachable: p's message to s is in flight while earlier
        # interactions of p and q are still pending.  (Reached from
        # "p.@ -> s; q.4 -> p; q.0 -> s; 0" by firing q's first send.)
        ok, _ = well_formed(
            parse_choreography("p.@ -> s; p <~ (q, 4); q.0 -> s; 0"))
        assert ok

    def test_a_long_chain_of_hopping_pairs_folds_in_one_pass(
            self, monkeypatch):
        # Each send must hop over an unrelated communication to reach its
        # receive.  The chain is folded in one pass: the rewrite attempts
        # grow linearly with its length, and the term is never searched
        # again from the top.
        n = 2000
        c = parse_choreography("".join(
            f"p.{i} ~> [#{i}]; r.1 -> s; q <~ (p, #{i}); "
            for i in range(n)) + "0")
        attempts = []
        fold_at = chor_async._fold_at

        def counted(run, i):
            attempts.append(i)
            return fold_at(run, i)

        def searched(t, here):
            raise AssertionError("searched again from the top")

        monkeypatch.setattr(chor_async, "_fold_at", counted)
        monkeypatch.setattr(terms, "rewrite_first", searched)
        monkeypatch.setattr(chor_async, "rewrite_first", searched,
                            raising=False)
        ok, canon = shallow(well_formed, c)
        assert ok and len(attempts) <= 4 * 3 * n
        assert render_choreography(canon) == "".join(
            f"r.1 -> s; p.{i} -> q; " for i in range(n)) + "0"

    def test_preserved_along_every_async_step(self):
        cfg = cfg_of("p.1 -> q; q.2 -> r; r.3 -> p; 0")
        frontier = [cfg]
        for _ in range(6):
            nxt = []
            for c in frontier:
                for _, succ in enabled(c, "async"):
                    assert well_formed(succ.chor)[0], \
                        render_choreography(succ.chor)
                    nxt.append(succ)
            frontier = nxt


class TestNextActionAndContexts:
    def test_verdicts(self):
        c = parse_choreography("p.1 -> q; if q.true then { 0 } else { 0 }")
        ctx = Hole(c)
        assert next_action(ctx, "p") == NextVerdict.HOLE
        assert next_action(c, "p") == NextVerdict.COMM
        assert next_action(c, "q") == NextVerdict.COMM
        after = c.cont
        assert next_action(after, "q") == NextVerdict.COND
        assert next_action(after, "p") == NextVerdict.UNDEFINED

    def test_conditional_requires_branch_agreement_on_the_kind(self):
        # The verdict is the *kind* of next action; it is defined for a
        # non-decider only when both branches agree on that kind.
        c = parse_choreography(
            "if p.true then { q.1 -> r; 0 } else { 0 }")
        assert next_action(c, "q") == NextVerdict.UNDEFINED
        c2 = parse_choreography(
            "if p.true then { q.1 -> r; 0 } else { q.2 -> r; 0 }")
        assert next_action(c2, "q") == NextVerdict.COMM

    def test_calls_resolve_lexically_under_a_shadowing_definition(self):
        # Built directly, as the parser rejects shadowing: the call Y in X
        # means the outer Y, so r and s never act.
        twin = parse_choreography("def Y = { p.1 -> q; Y } in "
                                  "def X = { q.2 -> p; Y } in "
                                  "def Z = { r.3 -> s; Z } in X")
        ctx = transform(twin, lambda n: Def("Y", n.body, n.cont)
                        if type(n) is Def and n.var == "Z" else
                        Call("Y") if n == Call("Z") else n)
        for r in "pqrs":
            assert next_action(ctx, r) == next_action(twin, r)
        assert next_action(ctx, "p") == NextVerdict.COMM
        assert next_action(ctx, "r") == NextVerdict.UNDEFINED

    def test_long_chain_contexts(self):
        # 1,500 communications: each walk loops down the chain.
        c = parse_choreography("p.1 -> q; q.2 -> p; " * 749
                               + "r.3 -> s; s.4 -> r; 0")
        contexts = shallow(harvest_contexts, c)
        assert len(contexts) == 1500
        ctx, com = contexts[-2]
        assert render_choreography(com) == "r.3 -> s; 0"
        assert next_action(ctx, "r") == NextVerdict.HOLE
        assert next_action(ctx, "p") == NextVerdict.COMM
        assert next_action(c, "r") == NextVerdict.COMM
        assert next_action(c, "t") == NextVerdict.UNDEFINED

    def test_plug_fills_every_hole(self):
        c = parse_choreography("r.9 -> s; 0")
        ctx = Com("r", Lit(IntV(9)), "s", Hole(NIL))
        com = Com("p", Lit(IntV(1)), "q", NIL)
        assert render_choreography(plug(ctx, com)) == \
            "r.9 -> s; p.1 -> q; 0"
        assert render_choreography(plug(ctx, None)) == "r.9 -> s; 0"


def test_abstract_async_holds_on_sample_programs():
    corpus = [parse_choreography(t) for t in (
        "p.1 -> q; 0",
        "p.1 -> q; q.2 -> r; 0",
        "p.1 -> q; r.2 -> s; p.3 -> r; 0",
        "if p.true then { p.1 -> q; 0 } else { p.2 -> q; 0 }",
    )]
    contexts, violations = check_abstract_async(
        corpus, lambda c: GlobalState.uniform(sorted(pn(c))))
    assert violations == []
    assert contexts == sum(len(harvest_contexts(c)) for c in corpus) == 6


def test_abstract_async_reports_each_missing_step(monkeypatch):
    monkeypatch.setattr(chor_async, "enabled", lambda cfg, mode: [])
    c = parse_choreography("p.1 -> q; 0")
    contexts, violations = check_abstract_async(
        [c], lambda c: GlobalState.uniform(["p", "q"]))
    assert contexts == 1
    assert [(v.context, v.process, v.clause) for v in violations] == [
        ("p.1 -> q; 0", "p", "send"), ("p.1 -> q; 0", "q", "receive")]


@pytest.mark.parametrize("seed", [42, 7])
def test_harvested_communications_plug_back_into_the_program(seed):
    # The abstract-asynchrony check steps each program once for the send
    # clause of all its contexts, which rests on this.
    contexts = 0
    for program in generate_corpus(CorpusSpec(seed=seed)):
        for ctx, com in harvest_contexts(program):
            assert plug(ctx, com) == program
            contexts += 1
    assert contexts > 100
