"""Asynchronous choreography semantics: two-phase communication,
well-formedness, and the abstract-asynchrony conformance check."""

import sys

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
    enabled_async,
    next_action,
    parse_choreography,
    plug,
    pn,
    render_choreography,
    terminated,
    unfold_com,
    well_formed,
)
from chorkit.terms import subterms


def cfg_of(text, **cells):
    c = parse_choreography(text)
    sigma = GlobalState.uniform(sorted(pn(c)))
    for name, v in cells.items():
        sigma = sigma.update(name, IntV(v))
    return Configuration(c, sigma)


def sigs(cfg):
    return sorted((l.rule, l.subjects) for l, _ in enabled_async(cfg))


class TestTwoPhaseCommunication:
    def test_send_then_receive(self):
        cfg = cfg_of("p.1 -> q; 0")
        [(label, mid)] = enabled_async(cfg)
        assert (label.rule, label.subjects) == ("ComS", ("p", "q"))
        assert render_choreography(mid.chor) == "q <~ (p, 1); 0"
        assert mid.state.get("q") == IntV(0)  # not yet delivered
        [(label2, end)] = enabled_async(mid)
        assert (label2.rule, label2.subjects) == ("ComR", ("p", "q"))
        assert end.state.get("q") == IntV(1)
        assert terminated(end.chor)

    def test_value_captured_at_send_time(self):
        # p's cell changes after the send; the in-transit value must not.
        cfg = cfg_of("p.@ -> q; r.5 -> p; 0", p=7)
        mid = [s for l, s in enabled_async(cfg)
               if l.rule == "ComS" and l.subjects == ("p", "q")][0]
        mid = [s for l, s in enabled_async(mid)
               if l.rule == "ComS" and l.subjects == ("r", "p")][0]
        mid = [s for l, s in enabled_async(mid)
               if l.rule == "ComR" and l.subjects == ("r", "p")][0]
        assert mid.state.get("p") == IntV(5)  # p overwritten...
        final = [s for l, s in enabled_async(mid) if l.rule == "ComR"][0]
        assert final.state.get("q") == IntV(7)  # ...but q gets the old 7

    def test_sender_freed_receiver_still_blocked(self):
        # After p's first send detaches, p may send to r, but q's second
        # action stays behind the pending receive.
        cfg = cfg_of("p.1 -> q; p.2 -> r; q.3 -> s; 0")
        mid = [s for l, s in enabled_async(cfg)
               if l.subjects == ("p", "q")][0]
        assert ("ComS", ("p", "r")) in sigs(mid)
        assert ("ComS", ("q", "s")) not in sigs(mid)

    def test_explicit_runtime_pair_execution(self):
        cfg = cfg_of("p.1 ~> [#0]; q <~ (p, #0); 0")
        [(label, mid)] = enabled_async(cfg)
        assert label.rule == "ComS"
        assert label.tag_id == 0
        assert render_choreography(mid.chor) == "q <~ (p, 1); 0"

    def test_tagged_send_fills_a_receive_far_down_the_chain(self):
        # The receive that takes the value is 6,000 actions below the
        # send; filling it in must not recurse along the chain.
        cfg = cfg_of("p.1 ~> [#0]; " + "s.2 -> q; " * 5_998
                     + "s <~ (p, #0); 0")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            steps = enabled_async(cfg)
        except RecursionError:  # reported below, without 1,000 frames
            steps = None
        finally:
            sys.setrecursionlimit(limit)
        assert steps is not None, "the step recursed along the chain"
        assert sorted((l.subjects, l.tag_id) for l, _ in steps) == [
            (("p",), 0), (("s", "q"), None)]
        [end] = [s.chor for l, s in steps if l.tag_id == 0]
        assert [t for t in subterms(end) if type(t) is RtRecv] == [
            RtRecv("p", IntV(1), "s", NIL)]


class TestOutOfOrderDelivery:
    def test_second_message_receivable_first(self):
        # Both sends fire; r may consume its message before q does.
        cfg = cfg_of("p.1 -> q; p.2 -> r; 0")
        mid = [s for l, s in enabled_async(cfg)
               if l.subjects == ("p", "q")][0]
        mid = [s for l, s in enabled_async(mid)
               if l.rule == "ComS" and l.subjects == ("p", "r")][0]
        receives = [(l.subjects, s) for l, s in enabled_async(mid)
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
        mid = enabled_async(cfg)[0][1]
        # second send is enabled only as ComS; the only ComR takes value 1
        receives = [l for l, _ in enabled_async(mid) if l.rule == "ComR"]
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

    def test_preserved_along_every_async_step(self):
        cfg = cfg_of("p.1 -> q; q.2 -> r; r.3 -> p; 0")
        frontier = [cfg]
        for _ in range(6):
            nxt = []
            for c in frontier:
                for _, succ in enabled_async(c):
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
    violations = check_abstract_async(
        corpus, lambda c: GlobalState.uniform(sorted(pn(c))))
    assert violations == []
