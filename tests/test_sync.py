"""Synchronous choreography semantics: out-of-order execution,
conditionals, recursion, garbage collection."""

import pytest

from chorkit import (
    BNIL,
    Configuration,
    GlobalState,
    GuardNotBoolean,
    IntV,
    LeftmostScheduler,
    NIL,
    NotEnabled,
    enabled_sync,
    gc,
    parse_choreography,
    pn,
    project_behaviour,
    render_choreography,
    run_chor,
    step_com,
    step_cond,
    terminated,
)
from chorkit.network import gc_behaviour


def cfg_of(text, **cells):
    c = parse_choreography(text)
    sigma = GlobalState.uniform(sorted(pn(c)))
    for name, v in cells.items():
        sigma = sigma.update(name, IntV(v))
    return Configuration(c, sigma)


def labels(cfg):
    return sorted((l.rule, l.subjects) for l, _ in enabled_sync(cfg))


class TestEnabledness:
    def test_head_communication_fires(self):
        cfg = cfg_of("p.1 -> q; 0")
        steps = enabled_sync(cfg)
        assert len(steps) == 1
        label, succ = steps[0]
        assert (label.rule, label.subjects) == ("Com", ("p", "q"))
        assert label.value == IntV(1)
        assert succ.state.get("q") == IntV(1)
        assert terminated(succ.chor)

    def test_disjoint_later_action_is_enabled(self):
        # r/s do not appear ahead of them, so both communications can fire.
        cfg = cfg_of("p.1 -> q; r.2 -> s; 0")
        assert labels(cfg) == [("Com", ("p", "q")), ("Com", ("r", "s"))]

    def test_shared_name_blocks(self):
        # q occurs in the first communication, so q.2 -> r must wait.
        cfg = cfg_of("p.1 -> q; q.2 -> r; 0")
        assert labels(cfg) == [("Com", ("p", "q"))]

    def test_out_of_order_execution_preserves_the_rest(self):
        cfg = cfg_of("p.1 -> q; r.2 -> s; 0")
        later = [s for l, s in enabled_sync(cfg)
                 if l.subjects == ("r", "s")][0]
        assert render_choreography(later.chor) == "p.1 -> q; 0"
        assert later.state.get("s") == IntV(2)

    def test_expression_evaluated_at_the_sender(self):
        cfg = cfg_of("p.@ + 1 -> q; 0", p=41)
        [(label, succ)] = enabled_sync(cfg)
        assert label.value == IntV(42)
        assert succ.state.get("q") == IntV(42)


class TestConditionals:
    def test_guard_picks_a_branch(self):
        cfg = cfg_of("if p.@ < 5 then { p.1 -> q; 0 } else { p.2 -> q; 0 }",
                     p=3)
        steps = enabled_sync(cfg)
        assert [l.rule for l, _ in steps] == ["Then"]
        assert render_choreography(steps[0][1].chor) == "p.1 -> q; 0"
        cfg = cfg_of("if p.@ < 5 then { p.1 -> q; 0 } else { p.2 -> q; 0 }",
                     p=9)
        assert [l.rule for l, _ in enabled_sync(cfg)] == ["Else"]

    def test_action_common_to_both_branches_fires_early(self):
        # q -> r appears identically in both branches and does not involve
        # the decider, so it may fire before p decides.
        cfg = cfg_of("if p.true then { q.1 -> r; p.2 -> q; 0 }"
                     " else { q.1 -> r; p.3 -> q; 0 }")
        rules = labels(cfg)
        assert ("Com", ("q", "r")) in rules
        early = [s for l, s in enabled_sync(cfg)
                 if l.subjects == ("q", "r")][0]
        # The conditional is still pending afterwards.
        assert render_choreography(early.chor).startswith("if p.true")
        assert early.state.get("r") == IntV(1)

    def test_branch_disagreement_blocks_the_action(self):
        cfg = cfg_of("if p.true then { q.1 -> r; 0 } else { q.2 -> r; 0 }")
        assert labels(cfg) == [("Then", ("p",))]

    def test_action_involving_decider_blocked(self):
        cfg = cfg_of("if p.true then { q.1 -> p; 0 } else { q.1 -> p; 0 }")
        assert labels(cfg) == [("Then", ("p",))]

    def test_non_boolean_guard_raises(self):
        cfg = cfg_of("if p.@ + 1 then { 0 } else { 0 }")
        with pytest.raises(GuardNotBoolean):
            enabled_sync(cfg)


class TestRecursion:
    def test_call_unfolds_once_per_exposure(self):
        cfg = cfg_of("def X = { p.1 -> q; X } in X")
        [(label, succ)] = enabled_sync(cfg)
        assert (label.rule, label.subjects) == ("Com", ("p", "q"))
        # The loop is still there, one iteration consumed.
        assert render_choreography(succ.chor) == \
            "def X = { p.1 -> q; X } in X"

    def test_no_infinite_unfolding_when_enumerating(self):
        cfg = cfg_of("def X = { p.1 -> q; X } in X")
        assert len(enabled_sync(cfg)) == 1

    def test_loop_does_not_hide_later_independent_action(self):
        cfg = cfg_of("def X = { p.1 -> q; X } in r.2 -> s; X")
        assert labels(cfg) == [("Com", ("p", "q")), ("Com", ("r", "s"))]


class TestGcAndTermination:
    def test_recursion_wrapper_over_nil_is_collected(self):
        c = parse_choreography("def X = { p.1 -> q; X } in 0")
        assert terminated(c)

    def test_idle_loop_is_collected(self):
        # A loop that never acts can never act; it is garbage.
        c = parse_choreography("def X = { X } in X")
        assert terminated(c)

    def test_live_loop_is_not_collected(self):
        c = parse_choreography("def X = { p.1 -> q; X } in X")
        assert gc(c) == c
        assert not terminated(c)

    def test_nested_inert_definition_collected(self):
        c = parse_choreography("def X = { def Y = { Y } in Y } in X")
        assert terminated(c)

    # The outer definition only becomes inert once the inner one, whose
    # continuation is 0, has been collected.
    COLLECTED_INSIDE = ["def X = { def Y = { p.1 -> q; 0 } in 0 } in X",
                        "def X = { def Y = { p.1 -> q; Y } in 0 } in X"]

    @pytest.mark.parametrize("text", COLLECTED_INSIDE)
    def test_gc_reaches_its_fixpoint_in_one_pass(self, text):
        once = gc(parse_choreography(text))
        assert once == NIL
        assert gc(once) is once

    @pytest.mark.parametrize("text", COLLECTED_INSIDE)
    def test_collected_inside_is_terminated(self, text):
        cfg = cfg_of(text)
        assert terminated(cfg.chor)
        trace = run_chor(cfg, "sync", LeftmostScheduler())
        assert trace.outcome == "terminated"
        assert trace.steps == ()

    @pytest.mark.parametrize("text", COLLECTED_INSIDE)
    def test_behaviour_collected_inside_in_one_call(self, text):
        b = project_behaviour(parse_choreography(text), "p")
        assert b != BNIL
        assert gc_behaviour(b) == BNIL


class TestExplicitSteps:
    def test_step_com_applies_the_chosen_redex(self):
        cfg = cfg_of("p.1 -> q; r.2 -> s; 0")
        label = [l for l, _ in enabled_sync(cfg)
                 if l.subjects == ("r", "s")][0]
        succ = step_com(cfg, label)
        assert render_choreography(succ.chor) == "p.1 -> q; 0"

    def test_step_com_rejects_conditional_redexes(self):
        cfg = cfg_of("if p.true then { 0 } else { 0 }")
        label = enabled_sync(cfg)[0][0]
        with pytest.raises(NotEnabled):
            step_com(cfg, label)
        assert terminated(step_cond(cfg, label).chor)

    def test_stale_redex_rejected(self):
        cfg = cfg_of("p.1 -> q; 0")
        label = enabled_sync(cfg)[0][0]
        _, succ = enabled_sync(cfg)[0]
        with pytest.raises(NotEnabled):
            step_com(succ, label)


def test_deterministic_program_runs_to_completion():
    cfg = cfg_of("p.1 -> q; q.@ + 1 -> r; r.@ + 1 -> s; 0")
    for _ in range(3):
        steps = enabled_sync(cfg)
        cfg = steps[0][1]
    assert terminated(cfg.chor)
    assert cfg.state.get("s") == IntV(3)
