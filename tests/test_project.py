"""Endpoint projection, including queue seeding for in-transit messages."""

import pytest

from chorkit import (
    Configuration,
    GlobalState,
    IllFormed,
    IntV,
    Message,
    NotProjectable,
    epp_async,
    epp_sync,
    parse_choreography,
    pn,
    project_behaviour,
    projectable,
    render_behaviour,
    render_network,
)
from chorkit.terms import Call, subterms
from chorkit.verify import SuccessorStore, explore_chor
from oracles import project_queue


def chor(text):
    return parse_choreography(text)


def sigma_for(c):
    return GlobalState.uniform(sorted(pn(c)))


class TestBehaviourProjection:
    def test_communication_roles(self):
        c = chor("p.1 -> q; 0")
        assert render_behaviour(project_behaviour(c, "p")) == "q!1; 0"
        assert render_behaviour(project_behaviour(c, "q")) == "p?; 0"
        assert render_behaviour(project_behaviour(c, "r")) == "0"

    def test_conditional_at_the_decider(self):
        c = chor("if p.@ < 2 then { p.1 -> q; 0 } else { p.2 -> q; 0 }")
        assert render_behaviour(project_behaviour(c, "p")) == \
            "if @ < 2 then { q!1; 0 } else { q!2; 0 }"
        # q receives either way: branches project identically.
        assert render_behaviour(project_behaviour(c, "q")) == "p?; 0"

    def test_branch_disagreement_not_projectable(self):
        c = chor("if p.true then { q.1 -> r; 0 } else { 0 }")
        with pytest.raises(NotProjectable):
            project_behaviour(c, "q")
        assert not projectable(c)

    def test_uncalled_definition_does_not_split_the_branches(self):
        # Projected as collected, the dead loop leaves q and r nothing to
        # do in either branch.
        c = chor("if p.true then { def X = { q.1 -> r; X } in 0 } "
                 "else { 0 }")
        assert projectable(c)
        assert render_network(epp_sync(c, sigma_for(c))) == \
            render_network(epp_async(c, sigma_for(c)))

    def test_recursion_is_structural(self):
        c = chor("def X = { p.1 -> q; X } in X")
        assert render_behaviour(project_behaviour(c, "p")) == \
            "def X = { q!1; X } in X"

    def test_instantiated_receive_projects_to_a_receive(self):
        c = chor("q <~ (p, 7); 0")
        assert render_behaviour(project_behaviour(c, "q")) == "p?; 0"
        assert render_behaviour(project_behaviour(c, "p")) == "0"


class TestSharedNodes:
    """A definition, a call and 0 are one constructor in both families,
    so projection gives back the choreography's own calls and 0."""

    def test_calls_and_0_are_the_choreography_nodes(self):
        c = chor("def X = { p.1 -> q; X } in X")
        for name in ("p", "q"):
            b = project_behaviour(c, name)
            assert b.cont is c.cont
            assert b.body.cont is c.body.cont
        c = chor("p.1 -> q; 0")
        assert project_behaviour(c, "p").cont is c.cont
        assert project_behaviour(c, "r") is c.cont

    def test_store_projection_reuses_the_call(self):
        c = chor("def X = { p.1 -> q; X } in X")
        store = SuccessorStore()
        configs, _ = explore_chor(Configuration(c, sigma_for(c)), "async",
                                  4, store=store)
        for cfg in configs:
            calls = {id(t) for t in subterms(cfg.chor) if type(t) is Call}
            for _, proc in store.projection(cfg).procs:
                assert {id(t) for t in subterms(proc.behaviour)
                        if type(t) is Call} == calls


class TestQueueProjection:
    def test_in_transit_message_lands_in_the_queue(self):
        c = chor("q <~ (p, 7); 0")
        assert project_queue(c, "q") == [Message("p", IntV(7))]
        assert project_queue(c, "p") == []

    def test_messages_collected_from_anywhere(self):
        c = chor("p.1 -> s; q <~ (r, 9); 0")
        assert project_queue(c, "q") == [Message("r", IntV(9))]

    def test_branches_must_agree_on_messages_in_transit(self):
        # q receives once in either branch, so only the queues differ.
        c = chor("if p.true then { q <~ (r, 1); 0 } "
                 "else { q <~ (r, 2); 0 }")
        assert not projectable(c)
        with pytest.raises(NotProjectable, match="in-transit messages"):
            epp_async(c, sigma_for(c))
        # Queues are compared first when the behaviours differ too.
        c = chor("if p.true then { q <~ (r, 1); 0 } else { 0 }")
        with pytest.raises(NotProjectable, match="in-transit messages"):
            epp_async(c, sigma_for(c))


class TestEppSync:
    def test_projects_every_process(self):
        c = chor("p.1 -> q; q.@ -> r; 0")
        n = epp_sync(c, sigma_for(c))
        assert render_network(n) == \
            "p[0]{ q!1; 0 } | q[0]{ p?; r!@; 0 } | r[0]{ q?; 0 }"

    def test_runtime_terms_rejected(self):
        with pytest.raises(IllFormed):
            epp_sync(chor("q <~ (p, 7); 0"), GlobalState.uniform(["p", "q"]))


class TestEppAsync:
    def test_program_projects_with_empty_queues(self):
        c = chor("p.1 -> q; 0")
        n = epp_async(c, sigma_for(c))
        assert render_network(n) == "p[0]{ q!1; 0 } | q[0]{ p?; 0 }"

    def test_in_transit_message_seeds_the_target_queue(self):
        c = chor("q <~ (p, 7); q.1 -> r; 0")
        n = epp_async(c, sigma_for(c))
        # p's part is already over, so it is not in the projection's domain.
        assert render_network(n) == \
            "q[0]<(p, 7)>{ p?; r!1; 0 } | r[0]{ q?; 0 }"

    def test_unfolded_pair_projects_like_the_folded_form(self):
        folded = chor("p.1 -> q; 0")
        unfolded = chor("p.1 ~> [#0]; q <~ (p, #0); 0")
        sigma = GlobalState.uniform(["p", "q"])
        assert render_network(epp_async(unfolded, sigma)) == \
            render_network(epp_async(folded, sigma))

    def test_ill_formed_choreography_rejected(self):
        # The message "2" would overtake the communication of "1" on the
        # same lane: rejected rather than projected to a wrong network.
        c = chor("p.1 -> q; q <~ (p, 2); 0")
        with pytest.raises(IllFormed):
            epp_async(c, GlobalState.uniform(["p", "q"]))
