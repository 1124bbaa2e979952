"""Seeded deterministic execution and trace formats."""

import json
import random

import pytest

from chorkit import (
    Configuration,
    GlobalState,
    IntV,
    epp_async,
    epp_sync,
    format_trace,
    make_scheduler,
    parse_choreography,
    parse_network,
    pn,
    render,
    render_choreography,
    render_network,
    run_chor,
    run_network,
    well_formed,
)
import chorkit.network as network
from chorkit.terms import head
from chorkit.verify import check_diamond, explore_network
from helpers import shallow


def cfg_of(text):
    c = parse_choreography(text)
    return Configuration(c, GlobalState.uniform(sorted(pn(c))))


class TestSchedulers:
    def test_leftmost_is_deterministic(self):
        cfg = cfg_of("p.1 -> q; r.2 -> s; 0")
        t1 = run_chor(cfg, "sync", make_scheduler("leftmost"))
        t2 = run_chor(cfg, "sync", make_scheduler("leftmost"))
        assert format_trace(t1) == format_trace(t2)
        assert [s.label.subjects for s in t1.steps] == \
            [("p", "q"), ("r", "s")]

    def test_random_replays_with_the_same_seed(self):
        cfg = cfg_of("p.1 -> q; r.2 -> s; p.3 -> r; q.4 -> s; 0")
        runs = {seed: format_trace(
            run_chor(cfg, "async", make_scheduler("random", seed)))
            for seed in (7, 7, 8)}
        again = format_trace(
            run_chor(cfg, "async", make_scheduler("random", 7)))
        assert runs[7] == again

    def test_outcomes(self):
        assert run_chor(cfg_of("p.1 -> q; 0"), "sync",
                        make_scheduler("leftmost")).outcome == "terminated"
        loop = cfg_of("def X = { p.1 -> q; X } in X")
        t = run_chor(loop, "sync", make_scheduler("leftmost"), max_steps=5)
        assert t.outcome == "budget"
        assert len(t.steps) == 5

    def test_a_stuck_state_gets_its_verdict_at_any_budget(self):
        cfg = cfg_of("q <~ (p, #0); 0")
        net = parse_network("p[0]{ q?; 0 } | q[0]{ p?; 0 }")
        for budget in (0, 1):
            for mode in ("sync", "async"):
                for trace in (run_chor(cfg, mode, make_scheduler("leftmost"),
                                       budget),
                              run_network(net, mode,
                                          make_scheduler("leftmost"),
                                          budget)):
                    assert trace.outcome == "deadlocked"
                    assert trace.steps == ()

    def test_a_scheduler_that_picks_nothing_interrupts(self):
        class Quit:
            def pick(self, steps):
                return None

        cfg = cfg_of("p.1 -> q; 0")
        net = epp_sync(cfg.chor, cfg.state)
        for mode in ("sync", "async"):
            for trace in (run_chor(cfg, mode, Quit()),
                          run_network(net, mode, Quit())):
                assert trace.outcome == "interrupted"
                assert trace.steps == ()


class TestTagsInTraces:
    def test_async_sends_get_fresh_tags(self):
        cfg = cfg_of("p.1 -> q; p.2 -> r; 0")
        t = run_chor(cfg, "async", make_scheduler("leftmost"))
        tags = [s.label.tag_id for s in t.steps if s.label.rule == "ComS"]
        assert len(tags) == 2 and len(set(tags)) == 2

    def test_tags_start_above_existing_ones(self):
        cfg = cfg_of("p.1 ~> [#7]; q <~ (p, #7); r.2 -> s; 0")
        t = run_chor(cfg, "async", make_scheduler("leftmost"))
        fresh = [s.label.tag_id for s in t.steps
                 if s.label.rule == "ComS" and s.label.subjects == ("r",
                                                                    "s")]
        assert fresh and all(tag > 7 for tag in fresh)


class TestTraceFormats:
    def test_human_format_shape(self):
        cfg = cfg_of("p.1 -> q; 0")
        text = format_trace(run_chor(cfg, "sync",
                                     make_scheduler("leftmost")))
        lines = text.splitlines()
        assert lines[0].startswith("#0 Com p,q v=1 :: ")
        assert lines[-1] == "-- terminated"

    def test_record_format_is_json_per_line(self):
        cfg = cfg_of("p.1 -> q; 0")
        text = format_trace(run_chor(cfg, "sync",
                                     make_scheduler("leftmost")),
                            fmt="records")
        record = json.loads(text.splitlines()[0])
        assert record["rule"] == "Com"
        assert record["subjects"] == ["p", "q"]
        assert record["value"] == "1"
        assert json.loads(record["state"]) == {"p": "0", "q": "1"}


class TestNetworkRuns:
    def test_sync_network_run(self):
        n = parse_network("p[0]{ q!1; 0 } | q[0]{ p?; 0 }")
        t = run_network(n, "sync", make_scheduler("leftmost"))
        assert t.outcome == "terminated"
        assert len(t.steps) == 1

    def test_async_network_run_matches_projection_semantics(self):
        n = parse_network("p[0]{ q!1; 0 } | q[0]{ p?; 0 }")
        t = run_network(n, "async", make_scheduler("leftmost"))
        assert [s.label.rule for s in t.steps] == ["ComS", "ComR"]
        assert t.outcome == "terminated"

    def test_deadlock_reported(self):
        n = parse_network("p[0]{ q?; 0 } | q[0]{ p?; 0 }")
        t = run_network(n, "async", make_scheduler("leftmost"))
        assert t.outcome == "deadlocked"
        assert t.steps == ()

    def test_delivered_value_reflects_the_sender_state(self):
        n = parse_network("p[3]{ q!@; 0 } | q[0]{ p?; r!@; 0 } "
                          "| r[0]{ q?; 0 }")
        t = run_network(n, "async", make_scheduler("random", 1))
        assert t.outcome == "terminated"
        delivered = [s.label.value for s in t.steps
                     if s.label.rule == "ComR"]
        assert delivered == [IntV(3), IntV(3)]

    def test_one_step_table_serves_a_run(self, monkeypatch):
        # Each behaviour of this ring is walked to its head once per run,
        # not once per step.
        calls = []

        def counted(*args):
            calls.append(args)
            return head(*args)

        monkeypatch.setattr(network, "head", counted)
        n = parse_network("p[0]{ def X = { q!1; r?; X } in X } "
                          "| q[0]{ def Y = { p?; r!1; Y } in Y } "
                          "| r[0]{ def Z = { q?; p!1; Z } in Z }")
        t = run_network(n, "sync", make_scheduler("leftmost"), 1000)
        assert t.outcome == "budget" and len(t.steps) == 1000
        assert len(calls) <= 10


class TestDeadDefinitions:
    """Each iteration of this loop leaves behind the definition of Y, which
    nothing calls; collecting it keeps runs at a constant size and closes
    the state space."""

    PROGRAM = "def X = { def Y = { p.1 -> a; Y } in p.2 -> b; X } in X"

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_runs_keep_their_size(self, mode):
        cfg = cfg_of(self.PROGRAM)
        net = epp_sync(cfg.chor, cfg.state)
        for trace in (run_chor(cfg, mode, make_scheduler("leftmost"), 50),
                      run_network(net, mode, make_scheduler("leftmost"), 50)):
            sizes = [len(render(getattr(s.result, "chor", s.result)))
                     for s in trace.steps]
            assert len(sizes) == 50
            assert sizes[-2:] == sizes[:2]

    @pytest.mark.parametrize("text", [
        PROGRAM,
        # Z is dead once q.3 -> r has run; p.1 -> a may run before that.
        "def Y = { p.1 -> a; 0 } in def X = { Y } in "
        "def Z = { p.2 -> b; 0 } in q.3 -> r; X"])
    def test_step_order_does_not_matter(self, text):
        # Both orders of two independent steps reach the same term, however
        # early each order collects a dead definition.
        cfg = cfg_of(text)
        assert check_diamond(cfg.chor, cfg.state, 6).verdict == "pass"

    def test_calls_resolve_lexically(self):
        cfg = cfg_of("def Y = { p.1 -> a; 0 } in def X = { Y } in "
                     "def Z = { p.2 -> b; 0 } in q.3 -> r; X")
        for mode in ("sync", "async"):
            trace = run_chor(cfg, mode, make_scheduler("leftmost"), 50)
            assert trace.outcome == "terminated"
            assert {s.label.subjects for s in trace.steps} == \
                {("q", "r"), ("p", "a")}

    def test_projection_state_space_closes(self):
        cfg = cfg_of(self.PROGRAM)
        net = epp_sync(cfg.chor, cfg.state)
        assert len(explore_network(net, "sync", 50)[0]) == \
            len(explore_network(net, "sync", 10)[0])
        # Asynchronously p sends ahead without bound, so only the queues
        # grow: the behaviours still take finitely many values.
        behaviours = [{p.behaviour for n in explore_network(net, "async", d)[0]
                       for _, p in n.procs} for d in (10, 50)]
        assert behaviours[0] == behaviours[1]


def test_ten_thousand_communications_need_no_recursion():
    # Every walk on the way from text to traces loops along the chain.  A
    # recursive one would raise RecursionError long before 10,000.
    def check():
        rng = random.Random(5)
        comms = []
        for i in range(10_000):
            src, dst = rng.sample("pqrstu", 2)
            comms.append(f"{src}.(@ + {i % 7}) * 3 -> {dst}")
        program = parse_choreography("; ".join(comms) + "; 0")
        sigma = GlobalState.uniform(sorted(pn(program)))
        ok, canon = well_formed(program)
        assert ok and canon == program
        assert render_choreography(program).count(" -> ") == 10_000
        for mode, project in (("sync", epp_sync), ("async", epp_async)):
            net = project(program, sigma)
            assert render_network(net).count("!") == 10_000
            for trace in (run_chor(Configuration(program, sigma), mode,
                                   make_scheduler("random", 1), 5),
                          run_network(net, mode,
                                      make_scheduler("leftmost"), 5)):
                assert trace.outcome == "budget"
                assert len(format_trace(trace).split("\n")) == 6
    shallow(check)
