"""Seeded deterministic execution and trace formats."""

import json
import random
import sys

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
import chorkit.run as run_module
import chorkit.sync as sync
import chorkit.terms as terms
import chorkit.verify as verify
from chorkit.cli import InteractiveScheduler, main
from chorkit.run import step_order
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

    def test_schedulers_share_one_step_order(self, monkeypatch):
        steps = sync.enabled(cfg_of("p.1 -> q; r.2 -> s; p.3 -> r; 0"),
                             "async")
        ordered = sorted(steps, key=step_order)
        shuffled = steps[::-1]
        assert ordered != shuffled
        assert make_scheduler("leftmost").pick(shuffled) == ordered[0]
        for seed in range(5):
            index = random.Random(seed).randrange(len(ordered))
            assert make_scheduler("random", seed).pick(shuffled) == \
                ordered[index]
        monkeypatch.setattr("builtins.input", lambda prompt="": "2")
        assert InteractiveScheduler().pick(shuffled) == ordered[1]

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


class TestChoreographyRuns:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_one_choreography_table_serves_a_run(self, monkeypatch, mode):
        # The values are constant, so this ring revisits a few
        # choreographies, and each is walked once per run, not once per
        # step.
        calls = []

        def counted(*args):
            calls.append(args)
            return walk(*args)

        walk = sync._walk
        monkeypatch.setattr(sync, "_walk", counted)
        cfg = cfg_of("def X = { p.1 -> q; q.2 -> r; r.3 -> p; X } in X")
        t = run_chor(cfg, mode, make_scheduler("random", 5), 1000)
        assert t.outcome == "budget" and len(t.steps) == 1000
        assert len(calls) <= 10

    RING = "def X = { p.1 -> q; q.2 -> r; r.3 -> p; X } in X"

    def test_a_sync_run_finds_its_choreographies_by_identity(
            self, monkeypatch):
        # The ring comes back to an equal choreography every three steps,
        # as a successor the table holds, so the table finds its moves by
        # id and compares a whole term at most once per fill.
        compared, fills = [], []

        def counted_eq(a, b):
            compared.append(a)
            return terms.Term.__eq__(a, b)

        for cls in (*terms.SUBTERMS, terms.Call, terms.Nil):
            monkeypatch.setattr(cls, "__eq__", counted_eq)
        fill = sync._fill
        monkeypatch.setattr(sync, "_fill",
                            lambda *args: fills.append(args) or fill(*args))
        t = run_chor(cfg_of(self.RING), "sync", make_scheduler("leftmost"),
                     1000)
        assert t.outcome == "budget" and len(t.steps) == 1000
        assert fills and len(compared) <= len(fills)

    def test_a_send_is_built_once_per_move_and_value(self, monkeypatch):
        # The values are constant, so each send move of the ring always
        # sends the same value, and its successor is built and collected
        # once per run.
        sent, collected = [], []
        build, collect = sync._sent, sync.gc

        def counted_sent(after, src, value, dst):
            sent.append((id(after), value))
            return build(after, src, value, dst)

        def counted_gc(t):
            if sys._getframe(1).f_code.co_name == "enabled":
                collected.append(t)
            return collect(t)

        monkeypatch.setattr(sync, "_sent", counted_sent)
        monkeypatch.setattr(sync, "gc", counted_gc)
        t = run_chor(cfg_of(self.RING), "async",
                     make_scheduler("random", 5), 1000)
        assert t.outcome == "budget" and len(t.steps) == 1000
        assert sent and len(sent) == len(set(sent))
        assert len(collected) == len(sent)

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_the_table_maps_only_the_ids_of_what_it_holds(self, monkeypatch,
                                                          mode):
        tables = []

        def recorded():
            tables.append(sync.MoveTable())
            return tables[-1]

        monkeypatch.setattr(run_module, "MoveTable", recorded)
        for program in (self.RING,
                        "def X = { p.@ + 1 -> q; q.@ -> p; X } in X"):
            run_chor(cfg_of(program), mode, make_scheduler("random", 3), 300)
        for table in tables:
            held = {id(chor): chor for chor, _ in table}
            for moves in table.values():
                for rule, *_, after, _ in moves:
                    if rule != "ComS":
                        held.update((id(s), s) for s in after)
            held.update((id(s), s) for s in table.sent.values())
            assert table.ids and (mode == "sync" or table.sent)
            for (i, m), moves in table.ids.items():
                assert i in held
                assert moves is None or moves is table[held[i], m]


def _loop(shape, n, expr):
    """A recursive program of one of the benchmark's loop shapes: a ring
    of ``n`` processes, or a producer sending to ``n`` others, each
    message the expression ``expr``."""
    names = "pqrst"
    if shape == "ring":
        body = [(names[i], names[(i + 1) % n]) for i in range(n)]
    else:
        body = [("p", names[i + 1]) for i in range(n)]
    return ("def X = { " + "".join(f"{s}.{expr} -> {d}; " for s, d in body)
            + "X } in X")


@pytest.mark.parametrize("text", [
    *(_loop(shape, n, expr) for shape, n in (("ring", 2), ("ring", 3),
                                             ("ring", 4), ("producer", 2))
      for expr in ("@ + 1", "1")),
    "def X = { p.@ + 1 -> q; q.@ -> p; "
    "if p.@ < 4 then { X } else { p.0 -> q; X } } in X"])
@pytest.mark.parametrize("mode", ["sync", "async"])
@pytest.mark.parametrize("scheduler", ["leftmost", "random"])
def test_a_run_through_one_table_is_the_run_through_fresh_ones(
        monkeypatch, text, mode, scheduler):
    # Values that grow make new choreographies at every lap of an async
    # run, and values that repeat make the same ones, so both the
    # table's lookups by identity and its fills are compared.
    cfg = cfg_of(text)
    one = format_trace(run_chor(cfg, mode, make_scheduler(scheduler, 4),
                                200))
    monkeypatch.setattr(run_module, "enabled",
                        lambda state, mode, _: sync.enabled(state, mode))
    fresh = format_trace(run_chor(cfg, mode, make_scheduler(scheduler, 4),
                                  200))
    assert one == fresh and one.endswith("-- budget")


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


def test_ten_thousand_nested_conditionals_need_no_recursion(tmp_path,
                                                            capsys):
    # The program of test_cli.TestNesting, 10,000 levels deep: every walk
    # of every command and check keeps the subterms still to visit on a
    # stack of its own, so none recurses along the nesting.
    n = 10_000
    text = ("if p.true then { " * n + "p.1 -> q; 0" +
            " } else { p.1 -> q; 0 }" * n)
    src = tmp_path / "nested.mc"
    src.write_text(text)

    def check():
        assert main(["check", str(src)]) == 0
        assert main(["check", str(src), "--canonical"]) == 0
        for mode in ("sync", "async"):
            net = str(tmp_path / f"nested.{mode}")
            assert main(["project", str(src), "--mode", mode,
                         "--out", net]) == 0
            assert main(["run", str(src), "--mode", mode,
                         "--steps", "1"]) == 0
            assert main(["simulate", net, "--mode", mode,
                         "--steps", "1"]) == 0
        program = parse_choreography(text)
        sigma, store = GlobalState.uniform(["p", "q"]), verify.SuccessorStore()
        for name, run_check in verify._CHECKS.items():
            assert run_check(program, sigma, 1, store).verdict == "pass", name
    shallow(check)
    out = capsys.readouterr().out
    assert out.startswith("ok\nif p.true then { if p.true then {")
    assert out.count("\n-- budget\n") == 4
