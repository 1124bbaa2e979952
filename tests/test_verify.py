"""The metatheory harness itself: corpus generation and the ability of each
check to detect genuine violations (negative controls)."""

import pytest

from chorkit import (
    BCond,
    Configuration,
    GlobalState,
    Queue,
    check_deadlock_freedom,
    check_epp_sync,
    check_sp_asp_simulation,
    format_trace,
    generate_corpus,
    make_scheduler,
    parse_choreography,
    parse_network,
    pn,
    projectable,
    render_choreography,
    run_chor,
    run_network,
)
import chorkit.network as network
import chorkit.project as project
import chorkit.sync as sync
import chorkit.terms as terms
import chorkit.verify as verify
from chorkit.terms import NIL, Call, Def, Process, RtRecv
from chorkit.verify import (
    CorpusSpec,
    SuccessorStore,
    check_abstract_asynchrony,
    check_async_equivalence,
    check_diamond,
    check_well_formedness_preservation,
    default_state,
    verify_corpus,
)


class TestCorpusGeneration:
    def test_deterministic_from_the_seed(self):
        a = [render_choreography(c) for c in generate_corpus(CorpusSpec())]
        b = [render_choreography(c) for c in generate_corpus(CorpusSpec())]
        assert a == b

    def test_different_seed_different_corpus(self):
        a = [render_choreography(c) for c in generate_corpus(CorpusSpec())]
        b = [render_choreography(c)
             for c in generate_corpus(CorpusSpec(seed=43))]
        assert a != b

    def test_size_and_projectability(self):
        corpus = generate_corpus(CorpusSpec())
        assert len(corpus) >= 50
        assert all(projectable(c) for c in corpus)

    def test_bounds_respected(self):
        spec = CorpusSpec()
        for c in generate_corpus(spec):
            assert len(pn(c)) <= spec.max_procs


class TestChecksOnSmallPrograms:
    def test_deadlock_freedom_passes(self):
        c = parse_choreography("p.1 -> q; q.2 -> r; 0")
        for mode in ("sync", "async"):
            report = check_deadlock_freedom(c, default_state(c), 8, mode)
            assert report.verdict == "pass"

    def test_lockstep_passes(self):
        c = parse_choreography(
            "if p.@ < 1 then { p.1 -> q; q.2 -> r; 0 }"
            " else { p.2 -> q; q.2 -> r; 0 }")
        assert check_epp_sync(c, default_state(c), 8).verdict == "pass"

    def test_async_equivalence_passes(self):
        c = parse_choreography("p.1 -> q; p.2 -> r; r.3 -> s; 0")
        report = check_async_equivalence(c, default_state(c), 8)
        assert report.verdict == "pass"

    def test_diamond_passes(self):
        c = parse_choreography("p.1 -> q; r.2 -> s; 0")
        assert check_diamond(c, default_state(c), 8).verdict == "pass"

    def test_well_formedness_preserved(self):
        c = parse_choreography("p.1 -> q; q.2 -> p; 0")
        report = check_well_formedness_preservation(c, default_state(c), 8)
        assert report.verdict == "pass"


class TestNegativeControls:
    """Each check must be able to fail: feed it something broken."""

    def test_simulation_check_rejects_a_deadlocking_network(self):
        # Not a projection of any choreography: a circular wait.
        n = parse_network("p[0]{ q!1; r?; 0 } | q[0]{ r!1; p?; 0 }"
                          " | r[0]{ p!1; q?; 0 }")
        report = check_sp_asp_simulation(n, 8)
        # There is no synchronous step to simulate, so simulation holds
        # vacuously; the deadlock shows up in the progress check instead.
        assert report.verdict == "pass"
        c = parse_choreography("p.1 -> q; 0")
        sigma = GlobalState.uniform(["p", "q"])
        report = check_deadlock_freedom(c, sigma, 8, "sync")
        assert report.verdict == "pass"

    def test_deadlock_check_fails_on_hand_built_stuck_network(self):
        from chorkit.network import classify
        n = parse_network("p[0]{ q?; 0 } | q[0]{ p?; 0 }")
        assert classify(n, "sync") == "deadlocked"
        assert classify(n, "async") == "deadlocked"

    def test_wf_preservation_fails_on_ill_formed_start(self):
        c = parse_choreography("p.1 -> q; q <~ (p, 2); 0")
        report = check_well_formedness_preservation(
            c, GlobalState.uniform(["p", "q"]), 4)
        assert report.verdict == "fail"
        assert report.counterexample


class TestNetworkMutants:
    """Seeded bugs in the network layer turn ``verify`` red on the default
    corpus at depth 6, and only in the checks named."""

    @staticmethod
    def failing():
        reports = verify_corpus(set(verify.THEOREMS), CorpusSpec(), depth=6)
        return {r.theorem for _, r in reports if r.verdict != "pass"}

    def test_conditional_that_always_continues_as_its_then_branch(
            self, monkeypatch):
        net = parse_network("p[0]{ if false then { q!1; 0 } "
                            "else { q!2; 0 } } | q[0]{ p?; 0 }")

        def simulate():
            return format_trace(run_network(net, "sync",
                                            make_scheduler("leftmost")))

        correct = simulate()
        missing = network.StepTable.__missing__

        def then_only(table, b):
            node, after = missing(table, b)
            if type(node) is BCond:
                table[b] = node, (after[0], after[0])
            return table[b]

        monkeypatch.setattr(network.StepTable, "__missing__", then_only)
        assert self.failing() == {"epp-sync-lockstep", "epp-async-lockstep"}
        # Runs step through the same table as the checks.
        assert "v=2" in correct and "v=1" in simulate()

    def test_table_keyed_without_a_process_behaviour(self, monkeypatch):
        # Networks that differ only in their first process's behaviour
        # then share one entry of moves.  The four checks that step
        # networks catch it, t7 among them.
        net = parse_network("p[0]{ q!1; q!2; 0 } "
                            "| q[0]{ def Y = { p?; Y } in Y }")

        def simulate():
            return format_trace(run_network(net, "sync",
                                            make_scheduler("leftmost"), 5))

        correct = simulate()
        key = network.control_state

        def blind(procs, mode):
            return (*key(procs[1:], mode), *[name for name, _ in procs[:1]])

        monkeypatch.setattr(network, "control_state", blind)
        assert self.failing() == {"deadlock-freedom[async]",
                                  "epp-sync-lockstep", "epp-async-lockstep",
                                  "sp-asp-simulation"}
        assert correct.count("v=1") == 1 and correct.endswith("deadlocked")
        assert simulate().count("v=1") == 5

    def test_queue_that_drops_a_message_behind_another(self, monkeypatch):
        enqueue = Queue.enqueue

        def drop(queue, msg):
            if dict(queue.lanes).get(msg.sender):
                return queue
            return enqueue(queue, msg)

        monkeypatch.setattr(Queue, "enqueue", drop)
        assert self.failing() == {"deadlock-freedom[async]",
                                  "epp-async-lockstep"}


class TestChoreographyMutants:
    """The choreography twin of :class:`TestNetworkMutants`: a seeded bug
    in the table of choreography moves turns ``verify`` red on the default
    corpus at depth 6, and only in the checks named."""

    def test_conditional_that_always_continues_as_its_then_branch(
            self, monkeypatch):
        program = parse_choreography(
            "if p.false then { p.1 -> q; 0 } else { p.2 -> q; 0 }")

        def run():
            return format_trace(run_chor(
                Configuration(program, default_state(program)), "sync",
                make_scheduler("leftmost")))

        correct = run()
        fill = sync._fill

        def then_only(*args):
            return tuple((*m[:5], (m[5][0], m[5][0]), m[6])
                         if m[0] == "Cond" else m for m in fill(*args))

        monkeypatch.setattr(sync, "_fill", then_only)
        assert TestNetworkMutants.failing() == {"epp-sync-lockstep",
                                                "epp-async-lockstep"}
        # Runs step through the same table as the checks.
        assert "v=2" in correct and "v=1" in run()


class TestInertMutants:
    """Seeded bugs in the code shared by definitions, calls and 0 of both
    families turn ``verify`` red on the default corpus at depth 6, and
    only in the checks named."""

    def test_projection_of_a_call_as_0(self, monkeypatch):
        end = project._project_end

        def call_as_0(c, r, memo):
            return (NIL, ()) if type(c) is Call else end(c, r, memo)

        monkeypatch.setattr(project, "_project_end", call_as_0)
        assert TestNetworkMutants.failing() == {"epp-sync-lockstep",
                                                "epp-async-lockstep"}

    def test_gc_that_drops_a_called_definition(self, monkeypatch):
        collect = terms._gc

        def drop_called(t):
            t, free = collect(t)
            if type(t) is Def:  # kept, so its continuation calls it
                return t.cont, free | {t.var}
            return t, free

        monkeypatch.setattr(terms, "_gc", drop_called)
        assert TestNetworkMutants.failing() == {
            "deadlock-freedom[sync]", "deadlock-freedom[async]",
            "epp-sync-lockstep", "epp-async-lockstep", "diamond",
            "abstract-asynchrony"}


class TestSharingMutants:
    """A seeded bug in the intern key, which drops one field, turns
    ``verify`` red at depth 4, and only in the checks named: in a store's
    scope, a node that differs from a stored one only in that field is
    then the stored one."""

    @staticmethod
    def drop_from_key(monkeypatch, cls, field):
        new = cls.__new__
        i = cls.__slots__.index(field)

        def mutant(kind, *args):
            table = terms._table
            key = (field, kind, *args[:i], *args[i + 1:])
            found = None if table is None else table.get(key)
            if found is None:
                found = new(kind, *args)
                if table is not None:
                    table[key] = found
            return found

        monkeypatch.setattr(cls, "__new__", mutant)

    @staticmethod
    def failing(seed):
        reports = verify_corpus(set(verify.THEOREMS), CorpusSpec(seed=seed),
                                depth=4)
        return {r.theorem for _, r in reports if r.verdict != "pass"}

    def test_process_state(self, monkeypatch):
        # Projections and network steps share the stale process alike, so
        # only the locksteps' check of each projection's state sees it.
        self.drop_from_key(monkeypatch, Process, "state")
        assert self.failing(42) == {"epp-sync-lockstep",
                                    "epp-async-lockstep"}

    def test_payload_of_a_receive(self, monkeypatch):
        # Seed 42 never holds two in-flight receives that differ only in
        # their value; seed 102 does.
        self.drop_from_key(monkeypatch, RtRecv, "payload")
        assert self.failing(102) == {"async-equivalence"}


class TestUnknownEquivalence:
    """Network equivalence always decides, so a check's verdict follows
    its answers: a lockstep or a simulation that no equivalent successor
    matches is a failure, never budget-exceeded."""

    def test_exact_equivalence_settles_seed_102(self):
        # prog020 of this corpus matches the projection of a successor
        # with a network step only after more than two unfoldings, which a
        # budgeted equivalence could not settle.
        reports = verify_corpus({"t2", "t8"}, CorpusSpec(seed=102), depth=4)
        bad = [(pid, r.theorem, r.verdict) for pid, r in reports
               if r.verdict != "pass"]
        assert not bad

    @pytest.mark.parametrize("answer, verdict",
                             [(True, "pass"), (False, "fail")])
    def test_lockstep_verdicts(self, monkeypatch, answer, verdict):
        monkeypatch.setattr(verify, "network_equiv",
                            lambda *args: answer)
        c = parse_choreography("p.1 -> q; q.2 -> r; 0")
        sigma = default_state(c)
        assert check_epp_sync(c, sigma, 4).verdict == verdict
        assert verify.check_epp_async(c, sigma, 4).verdict == verdict

    @pytest.mark.parametrize("answer, verdict",
                             [(True, "pass"), (False, "fail")])
    def test_simulation_verdicts(self, monkeypatch, answer, verdict):
        monkeypatch.setattr(verify, "network_equiv",
                            lambda *args: answer)
        n = parse_network("p[0]{ q!1; 0 } | q[0]{ p?; 0 }")
        assert check_sp_asp_simulation(n, 4).verdict == verdict


@pytest.mark.parametrize("value", ["0", "1", "@"])
def test_loop_that_nests_equal_branches(value):
    # p and q run ahead of r, so each of their steps nests one more
    # conditional whose two branches are one shared term.  The checks walk
    # each shared node once, so depth 16 ends in about a second; walked as
    # trees, each level doubled the work.
    program = parse_choreography(
        f"def X = {{ p.{value} -> q; if r.@ < 1 then {{ X }} else {{ X }} }}"
        f" in X")
    sigma, store = default_state(program), SuccessorStore()
    reports = [check(program, sigma, 16, store)
               for check in verify._CHECKS.values()]
    reports.append(check_abstract_asynchrony([program]))
    assert {r.verdict for r in reports} == {"pass"}


def test_drains_stop_where_an_earlier_drain_rejoined(monkeypatch):
    # A drain is deterministic, so a configuration on a successful drain
    # rejoins in a known number of steps; a later drain that meets it
    # stops there.  Forgetting every drain gives the same reports with
    # several times the steps.
    greedy = verify._greedy_join

    def t6(remember):
        calls = [0]

        def drain(cfg, sync_set, budget, store, drained):
            def counted(state, mode):
                calls[0] += 1
                return SuccessorStore.steps(store, state, mode)

            store.steps = counted
            try:
                return greedy(cfg, sync_set, budget, store,
                              drained if remember else {})
            finally:
                del store.steps

        monkeypatch.setattr(verify, "_greedy_join", drain)
        return verify_corpus({"t6"}, CorpusSpec(), depth=12), calls[0]

    remembered, fewer = t6(True)
    forgotten, more = t6(False)
    assert remembered == forgotten
    assert {r.verdict for _, r in remembered} == {"pass"}
    assert 0 < 5 * fewer < more
