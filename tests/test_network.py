"""Process networks: rendezvous and queue-based semantics, queues as
per-sender lanes, classification of stuck states, and the table of moves
a network run reads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chorkit.network as network
from chorkit import (
    BoolV,
    IntV,
    Message,
    NonEmptyQueue,
    Queue,
    classify,
    enabled_asp,
    enabled_sp,
    epp_sync,
    format_trace,
    make_scheduler,
    normalize_network,
    parse_choreography,
    parse_network,
    render_network,
    run_network,
)
from chorkit.terms import Term
from chorkit.verify import default_state


def net(text):
    return parse_network(text)


def sigs(steps):
    return sorted((l.rule, l.subjects) for l, _ in steps)


class TestQueueLanes:
    @given(st.lists(st.tuples(st.sampled_from("pqrs"), st.integers(0, 3))))
    @settings(max_examples=200, deadline=None)
    def test_of_is_the_enqueue_fold(self, pairs):
        messages = [Message(s, IntV(v)) for s, v in pairs]
        q = Queue.empty()
        for m in messages:
            q = q.enqueue(m)
        assert Queue.of(messages) == q and Queue.of(iter(messages)) == q

    def test_same_sender_is_fifo(self):
        q = Queue.of([Message("p", IntV(1)), Message("p", IntV(2))])
        v, rest = q.dequeue_from("p")
        assert v == IntV(1)
        assert rest.dequeue_from("p")[0] == IntV(2)

    def test_distinct_senders_commute(self):
        a = Queue.of([Message("p", IntV(1)), Message("q", IntV(2))])
        b = Queue.of([Message("q", IntV(2)), Message("p", IntV(1))])
        assert a == b  # lane form is canonical: congruent queues are equal
        assert hash(a) == hash(b)

    def test_same_sender_order_is_observable(self):
        a = Queue.of([Message("p", IntV(1)), Message("p", IntV(2))])
        b = Queue.of([Message("p", IntV(2)), Message("p", IntV(1))])
        assert a != b

    def test_missing_lane_blocks(self):
        q = Queue.of([Message("p", IntV(1))])
        assert q.dequeue_from("q") is None
        assert q.dequeue_from("p")[1].dequeue_from("p") is None


class TestSynchronousNetwork:
    def test_rendezvous(self):
        n = net("p[0]{ q!7; 0 } | q[0]{ p?; 0 }")
        [(label, succ)] = enabled_sp(n)
        assert (label.rule, label.subjects) == ("Com", ("p", "q"))
        assert label.value == IntV(7)
        assert classify(succ, "sync") == "terminated"

    def test_send_without_matching_receive_blocks(self):
        n = net("p[0]{ q!7; 0 } | q[0]{ r?; 0 } | r[0]{ 0 }")
        assert enabled_sp(n) == []
        assert classify(n, "sync") == "deadlocked"

    def test_conditional_step(self):
        n = net("p[3]{ if @ < 5 then { q!1; 0 } else { q!2; 0 } }"
                " | q[0]{ p?; 0 }")
        [(label, succ)] = enabled_sp(n)
        assert label.rule == "Then"
        [(label2, _)] = enabled_sp(succ)
        assert label2.value == IntV(1)

    def test_queued_network_rejected_in_sync_mode(self):
        n = net("p[0]<(q, 1)>{ q?; 0 } | q[0]{ 0 }")
        with pytest.raises(NonEmptyQueue):
            enabled_sp(n)


class TestAsynchronousNetwork:
    def test_send_is_non_blocking(self):
        n = net("p[0]{ q!7; r!8; 0 } | q[0]{ r?; p?; 0 } | r[0]{ q!9; 0 }")
        assert ("ComS", ("p", "q")) in sigs(enabled_asp(n))

    def test_receive_needs_the_lane(self):
        n = net("p[0]<(q, 5)>{ q?; r?; 0 } | r[0]{ 0 }")
        steps = enabled_asp(n)
        assert sigs(steps) == [("ComR", ("q", "p"))]
        succ = steps[0][1]
        assert succ.as_dict()["p"].state == IntV(5)
        assert classify(succ, "async") == "deadlocked"

    def test_cross_lane_overtaking_same_lane_fifo(self):
        n = net("p[0]{ q!1; q!2; 0 } | q[0]{ 0 }")
        # drive both sends
        n = enabled_asp(n)[0][1]
        n = [s for l, s in enabled_asp(n) if l.rule == "ComS"][0]
        qproc = n.as_dict()["q"]
        assert qproc.queue.messages() == [Message("p", IntV(1)),
                                          Message("p", IntV(2))]

    def test_a_send_to_itself_moves_on(self):
        n = net("p[0]{ p!1; p?; 0 }")
        assert classify(n, "sync") == "deadlocked"
        [(label, n)] = enabled_asp(n)
        assert label.rule == "ComS"
        assert render_network(n) == "p[0]<(p, 1)>{ p?; 0 }"
        [(label, n)] = enabled_asp(n)
        assert label.rule == "ComR" and n.is_empty()

    def test_orphaned_messages_detected(self):
        n = net("p[0]<(q, 1)>{ 0 } | q[0]{ 0 }")
        assert classify(n, "async") == "orphaned-messages"


class TestNormalization:
    def test_done_unreferenced_process_dropped(self):
        n = net("p[0]{ 0 } | q[0]{ r!1; 0 } | r[0]{ q?; 0 }")
        assert normalize_network(n).names() == ["q", "r"]

    def test_done_but_referenced_process_kept(self):
        # q still wants to send to p; dropping p would block that send.
        n = net("p[0]{ 0 } | q[0]{ p!1; 0 }")
        assert normalize_network(n).names() == ["p", "q"]

    def test_idle_loop_collected(self):
        n = net("p[0]{ def X = { X } in X }")
        norm = normalize_network(n)
        assert norm.is_empty()
        assert classify(n, "async") == "terminated"

    def test_idle_loop_through_an_uncalled_definition_collected(self):
        # X calls itself before Y's send can run.
        n = net("p[0]{ def X = { def Y = { q!1; X } in X } in X }")
        assert normalize_network(n).is_empty()
        assert classify(n, "sync") == classify(n, "async") == "terminated"

    def test_recursive_behaviour_steps_repeatedly(self):
        n = net("p[0]{ def X = { q!1; X } in X } "
                "| q[0]{ def Y = { p?; Y } in Y }")
        for _ in range(4):
            steps = enabled_asp(n)
            assert steps, render_network(n)
            n = steps[0][1]
        assert classify(n, "async") == "running"


def test_classification_values():
    assert classify(net(""), "sync") == "terminated"
    assert classify(net("p[0]{ 0 }"), "async") == "terminated"
    running = net("p[0]{ q!1; 0 } | q[0]{ p?; 0 }")
    assert classify(running, "sync") == "running"
    assert classify(running, "async") == "running"


class TestControlTable:
    """A network run reads each step's moves from one table, keyed on the
    control state: the processes' names and behaviours."""

    RING = "def X = { p.@ + 1 -> q; q.@ * 2 -> r; r.@ - 3 -> p; X } in X"

    @staticmethod
    def simulate(mode):
        program = parse_choreography(TestControlTable.RING)
        net = epp_sync(program, default_state(program))
        trace = run_network(net, mode, make_scheduler("leftmost"), 1000)
        format_trace(trace)
        assert len(trace.steps) == 1000
        return trace

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_a_ring_fills_few_entries(self, mode, monkeypatch):
        fills = []
        fill = network._fill

        def counted(*args):
            fills.append(args)
            return fill(*args)

        monkeypatch.setattr(network, "_fill", counted)
        self.simulate(mode)
        assert len(fills) <= 10

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_a_ring_compares_few_terms(self, mode, monkeypatch):
        # A loop that comes back to an equal behaviour comes back to the
        # object the table keeps, so lookups hit by identity.
        calls, depth = [0], [0]

        def counting(eq):
            def counted(a, b):
                calls[0] += depth[0] == 0
                depth[0] += 1
                try:
                    return eq(a, b)
                finally:
                    depth[0] -= 1
            return counted

        for cls in Term.__subclasses__():
            monkeypatch.setattr(cls, "__eq__", counting(cls.__eq__))
        self.simulate(mode)
        monkeypatch.undo()
        assert calls[0] <= 50
