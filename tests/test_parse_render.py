"""Concrete syntax: parser, pretty-printer, and their round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorkit import (
    BCall,
    BCond,
    BDef,
    BNIL,
    BRecv,
    BSend,
    BinOp,
    BindError,
    BoolV,
    Call,
    Cell,
    Com,
    Cond,
    Def,
    DupProcessError,
    DupTagError,
    ERR,
    IntV,
    Lit,
    Message,
    NIL,
    Not,
    ParseError,
    Process,
    Queue,
    RtRecv,
    RtSend,
    Tag,
    parse_choreography,
    parse_expr,
    parse_network,
    render,
    render_choreography,
    render_expr,
    render_network,
)


class TestChoreographyParsing:
    def test_communication_chain(self):
        c = parse_choreography("p.1 -> q; q.@ + 1 -> r; 0")
        assert c == Com("p", Lit(IntV(1)), "q",
                        Com("q", BinOp("+", Cell(), Lit(IntV(1))), "r", NIL))

    def test_conditional_with_trailing_continuation(self):
        # The trailing communication is grafted onto both branch ends.
        c = parse_choreography(
            "if p.@ < 2 then { p.1 -> q; 0 } else { p.2 -> q; 0 }; "
            "q.3 -> p; 0")
        assert isinstance(c, Cond)
        assert c.then == Com("p", Lit(IntV(1)), "q",
                             Com("q", Lit(IntV(3)), "p", NIL))
        assert c.orelse.cont == Com("q", Lit(IntV(3)), "p", NIL)

    def test_recursion(self):
        c = parse_choreography("def X = { p.1 -> q; X } in X")
        assert c == Def("X", Com("p", Lit(IntV(1)), "q", Call("X")),
                        Call("X"))

    def test_runtime_terms(self):
        c = parse_choreography("p.1 ~> [#3]; q <~ (p, #3); 0")
        assert c == RtSend("p", Lit(IntV(1)), Tag(3),
                           RtRecv("p", Tag(3), "q", NIL))
        c = parse_choreography("q <~ (p, 7); 0")
        assert c == RtRecv("p", IntV(7), "q", NIL)

    def test_self_communication_rejected(self):
        with pytest.raises(ParseError):
            parse_choreography("p.1 -> p; 0")
        with pytest.raises(ParseError):
            parse_choreography("p <~ (p, 1); 0")

    def test_unbound_recursion_variable_rejected(self):
        with pytest.raises(BindError):
            parse_choreography("X")
        with pytest.raises(BindError):
            parse_choreography("def X = { X } in Y")

    def test_duplicate_tag_rejected(self):
        with pytest.raises(DupTagError):
            parse_choreography("p.1 ~> [#0]; p.2 ~> [#0]; 0")
        with pytest.raises(DupTagError):
            parse_choreography("q <~ (p, #0); r <~ (p, #0); 0")

    def test_long_chain_parses_without_recursion(self):
        c = parse_choreography("p.1 -> q; q.2 -> p; " * 2500 + "0")
        length = 0
        while isinstance(c, Com):
            length += 1
            c = c.cont
        assert length == 5000
        assert c == NIL

    def test_parse_error_carries_location(self):
        with pytest.raises(ParseError) as exc:
            parse_choreography("p.1 ->\n; 0")
        assert exc.value.line == 2

    def test_garbage_rejected(self):
        for text in ["p.1 -> q", "p.1 -> q; 0 extra", "if p then { 0 }",
                     "p..1 -> q; 0", "$"]:
            with pytest.raises(ParseError):
                parse_choreography(text)


class TestNetworkParsing:
    def test_processes_queues_behaviours(self):
        n = parse_network(
            "p[0]{ q!1; r?; 0 } "
            "| q[true]<(p, 2), (r, 3)>{ def X = { p?; X } in X }")
        d = n.as_dict()
        assert d["p"] == Process(IntV(0), Queue.empty(),
                                 BSend("q", Lit(IntV(1)),
                                       BRecv("r", BNIL)))
        assert d["q"].state == BoolV(True)
        assert d["q"].queue == Queue.of([Message("p", IntV(2)),
                                         Message("r", IntV(3))])
        assert d["q"].behaviour == BDef("X", BRecv("p", BCall("X")),
                                        BCall("X"))

    def test_unbound_behaviour_call_rejected(self):
        with pytest.raises(BindError):
            parse_network("p[0]{ q?; X }")

    def test_long_behaviour_parses_without_recursion(self):
        net = parse_network("p[0]{ " + "q!1; r?; " * 2500 + "0 }")
        b, length = net.procs[0][1].behaviour, 0
        while isinstance(b, (BSend, BRecv)):
            length += 1
            b = b.cont
        assert length == 5000
        assert b == BNIL

    def test_empty_network(self):
        assert parse_network("").procs == ()

    def test_duplicate_process_rejected(self):
        with pytest.raises(DupProcessError):
            parse_network("p[0]{ 0 } | p[1]{ 0 }")

    def test_behaviour_forms(self):
        n = parse_network(
            "p[err]{ def X = { if @ < 1 then { q!@; 0 } else { 0 }; X } "
            "in X }")
        b = n.as_dict()["p"].behaviour
        assert isinstance(b, BDef)
        assert isinstance(b.body, BCond)
        assert b.body.cont == BCall("X")
        assert n.as_dict()["p"].state == ERR


# ---------------------------------------------------------------------------
# Hand-written round trips


ROUND_TRIP_CHOREOGRAPHIES = [
    "0",
    "p.1 -> q; 0",
    "p.@ + 2 * 3 -> q; q.not (@ = 4) -> r; 0",
    "p.-7 -> q; 0",
    "if p.@ < 5 then { p.1 -> q; 0 } else { 0 }",
    "def X = { p.1 -> q; X } in p.2 -> q; X",
    "p.1 ~> [#0]; q <~ (p, #0); r <~ (s, err); 0",
]

ROUND_TRIP_NETWORKS = [
    "",
    "p[0]{ 0 }",
    "p[0]{ q!1; 0 } | q[false]<(p, 1)>{ p?; 0 }",
    "p[3]{ def X = { if @ < 2 then { q!@; 0 } else { 0 }; X } in X } "
    "| q[0]{ p?; 0 }",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CHOREOGRAPHIES)
def test_choreography_round_trip(text):
    c = parse_choreography(text)
    assert parse_choreography(render_choreography(c)) == c


@pytest.mark.parametrize("text", ROUND_TRIP_NETWORKS)
def test_network_round_trip(text):
    n = parse_network(text)
    assert parse_network(render_network(n)) == n


# ---------------------------------------------------------------------------
# Property: parse(render(t)) == t for generated ASTs


_NAMES = st.sampled_from(["p", "q", "r", "s"])
_VALUES = st.one_of(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1).map(IntV),
    st.booleans().map(BoolV),
    st.just(ERR),
)
_EXPRS = st.recursive(
    st.one_of(_VALUES.map(Lit), st.just(Cell())),
    lambda sub: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "=", "<",
                                          "and", "or"]), sub, sub),
        st.builds(Not, sub),
    ),
    max_leaves=6,
)


def _chor_strategy(bound=(), depth=3):
    """Closed choreographies: calls only under their definitions, no
    self-communication; tags drawn fresh from a shared counter."""
    leaves = [st.just(NIL)]
    if bound:
        leaves.append(st.sampled_from([Call(v) for v in bound]))
    leaf = st.one_of(leaves)
    if depth == 0:
        return leaf
    sub = _chor_strategy(bound, depth - 1)

    def com(src, dst, e, cont):
        return Com(src, e, dst, cont)

    pairs = st.tuples(_NAMES, _NAMES).filter(lambda t: t[0] != t[1])
    var = f"V{depth}"  # unique per nesting level, so calls stay bound
    return st.one_of(
        leaf,
        st.builds(lambda pq, e, k: Com(pq[0], e, pq[1], k),
                  pairs, _EXPRS, sub),
        st.builds(lambda pq, v, k: RtRecv(pq[0], v, pq[1], k),
                  pairs, _VALUES, sub),
        st.builds(lambda d, e, a, b: Cond(d, e, a, b),
                  _NAMES, _EXPRS, sub, sub),
        st.builds(lambda body, k: Def(var, body, k),
                  _chor_strategy(bound + (var,), depth - 1),
                  _chor_strategy(bound + (var,), depth - 1)),
    )


def _behaviour_strategy(bound=(), depth=3):
    leaves = [st.just(BNIL)]
    if bound:
        leaves.append(st.sampled_from([BCall(v) for v in bound]))
    leaf = st.one_of(leaves)
    if depth == 0:
        return leaf
    sub = _behaviour_strategy(bound, depth - 1)
    var = f"V{depth}"
    return st.one_of(
        leaf,
        st.builds(BSend, _NAMES, _EXPRS, sub),
        st.builds(BRecv, _NAMES, sub),
        st.builds(BCond, _EXPRS, sub, sub, sub),
        st.builds(lambda body, k: BDef(var, body, k),
                  _behaviour_strategy(bound + (var,), depth - 1),
                  _behaviour_strategy(bound + (var,), depth - 1)),
    )


@given(_EXPRS)
@settings(max_examples=200)
def test_expr_round_trip_property(e):
    assert parse_expr(render_expr(e)) == e


@given(_chor_strategy())
@settings(max_examples=200)
def test_choreography_round_trip_property(c):
    # Generated terms contain no tag-payload receives, so tag linearity
    # holds by construction.
    assert parse_choreography(render_choreography(c)) == c


@given(st.dictionaries(_NAMES, st.tuples(
    _VALUES,
    st.lists(st.tuples(_NAMES, _VALUES), max_size=3),
    _behaviour_strategy()), min_size=0, max_size=3))
@settings(max_examples=200)
def test_network_round_trip_property(procs):
    from chorkit import Network
    n = Network.of({
        name: Process(state, Queue.of(Message(s, v) for s, v in msgs), b)
        for name, (state, msgs, b) in procs.items()})
    parsed = parse_network(render_network(n))
    # Queues compare as lane decompositions: the rendering flattens lanes
    # in canonical order, so the parse rebuilds the identical Queue.
    assert parsed == n


def test_render_dispatches_on_term_kind():
    assert render(NIL) == "0"
    assert render(BNIL) == "0"
    assert render(parse_network("p[0]{ 0 }")) == "p[0]{ 0 }"
