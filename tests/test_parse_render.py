"""Concrete syntax: parser, pretty-printer, and their round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import shallow
from chorkit import (
    BCond,
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

    def test_shadowing_definition_rejected(self):
        # Distinct binders: the engines look a call up where it occurs, so
        # an inner Y would capture the call that X's body makes.
        with pytest.raises(BindError, match="shadowed recursion variable Y"):
            parse_choreography("def Y = { p.1 -> a; 0 } in def X = { Y } in "
                               "def Y = { p.2 -> b; 0 } in q.3 -> r; X")
        with pytest.raises(BindError):
            parse_choreography("def X = { p.1 -> q; def X = { X } in X } in X")
        # Definitions in separate scopes may share a name.
        parse_choreography("if p.true then { def X = { p.1 -> q; X } in X }"
                           " else { def X = { p.2 -> q; X } in X }")

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

    def test_integers_in_the_64_bit_range(self):
        c = parse_choreography("p.9223372036854775807 -> q; "
                               "q.-9223372036854775808 -> p; "
                               "p.1 ~> [#9223372036854775807]; "
                               "q <~ (p, #9223372036854775807); 0")
        assert c.expr == Lit(IntV(2**63 - 1))
        assert c.cont.expr == Lit(IntV(-2**63))
        assert c.cont.cont.tag == Tag(2**63 - 1)
        assert parse_expr("000000000000000000000007") == Lit(IntV(7))

    @pytest.mark.parametrize("text", [
        "p.9223372036854775808 -> q; 0",
        "p.-9223372036854775809 -> q; 0",
        "p.99999999999999999999999 -> q; 0",
        "p." + "9" * 5000 + " -> q; 0",
        "p.1 ~> [#9223372036854775808]; 0",
        "q <~ (p, #" + "1" * 5000 + "); 0",
    ], ids=["max+1", "min-1", "23-digits", "5000-digits", "tag-max+1",
            "tag-5000-digits"])
    def test_integers_outside_the_64_bit_range_rejected(self, text):
        with pytest.raises(ParseError) as exc:
            parse_choreography(text)
        assert exc.value.message == "integer outside the 64-bit range"

    def test_state_outside_the_64_bit_range_rejected(self):
        for state in ("9223372036854775808", "-" + "9" * 5000):
            with pytest.raises(ParseError):
                parse_network(f"p[{state}]{{ 0 }}")

    def test_garbage_rejected(self):
        for text in ["p.1 -> q", "p.1 -> q; 0 extra", "if p then { 0 }",
                     "p..1 -> q; 0", "$"]:
            with pytest.raises(ParseError):
                parse_choreography(text)


# One input per error path of the parser, with the message, line and column
# it must report.  ``expr`` inputs go through parse_expr, ``net`` inputs
# through parse_network and the rest through parse_choreography.
PARSE_ERRORS = [
    ("chor", "p.1 -> q; $", "unexpected character '$'", 1, 11),
    ("chor", "p.1 -> q;\n  q.2 -> p;\n\ufffd 0",
     "unexpected character '\ufffd'", 3, 1),
    ("chor", "p.1 -> q", "expected ';', found 'end of input'", 1, 9),
    ("chor", "0 extra", "expected 'eof', found 'extra'", 1, 3),
    ("chor", "if p then { 0 }", "expected '.', found 'then'", 1, 6),
    ("chor", "def X = { p.1 -> q; X } X", "expected 'in', found 'X'", 1, 25),
    ("chor", "if p.true then { 0 } { 0 }", "expected 'else', found '{'",
     1, 22),
    ("net", "p[0]<(q, 1) { 0 }", "expected '>', found '{'", 1, 13),
    ("expr", "(1 + 2", "expected ')', found 'end of input'", 1, 7),
    ("net", "p[x]{ 0 }", "expected a value, found 'x'", 1, 3),
    ("chor", "q <~ (p, x); 0", "expected a value, found 'x'", 1, 10),
    ("chor", "q <~ (p, ", "expected a value, found 'end of input'", 1,
     10),
    ("chor", "p. -> q; 0", "expected an expression, found '->'", 1, 4),
    ("expr", "1 +", "expected an expression, found 'end of input'", 1, 4),
    ("expr", "not", "expected an expression, found 'end of input'", 1, 4),
    ("chor", "p.1 <~ q; 0", "expected '->' or '~>', found '<~'", 1, 5),
    ("chor", "p.1 q; 0", "expected '->' or '~>', found 'q'", 1, 5),
    ("chor", "p.1 -> p; 0", "process 'p' cannot communicate with itself",
     1, 1),
    ("chor", "r.1 -> s;\n   p <~ (p, 1); 0",
     "process 'p' cannot receive from itself", 2, 4),
    ("chor", "p.9223372036854775808 -> q; 0",
     "integer outside the 64-bit range", 1, 3),
    ("net", "p[-9223372036854775809]{ 0 }",
     "integer outside the 64-bit range", 1, 4),
    ("chor", "p.1 ~> [#9223372036854775808]; 0",
     "integer outside the 64-bit range", 1, 9),
    ("chor", "p.1 -> q; 5", "a choreography term cannot start with an integer",
     1, 11),
    ("net", "p[0]{ q!1; 7 }", "a behaviour term cannot start with an integer",
     1, 12),
    ("chor", "p.1 -> q;", "expected a choreography term, found 'end of input'",
     1, 10),
    ("chor", "if p.true then { } else { 0 }",
     "expected a choreography term, found '}'", 1, 18),
    ("net", "p[0]{ }", "expected a behaviour term, found '}'", 1, 7),
]


@pytest.mark.parametrize("family, text, message, line, col", PARSE_ERRORS)
def test_parse_error_paths(family, text, message, line, col):
    parse = {"chor": parse_choreography, "net": parse_network,
             "expr": parse_expr}[family]
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert type(exc.value) is ParseError
    assert (exc.value.message, exc.value.line, exc.value.col) == \
        (message, line, col)
    assert str(exc.value) == f"{line}:{col}: {message}"


def test_duplicate_process_error_names_its_place():
    with pytest.raises(DupProcessError) as exc:
        parse_network("p[0]{ 0 } |\n  q[1]{ 0 } | p[2]{ 0 }")
    assert str(exc.value) == "process 'p' defined twice (line 2, column 15)"


class TestNetworkParsing:
    def test_processes_queues_behaviours(self):
        n = parse_network(
            "p[0]{ q!1; r?; 0 } "
            "| q[true]<(p, 2), (r, 3)>{ def X = { p?; X } in X }")
        d = n.as_dict()
        assert d["p"] == Process(IntV(0), Queue.empty(),
                                 BSend("q", Lit(IntV(1)),
                                       BRecv("r", NIL)))
        assert d["q"].state == BoolV(True)
        assert d["q"].queue == Queue.of([Message("p", IntV(2)),
                                         Message("r", IntV(3))])
        assert d["q"].behaviour == Def("X", BRecv("p", Call("X")),
                                       Call("X"))

    def test_unbound_behaviour_call_rejected(self):
        with pytest.raises(BindError):
            parse_network("p[0]{ q?; X }")
        with pytest.raises(BindError):
            parse_network("p[0]{ def X = { q!1; def X = { q!2; X } in X } "
                          "in X }")

    def test_long_behaviour_parses_without_recursion(self):
        net = parse_network("p[0]{ " + "q!1; r?; " * 2500 + "0 }")
        b, length = net.procs[0][1].behaviour, 0
        while isinstance(b, (BSend, BRecv)):
            length += 1
            b = b.cont
        assert length == 5000
        assert b == NIL

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
        assert isinstance(b, Def)
        assert isinstance(b.body, BCond)
        assert b.body.cont == Call("X")
        assert n.as_dict()["p"].state == ERR


class TestNesting:
    """Blocks nest to any depth at the default recursion limit.  The
    10,000-level programs have no trailing continuation after a
    conditional: grafting one is cubic in the nesting depth, as
    ``terms.seq`` walks again every continuation already grafted below
    it (about 0.6 s at depth 100 and 13 s at depth 300)."""

    DEPTH = 10_000

    @staticmethod
    def depth(t, kind, field):
        """How many ``kind`` nodes lie along ``field`` from ``t``, and the
        term below them."""
        n = 0
        while type(t) is kind:
            t, n = getattr(t, field), n + 1
        return n, t

    def test_conditionals_nested_in_then(self):
        n = self.DEPTH
        c = shallow(parse_choreography, "if p.true then { " * n +
                    "p.1 -> q; 0" + " } else { 0 }" * n)
        assert self.depth(c, Cond, "then") == \
            (n, Com("p", Lit(IntV(1)), "q", NIL))

    def test_conditionals_nested_in_else(self):
        n = self.DEPTH
        c = shallow(parse_choreography, "if p.true then { 0 } else { " * n +
                    "p.1 -> q; 0" + " }" * n)
        assert self.depth(c, Cond, "orelse") == \
            (n, Com("p", Lit(IntV(1)), "q", NIL))

    def test_definitions_nested_in_bodies(self):
        n = self.DEPTH
        c = shallow(parse_choreography,
                    "".join(f"def X{i} = {{ " for i in range(n)) + "X0" +
                    "".join(f" }} in X{i}" for i in reversed(range(n))))
        assert self.depth(c, Def, "body") == (n, Call("X0"))
        assert c.var == "X0" and c.cont == Call("X0")

    def test_behaviour_conditionals_nested_in_a_network(self):
        n = self.DEPTH
        net = shallow(parse_network, "p[0]{ " + "if @ < 1 then { " * n +
                      "q!1; 0" + " } else { 0 }" * n + " } | q[0]{ p?; 0 }")
        assert self.depth(net.procs[0][1].behaviour, BCond, "then") == \
            (n, BSend("q", Lit(IntV(1)), NIL))

    def test_trailing_continuations_are_grafted_at_every_level(self):
        # Each level's continuation goes onto every leaf below it, so the
        # else branch of level k (from 1, outermost) ends in k copies of
        # it and the innermost then branch in all of them.
        n = 100
        c = shallow(parse_choreography, "if p.(@ < 1) then { " * n +
                    "p.1 -> q; 0" +
                    " } else { p.1 -> q; 0 }; q.2 -> p; 0" * n)
        for k in range(1, n + 1):
            assert type(c) is Cond
            count, end = self.depth(c.orelse.cont, Com, "cont")
            assert (count, end) == (k, NIL)
            c = c.then
        assert c.expr == Lit(IntV(1)) and c.cont.expr == Lit(IntV(2))
        assert self.depth(c.cont, Com, "cont") == (n, NIL)


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
    leaves = [st.just(NIL)]
    if bound:
        leaves.append(st.sampled_from([Call(v) for v in bound]))
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
        st.builds(lambda body, k: Def(var, body, k),
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
    assert render(parse_network("p[0]{ 0 }")) == "p[0]{ 0 }"
