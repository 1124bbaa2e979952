"""Decision procedures for structural precongruence and network
equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bounded_behaviour_equiv, closure_min, rewrite_closure

from chorkit import (
    BCall,
    BDef,
    BSend,
    GlobalState,
    IntV,
    Lit,
    behaviour_equiv,
    canonical,
    chor_equiv,
    epp_sync,
    network_equiv,
    normalize_network,
    parse_choreography,
    parse_network,
    pn,
    precongruent,
    render_choreography,
)
from chorkit import congruence
from chorkit.terms import rewrite_first
from chorkit.verify import CorpusSpec, verify_corpus


def chor(text):
    return parse_choreography(text)


def beh(text):
    return parse_network(f"z[0]{{ {text} }}").as_dict()["z"].behaviour


class TestChoreographyEquivalence:
    def test_disjoint_actions_commute(self):
        assert chor_equiv(chor("p.1 -> q; r.2 -> s; 0"),
                          chor("r.2 -> s; p.1 -> q; 0")) is True

    def test_shared_name_blocks_the_swap(self):
        assert chor_equiv(chor("p.1 -> q; q.2 -> r; 0"),
                          chor("q.2 -> r; p.1 -> q; 0")) is False

    def test_common_branch_head_hoists(self):
        a = chor("if p.true then { q.1 -> r; p.2 -> q; 0 }"
                 " else { q.1 -> r; p.3 -> q; 0 }")
        b = chor("q.1 -> r; "
                 "if p.true then { p.2 -> q; 0 } else { p.3 -> q; 0 }")
        assert chor_equiv(a, b) is True

    def test_an_action_below_the_branch_heads_hoists(self):
        a = chor("if p.true then { q.1 -> r; s.1 -> t; 0 }"
                 " else { q.2 -> r; s.1 -> t; 0 }")
        b = chor("s.1 -> t; "
                 "if p.true then { q.1 -> r; 0 } else { q.2 -> r; 0 }")
        assert chor_equiv(a, b) is True
        assert canonical(a) == canonical(b)

    def test_garbage_collection_is_free(self):
        assert chor_equiv(chor("def X = { p.1 -> q; X } in 0"),
                          chor("0")) is True

    def test_unfolding_needs_budget(self):
        a = chor("def X = { p.1 -> q; X } in X")
        b = chor("def X = { p.1 -> q; X } in p.1 -> q; X")
        assert precongruent(a, b, unfold_budget=0) is None  # unknown
        assert precongruent(a, b, unfold_budget=1) is True

    def test_canonical_is_idempotent_and_sorts(self):
        c = chor("r.2 -> s; p.1 -> q; 0")
        k = canonical(c)
        assert canonical(k) == k
        assert render_choreography(k) == "p.1 -> q; r.2 -> s; 0"

    def test_canonical_sorts_a_long_block(self):
        # 150 independent communications in reverse order take 11,175
        # swaps to sort, more than any fixed cap on rewrite rounds.
        names = [f"{i:03}" for i in range(150)]
        c = chor("".join(f"a{n}.1 -> b{n}; " for n in reversed(names))
                 + "0")
        k = canonical(c)
        assert rewrite_first(k, congruence._canon_here) is None
        assert render_choreography(k) == "".join(
            f"a{n}.1 -> b{n}; " for n in names) + "0"

    def test_a_move_over_several_actions_commutes(self):
        # Each chain is sorted pair by adjacent pair, so only sorting the
        # chain as a whole identifies them.
        a = chor("c.1 -> e; a.1 -> c; b.1 -> d; 0")
        b = chor("b.1 -> d; c.1 -> e; a.1 -> c; 0")
        assert precongruent(a, b) is True
        assert precongruent(b, a) is True


# Communications (sender, receiver, value) over six processes: a move
# over two dependent actions needs five.
_COMS = st.tuples(st.sampled_from("pqrstu"), st.sampled_from("pqrstu"),
                  st.integers(0, 1)).filter(lambda c: c[0] != c[1])


def _chain(coms):
    return chor("".join(f"{s}.{v} -> {d}; " for s, d, v in coms) + "0")


@given(st.lists(_COMS, max_size=8), st.lists(st.integers(0, 7), max_size=12))
@settings(max_examples=200, deadline=None)
def test_independent_swaps_keep_the_canonical_form(coms, swaps):
    moved = list(coms)
    for i in swaps:
        pair = moved[i:i + 2]
        if len(pair) == 2 and not set(pair[0][:2]) & set(pair[1][:2]):
            moved[i], moved[i + 1] = pair[1], pair[0]
    assert canonical(_chain(coms)) == canonical(_chain(moved))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_canonical_forms_agree_with_the_swap_closure(data):
    coms = data.draw(st.lists(_COMS, max_size=6))
    a, b = _chain(coms), _chain(data.draw(st.permutations(coms)))
    assert (canonical(a) == canonical(b)) == \
        (closure_min(a) == closure_min(b))


def _text(coms):
    return "".join(f"{s}.{v} -> {d}; " for s, d, v in coms)


def _branch(data, shared):
    """The ``shared`` communications and up to two others, in any
    order."""
    coms = list(shared) + data.draw(st.lists(_COMS, max_size=2))
    return data.draw(st.permutations(coms))


def _one_conditional(data):
    shared = data.draw(st.lists(_COMS, max_size=2))
    return chor(_text(data.draw(st.lists(_COMS, max_size=2)))
                + f"if {data.draw(st.sampled_from('pqrstu'))}.true "
                f"then {{ {_text(_branch(data, shared))}0 }} "
                f"else {{ {_text(_branch(data, shared))}0 }}")


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_canonical_forms_of_one_conditional_agree_with_the_closure(data):
    a = _one_conditional(data)
    if data.draw(st.booleans()):
        b = _one_conditional(data)
    else:
        b = data.draw(st.sampled_from(rewrite_closure(a, unfold=False)))
    assert (canonical(a) == canonical(b)) == \
        (closure_min(a) == closure_min(b))


_LOOP = "def X = { if @ < 3 then { q!1; X } else { q!2; X } } in X"


class TestBehaviourEquivalence:
    # Equality of the regular trees the behaviours unfold to.  No bounded
    # search for a common unfolding settles the first five pairs.
    @pytest.mark.parametrize("left, right, equal", [
        ("def X = { q!1; X } in X",
         "q!1; q!1; q!1; def X = { q!1; X } in X", True),
        ("def X = { q!1; q!2; X } in X",
         "def X = { q!2; q!1; X } in q!1; X", True),
        ("def X = { q!1; X } in X", "def X = { q!1; q!2; X } in X", False),
        ("def X = { def Y = { a!1; Y } in b!1; X } in X",
         "def X = { b!1; X } in X", True),
        (_LOOP, f"if @ < 3 then {{ q!1; {_LOOP} }} "
                f"else {{ q!2; {_LOOP} }}", True),
        ("def X = { r?; X } in r?; X", "def X = { r?; X } in X", True),
        ("def X = { X } in q!1; X", "q!1; 0", True),
    ])
    def test_exact(self, left, right, equal):
        assert behaviour_equiv(beh(left), beh(right)) is equal
        assert behaviour_equiv(beh(right), beh(left)) is equal

    def test_shadowed_definition_is_lexical(self):
        # The parser rejects shadowing, so the terms are built directly:
        # def X = { q!1; def X = { q!2; X } in X } in X.
        def send(n, cont):
            return BSend("q", Lit(IntV(n)), cont)
        inner = BDef("X", send(2, BCall("X")), BCall("X"))
        outer = BDef("X", send(1, inner), BCall("X"))
        assert behaviour_equiv(outer, send(1, inner)) is True
        assert behaviour_equiv(outer, BDef("X", send(1, BCall("X")),
                                           BCall("X"))) is False

    def test_plainly_different(self):
        assert behaviour_equiv(beh("q!1; 0"), beh("q!2; 0")) is False

    def test_free_calls_are_leaves(self):
        def send(var):
            return BSend("q", Lit(IntV(1)), BCall(var))
        assert behaviour_equiv(send("X"), send("X")) is True
        assert behaviour_equiv(send("X"), send("Y")) is False

    def test_agrees_with_the_bounded_reference(self, monkeypatch):
        # Every question the checks ask: a common unfolding implies equal
        # trees, and with no definition left equality is plain equality.
        asked = []
        exact = congruence.behaviour_equiv

        def recording(b1, b2):
            verdict = exact(b1, b2)
            asked.append((b1, b2, verdict))
            return verdict
        monkeypatch.setattr(congruence, "behaviour_equiv", recording)
        for seed, depth in ((42, 12), (102, 4)):
            verify_corpus({"t2", "t7", "t8"}, CorpusSpec(seed=seed), depth)
        unsettled = 0
        for b1, b2, verdict in set(asked):
            reference = bounded_behaviour_equiv(b1, b2, 2)
            if reference is None:
                unsettled += 1
                reference = bounded_behaviour_equiv(b1, b2, 4)
            assert verdict is reference or (
                reference is None and isinstance(verdict, bool))
        assert len(asked) > 800 and unsettled


class TestNetworkEquivalence:
    def test_done_processes_are_invisible(self):
        a = parse_network("p[0]{ 0 } | q[1]{ r!1; 0 } | r[0]{ q?; 0 }")
        b = parse_network("q[1]{ r!1; 0 } | r[0]{ q?; 0 }")
        assert network_equiv(a, b) is True

    def test_unnormalized_networks(self):
        # A process is done when its behaviour reaches 0 before any action,
        # collected or not.
        a = parse_network("p[0]{ def X = { X } in X }"
                          " | q[1]{ def Y = { r!2; Y } in r!1; 0 }"
                          " | r[0]{ q?; 0 }")
        b = parse_network("q[1]{ r!1; 0 } | r[0]{ q?; 0 }")
        assert network_equiv(a, b) is True
        assert network_equiv(a, normalize_network(a)) is True
        c = parse_network("p[0]{ def X = { q!1; X } in X } | q[0]{ 0 }")
        assert network_equiv(c, normalize_network(c)) is True
        assert network_equiv(c, parse_network("q[0]{ 0 }")) is False

    def test_states_matter(self):
        a = parse_network("p[0]{ q!1; 0 } | q[0]{ p?; 0 }")
        b = parse_network("p[1]{ q!1; 0 } | q[0]{ p?; 0 }")
        assert network_equiv(a, b) is False

    def test_queues_matter(self):
        a = parse_network("p[0]<(q, 1)>{ q?; 0 }")
        b = parse_network("p[0]{ q?; 0 }")
        assert network_equiv(a, b) is False

    def test_queue_congruence_is_free(self):
        a = parse_network("p[0]<(q, 1), (r, 2)>{ q?; r?; 0 }")
        b = parse_network("p[0]<(r, 2), (q, 1)>{ q?; r?; 0 }")
        assert network_equiv(a, b) is True

    def test_projection_of_equivalent_choreographies_equivalent(self):
        a = chor("p.1 -> q; r.2 -> s; 0")
        b = chor("r.2 -> s; p.1 -> q; 0")
        sigma = GlobalState.uniform(sorted(pn(a)))
        assert network_equiv(epp_sync(a, sigma), epp_sync(b, sigma)) is True
