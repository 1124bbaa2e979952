"""The traversal table in ``chorkit.terms``: it lists every constructor
with subterms, names exactly their trailing fields, and its primitives give
back the very node when nothing changes.  Terms hash and compare along
their chains in a loop, and one names scan serves both term families."""

import dataclasses
import sys

import pytest

from chorkit import (
    BCall,
    BCond,
    BDef,
    BNIL,
    BNil,
    BRecv,
    BSend,
    Call,
    Com,
    Cond,
    Configuration,
    Def,
    Hole,
    NIL,
    Nil,
    RtRecv,
    RtSend,
    IntV,
    Lit,
    TagSupply,
    epp_sync,
    harvest_contexts,
    parse_network,
    pn,
    unfold_com,
)
from chorkit.terms import (
    SUBTERMS,
    kids,
    rebuild,
    replace_cont,
    subterms,
    transform,
)
from chorkit.verify import (
    CorpusSpec,
    default_state,
    explore_chor,
    generate_corpus,
)

CHOREOGRAPHY = (Com, Cond, Def, Call, Nil, RtSend, RtRecv, Hole)
BEHAVIOUR = (BSend, BRecv, BCond, BDef, BCall, BNil)


def subterm_fields(cls):
    """The fields annotated as a choreography or a behaviour."""
    return tuple(f.name for f in dataclasses.fields(cls)
                 if f.type.strip("'\"") in ("Chor", "Behaviour"))


@pytest.mark.parametrize("cls", CHOREOGRAPHY + BEHAVIOUR)
def test_table_lists_exactly_the_subterm_fields(cls):
    fields = subterm_fields(cls)
    if fields:
        assert SUBTERMS[cls] == fields
    else:
        assert cls not in SUBTERMS


@pytest.mark.parametrize("cls", sorted(SUBTERMS, key=lambda c: c.__name__))
def test_subterm_fields_are_trailing(cls):
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert names[-len(SUBTERMS[cls]):] == SUBTERMS[cls]


def corpus_terms():
    """Every choreography of the seed-42 corpus, the configurations it
    reaches in three asynchronous steps and its first communication
    unfolded (runtime terms), the contexts harvested from it (holes) and
    every behaviour of its projections."""
    terms = []
    for program in generate_corpus(CorpusSpec(seed=42)):
        sigma = default_state(program)
        if isinstance(program, Com):
            terms.append(unfold_com(program, (), TagSupply()))
        configs, _ = explore_chor(Configuration(program, sigma), "async", 3)
        terms.extend(cfg.chor for cfg in configs)
        terms.extend(ctx for ctx, _ in harvest_contexts(program))
        terms.extend(p.behaviour for _, p in epp_sync(program, sigma).procs)
    return terms


@pytest.fixture(scope="module")
def corpus():
    return corpus_terms()


def test_corpus_covers_every_constructor(corpus):
    seen = {type(node) for t in corpus for node in subterms(t)}
    assert seen == set(CHOREOGRAPHY + BEHAVIOUR)


def test_unchanged_subterms_give_back_the_node(corpus):
    for t in corpus:
        assert transform(t, lambda n: n) is t
        for node in subterms(t):
            assert rebuild(node, kids(node)) is node
            if type(node) in SUBTERMS and SUBTERMS[type(node)][-1] == "cont":
                assert replace_cont(node, node.cont) is node


def test_new_subterms_replace_the_old_ones(corpus):
    for t in corpus:
        for node in subterms(t):
            names = SUBTERMS.get(type(node), ())
            if not names:
                continue
            nil = BNIL if type(node) in BEHAVIOUR else NIL
            new = tuple(Call("Z") if k == nil else nil for k in kids(node))
            want = dataclasses.replace(node, **dict(zip(names, new)))
            assert rebuild(node, new) == want
            if names[-1] == "cont":
                assert replace_cont(node, new[-1]) == \
                    dataclasses.replace(node, cont=new[-1])


def _chain(n, last):
    c = NIL
    for i in range(n):
        c = Com("p", Lit(IntV(last if i == 0 else i)), "q", c)
    return c


def test_long_chains_hash_and_compare_in_a_loop():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        a, b, c = _chain(10_000, 0), _chain(10_000, 0), _chain(10_000, 1)
        assert a == b and not a != b and a != c
        assert hash(a) == hash(b) != hash(c)
        assert a == b and a != c  # with every hash cached
        d = _chain(10_000, 1)
        assert c == d  # one side hashed, the other not
    finally:
        sys.setrecursionlimit(limit)


def test_pn_of_a_behaviour_is_its_partners():
    n = parse_network(
        "p[0]{ q!1; if @ < 1 then { r?; 0 } else { 0 }; "
        "def X = { s!2; X } in t?; X } | q[0]{ 0 }")
    assert pn(n.as_dict()["p"].behaviour) == {"q", "r", "s", "t"}
    assert pn(n.as_dict()["q"].behaviour) == frozenset()
