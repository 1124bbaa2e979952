"""The traversal table in ``chorkit.terms``: it lists every constructor
with subterms, names exactly their trailing fields, and its primitives give
back the very node when nothing changes.  Terms hash and compare on an
explicit stack, one names scan serves both term families, and the fold
agrees with recursive references, folds a shared node once and needs no
recursion."""

import dataclasses

import pytest

from chorkit import (
    BCond,
    BoolV,
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
    gc,
    harvest_contexts,
    parse_network,
    pn,
    unfold_com,
)
from chorkit.terms import (
    SUBTERMS,
    fold,
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
from helpers import shallow

CHOREOGRAPHY = (Com, Cond, Def, Call, Nil, RtSend, RtRecv, Hole)
BEHAVIOUR = (BSend, BRecv, BCond)  # with Def, Call and Nil, shared


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
            new = tuple(Call("Z") if k == NIL else NIL for k in kids(node))
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
    def check():
        a, b, c = _chain(10_000, 0), _chain(10_000, 0), _chain(10_000, 1)
        assert a == b and not a != b and a != c
        assert hash(a) == hash(b) != hash(c)
        assert a == b and a != c  # with every hash cached
        d = _chain(10_000, 1)
        assert c == d  # one side hashed, the other not
    shallow(check)


def test_pn_of_a_behaviour_is_its_partners():
    n = parse_network(
        "p[0]{ q!1; if @ < 1 then { r?; 0 } else { 0 }; "
        "def X = { s!2; X } in t?; X } | q[0]{ 0 }")
    assert pn(n.as_dict()["p"].behaviour) == {"q", "r", "s", "t"}
    assert pn(n.as_dict()["q"].behaviour) == frozenset()


# ---------------------------------------------------------------------------
# The fold


def gc_reference(t):
    """``terms.gc`` of ``t`` and its free calls, by plain recursion."""
    if type(t) is Call:
        return t, {t.var}
    done = [gc_reference(k) for k in kids(t)]
    free = set().union(*[calls for _, calls in done])
    if type(t) is Def:
        (body, inner), (cont, outer) = done
        if t.var not in outer:
            return cont, outer
        t, free = Def(t.var, body, cont), (inner | outer) - {t.var}
        if not free and all(type(s) in (Def, Call, Nil)
                            for s in subterms(t)):
            t = NIL
        return t, free
    return rebuild(t, [k for k, _ in done]), free


def pn_reference(t):
    """``terms.pn`` of ``t``, by plain recursion."""
    own = {Com: ("src", "dst"), RtSend: ("src",), BRecv: ("src",),
           RtRecv: ("dst",), BSend: ("dst",), Cond: ("decider",)}
    names = {getattr(t, f) for f in own.get(type(t), ())}
    return names.union(*map(pn_reference, kids(t)))


def transform_reference(t, post):
    """``terms.transform`` of ``t``, by plain recursion."""
    return post(rebuild(t, [transform_reference(k, post) for k in kids(t)]))


def swap_ends(n):
    """Each communication the other way round."""
    return Com(n.dst, n.expr, n.src, n.cont) if type(n) is Com else n


def test_fold_agrees_with_recursive_references(corpus):
    for t in corpus:
        assert gc(t) == gc_reference(t)[0]
        assert pn(t) == pn_reference(t)
        assert transform(t, swap_ends) == transform_reference(t, swap_ends)


def tower(n, shared=True):
    """``n`` conditionals on ``r``, each a communication above the next;
    the else branch is the then branch, or else ``p.1 -> q; 0``."""
    t = NIL
    for _ in range(n):
        then = Com("p", Lit(IntV(1)), "q", t)
        t = Cond("r", Lit(BoolV(True)), then,
                 then if shared else Com("p", Lit(IntV(1)), "q", NIL))
    return t


def test_equal_branches_are_folded_once():
    def ends(n):
        calls = []
        fold(tower(n), lambda t, done: calls.append(t), lambda run, v: v)
        return len(calls)

    # One end call per conditional, and one for 0 at the bottom; walked as
    # a tree, 40 levels would take about a million times 20 levels' calls.
    assert ends(20) == 21 and ends(40) == 41
    t = tower(40)
    assert gc(t) is t and pn(t) == {"p", "q", "r"}
    swapped = transform(t, swap_ends)
    assert swapped.then is swapped.orelse and swapped.then.src == "q"
    assert transform(swapped, swap_ends) == t


def test_ten_thousand_levels_fold_without_recursion():
    def check():
        for t in (tower(10_000), tower(10_000, shared=False)):
            assert gc(t) is t and pn(t) == {"p", "q", "r"}
            back = transform(transform(t, swap_ends), swap_ends)
            assert back == t and back is not t
    shallow(check)
